"""In-memory spans around the public functions of the privcause layers.

A :class:`Tracer` replaces each public function defined in one of the
layer modules with a wrapper, in every privcause module that binds it by
name (``fit_krr`` is wrapped as ``inference.fit_krr`` and as
``regression.fit_krr``), plus ``KernelSpec.matrix`` on its class.  Each
wrapper records a span (name, binding site, start, end, parent, trace id)
and the counts that belong to that boundary.  Nothing under ``src/`` is
edited; leaving the ``with`` block puts every original object back.

A span's name is its defining layer and function, whatever module it was
called through, so per-layer figures sum over all call sites.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, replace

import numpy as np

LAYERS = ("data_io", "regression", "scores", "privacy", "inference", "experiments")
PACKAGE = "privcause"

# Propose-test-release mechanisms: each call is one release attempt whose
# ReleaseOutcome says whether it released or abstained.
GATED_RELEASES = (
    "privacy.propose_test_release_stable",
    "privacy.private_log_iqr",
    "privacy.private_log_iqr_train",
)


@dataclass(frozen=True)
class Span:
    name: str
    site: str
    start: float
    end: float
    parent: int | None
    trace_id: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        clipped = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in children[i]
        )
        covered, reach = 0.0, span.start
        for lo, hi in clipped:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Context manager that wraps the layers on entry and restores them on exit.

    Trace ids: each root call (a sweep, a report emission) starts a trace,
    and inside a sweep each further trial starts another, so the spans of
    one decision share an id.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._trace_id = 0
        self._trial_started = False
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        defining = {importlib.import_module(f"{PACKAGE}.{layer}").__name__ for layer in LAYERS}
        sites = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == PACKAGE]
        try:
            for site in sites:
                site_name = site.__name__.rpartition(".")[2]
                for attr, obj in list(vars(site).items()):
                    if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ not in defining:
                        continue
                    name = f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}"
                    self._patch(site, attr, self._wrap(obj, name, site_name))
            scores = sys.modules[f"{PACKAGE}.scores"]
            matrix = vars(scores.KernelSpec)["matrix"]
            self._patch(scores.KernelSpec, "matrix", self._wrap(matrix, "scores.KernelSpec.matrix", "scores"))
            experiments = sys.modules[f"{PACKAGE}.experiments"]
            if hasattr(experiments, "_run_trial"):
                # run_sweep looks its per-trial runner up by name, at jobs=1 too
                self._patch(experiments, "_run_trial", self._trial_boundary(experiments._run_trial))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _trial_boundary(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._trial_started:
                self._trace_id += 1
            self._trial_started = True
            return fn(*args, **kwargs)

        return traced

    def _wrap(self, fn, name: str, site: str):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._trace_id += 1
                self._trial_started = False
            index = len(self.spans)
            self.spans.append(Span(name, site, time.perf_counter(), math.nan, parent, self._trace_id))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index] = replace(self.spans[index], end=time.perf_counter())
            # binding the arguments is deferred to the boundaries that count them
            self._count(name, parent, lambda: signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # -- counts recorded at the same boundaries -----------------------------

    def _count(self, name: str, parent: int | None, arguments, result) -> None:
        self.counts[f"{name}.calls"] += 1
        if name == "scores.KernelSpec.matrix":
            bound = arguments()
            entries = len(bound["u"]) * len(bound["v"])
            self.counts["scores.KernelSpec.matrix.entries"] += entries
            if parent is not None and self.spans[parent].name.startswith("regression."):
                self.counts["regression.gram_entries"] += entries
        elif name == "privacy.laplace_sample":
            size = arguments().get("size")
            self.counts["privacy.laplace_draws"] += 1 if size is None else int(np.prod(size))
        elif name in GATED_RELEASES:
            self.counts["privacy.release_attempts"] += 1
            self.counts["privacy.releases"] += int(bool(result.released))

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for span in self.spans:
                record = asdict(span)
                record["start"] -= origin
                record["end"] -= origin
                fh.write(json.dumps(record) + "\n")


def _per_call_ms(total_s: float, calls: int) -> float:
    return 1e3 * total_s / calls if calls else 0.0


def layer_metrics(tracer: Tracer, trials: int) -> dict[str, float]:
    """Per-layer figures from one traced pass of ``trials`` decisions.

    ``<name>.ms`` is the mean inclusive time per call and ``<name>.self_ms``
    the mean self time per call; a function never called reads 0.
    """
    inclusive: Counter = Counter()
    own: Counter = Counter()
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        inclusive[span.name] += span.end - span.start
        own[span.name] += self_s
    calls = lambda name: tracer.counts[f"{name}.calls"]
    ms = lambda name: _per_call_ms(inclusive[name], calls(name))
    self_ms = lambda name: _per_call_ms(own[name], calls(name))
    per_trial = lambda value: value / trials
    attempts = tracer.counts["privacy.release_attempts"]
    return {
        "experiments.run_sweep.self_ms_per_trial": per_trial(1e3 * own["experiments.run_sweep"]),
        "experiments.emit_report.ms": ms("experiments.emit_report"),
        "inference.anm_infer_detailed.calls_per_trial": per_trial(calls("inference.anm_infer_detailed")),
        "regression.fit_krr.calls_per_trial": per_trial(calls("regression.fit_krr")),
        "inference.anm_infer_detailed.self_ms": self_ms("inference.anm_infer_detailed"),
        "inference.private_test_infer.self_ms": self_ms("inference.private_test_infer"),
        "inference.private_train_infer.self_ms": self_ms("inference.private_train_infer"),
        "regression.fit_krr.self_ms": self_ms("regression.fit_krr"),
        "regression.residuals.self_ms": self_ms("regression.residuals"),
        "regression.gram_entries_per_trial": per_trial(tracer.counts["regression.gram_entries"]),
        "scores.KernelSpec.matrix.ms_per_trial": per_trial(1e3 * inclusive["scores.KernelSpec.matrix"]),
        "scores.hsic.self_ms": self_ms("scores.hsic"),
        "scores.median_heuristic_bandwidth.ms": ms("scores.median_heuristic_bandwidth"),
        "scores.kendall_tau.ms": ms("scores.kendall_tau"),
        "scores.iqr_score.ms": ms("scores.iqr_score"),
        "privacy.iqr_attack_count.ms": ms("privacy.iqr_attack_count"),
        "privacy.iqr_attack_count.calls_per_trial": per_trial(calls("privacy.iqr_attack_count")),
        "privacy.private_log_iqr.self_ms": self_ms("privacy.private_log_iqr"),
        "privacy.laplace_draws_per_trial": per_trial(tracer.counts["privacy.laplace_draws"]),
        "privacy.release_ratio": tracer.counts["privacy.releases"] / attempts if attempts else 0.0,
        "privacy.rank_train_stability_distance.ms": ms("privacy.rank_train_stability_distance"),
        "data_io.synth_anm.ms": ms("data_io.synth_anm"),
        "data_io.split.ms": ms("data_io.split"),
        "data_io.load_pairs_file.ms": ms("data_io.load_pairs_file"),
        "data_io.normalize.ms": ms("data_io.normalize"),
    }
