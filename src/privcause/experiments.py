"""Deterministic experiment sweeps and machine-readable reports.

A sweep is a full factorial over (dataset x score x epsilon x lambda x
trial).  Every trial owns a seed derived by stable hash from the master
seed and the cell coordinates, never from execution order, so parallel
and sequential runs emit byte-identical tables.  Synthetic datasets are
regenerated freshly per trial (new data, new split, new noise); file
datasets are fixed and only the split and noise vary per trial.  Each
trial loads and normalizes its file; a process parses each file once
while its text and its ``.truth`` sidecar are unchanged
(:func:`load_pairs_file`), so later trials and sweeps do not parse it
again and a pool worker parses it once.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass, replace
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from ._blas import openblas_libraries
from .audits import (
    mc_four_score_rate,
    mc_two_score_rate,
    residual_shift_max,
    substitution_audit,
)
from .data_io import SyntheticSpec, check_test_fraction, load_pairs_file, normalize, split, split_sizes, synth_anm
from .inference import (
    PRIVATE_SCORE_BANDWIDTH,
    TARGET_SIDES,
    Decision,
    anm_infer_detailed,
    check_target,
    private_test_infer,
    private_train_infer,
    refuse_vacuous_delta,
    utility_four_score,
    utility_two_score,
)
from .privacy import PrivacyParams, derive_rng, test_sensitivity
from .regression import check_lam, residual_perturbation_bound
from .scores import KernelSpec, ScoreKind

__all__ = [
    "SyntheticSpec",
    "FileSpec",
    "ExperimentConfig",
    "ResultRow",
    "CSV_HEADER",
    "trial_seed",
    "run_trial",
    "run_sweep",
    "emit_report",
    "csv_table",
    "verify_utility_table",
    "verify_sensitivity_table",
]

# (report column, ResultRow field), in report order
_COLUMNS = (
    ("dataset", "dataset"),
    ("score", "score"),
    ("epsilon", "epsilon"),
    ("lambda", "lam"),
    ("seed", "seed"),
    ("decision", "decision"),
    ("correct", "correct"),
    ("abstained", "abstained"),
    ("margin", "margin"),
    ("sigma", "sigma"),
    ("predicted_utility", "predicted_utility"),
)
CSV_HEADER = ",".join(column for column, _ in _COLUMNS)


@dataclass(frozen=True)
class FileSpec:
    path: str

    @property
    def label(self) -> str:
        return Path(self.path).stem


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; immutable and cheap to ship to workers."""

    datasets: tuple
    scores: tuple
    epsilons: tuple = ()
    lams: tuple = (1e-3,)
    delta: float = 1e-2
    target: str = "test"
    trials: int = 1
    master_seed: int = 0
    reg_bandwidth: float = 0.3
    test_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not self.datasets:
            raise ValueError("at least one dataset is required")
        if not self.scores:
            raise ValueError("at least one score kind is required")
        if not self.lams:
            raise ValueError("the lambda grid must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        # refused here by their owners' checks, not once per trial
        check_target(self.target)
        check_test_fraction(self.test_fraction)
        for spec in self.datasets:
            if isinstance(spec, SyntheticSpec):
                split_sizes(spec.n_total, self.test_fraction)
        for lam in self.lams:
            check_lam(lam)
        for epsilon in self.epsilons:
            PrivacyParams(epsilon, self.delta)
        KernelSpec(self.reg_bandwidth)


@dataclass(frozen=True)
class ResultRow:
    dataset: str
    score: str
    epsilon: float | None
    lam: float
    seed: int | str
    decision: str
    correct: bool | float | None = None
    abstained: bool | float | None = None
    margin: float | None = None
    sigma: float | None = None
    predicted_utility: float | None = None
    # "<exception class> in <module>.<function>" for a failed trial; never
    # written to a report, and never the message, which may embed data
    error: str | None = None


def trial_seed(
    master_seed: int, dataset_label: str, score: str, e_idx: int, l_idx: int, trial_idx: int
) -> int:
    """Stable per-trial seed from the cell coordinates (documented hash:
    first 8 bytes of SHA-256 over the pipe-joined labels, little endian,
    top bit cleared)."""
    msg = f"{master_seed}|{dataset_label}|{score}|{e_idx}|{l_idx}|{trial_idx}"
    digest = hashlib.sha256(msg.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def _materialize(spec, seed: int):
    """The trial's samples: drawn afresh for a synthetic spec, loaded and
    normalized for a file."""
    if isinstance(spec, SyntheticSpec):
        return synth_anm(spec.shape, spec.n_total, spec.noise_level, seed)
    return normalize(load_pairs_file(spec.path))


def _correctness(decision: Decision, truth: str | None):
    if truth is None or decision is Decision.ABSTAIN:
        return None
    return decision.value == truth


def _row_fields(config: ExperimentConfig, d_idx: int, s_idx: int, e_idx: int, l_idx: int, t_idx: int):
    """A trial row's identity fields: dataset, score, epsilon, lam, seed."""
    spec = config.datasets[d_idx]
    kind = config.scores[s_idx]
    epsilon = config.epsilons[e_idx] if config.epsilons else None
    seed = trial_seed(config.master_seed, spec.label, kind.value, e_idx, l_idx, t_idx)
    return dict(dataset=spec.label, score=kind.value, epsilon=epsilon, lam=config.lams[l_idx], seed=seed)


def run_trial(config: ExperimentConfig, d_idx: int, s_idx: int, e_idx: int, l_idx: int, t_idx: int):
    """Run one trial and return (row, non-private report, private reports).

    The target's sides (:data:`TARGET_SIDES`) release in turn from the
    shared noise stream, and the row reports the last of them: at "both"
    the training release runs first, then the test release.  A composed
    delta of 1 or more for the whole target (at "both", the two sides'
    sum) and IQR at "both" are refused from the config, before any data is
    read.  The report is fitted for the target its releases read, or for
    none at a non-private trial (:func:`anm_infer_detailed`).
    """
    base = _row_fields(config, d_idx, s_idx, e_idx, l_idx, t_idx)
    epsilon, lam, seed = base["epsilon"], base["lam"], base["seed"]
    kind, kernel = config.scores[s_idx], KernelSpec(config.reg_bandwidth)
    if epsilon is not None:
        params = PrivacyParams(epsilon=epsilon, delta=config.delta)
        refuse_vacuous_delta(kind, config.target, params)
    samples = _materialize(config.datasets[d_idx], seed)
    parts = split(samples, config.test_fraction, seed)
    report = anm_infer_detailed(parts, kind, kernel, lam, target=None if epsilon is None else config.target)
    decision, sigma, predicted, outcomes = report.decision, None, None, {}
    if epsilon is not None:
        rng = derive_rng(seed, "noise", config.target)
        # looked up per call, so that wrappers set on this module take effect
        release = {"train": private_train_infer, "test": private_test_infer}
        for side in TARGET_SIDES[config.target]:
            primary = outcomes[side] = release[side](report, params, rng)
        decision, sigma, predicted = primary.decision, primary.noise_scale, primary.predicted_utility
    row = ResultRow(
        **base,
        decision=decision.value,
        correct=_correctness(decision, samples.ground_truth),
        abstained=decision is Decision.ABSTAIN,
        margin=report.margin,
        sigma=sigma,
        predicted_utility=predicted,
    )
    return row, report, outcomes


def _error_site(exc: Exception) -> str:
    """The exception class and the innermost package function that raised
    it.  A method is a value's own check (:meth:`PrivacyParams.require_delta`)
    or computation, so it is reported at the function that called it."""
    sites = [
        f"{frame.f_globals['__name__'].rpartition('.')[2]}.{frame.f_code.co_name}"
        for frame, _ in traceback.walk_tb(exc.__traceback__)
        if frame.f_globals.get("__name__", "").startswith(f"{__package__}.")
        and frame.f_code.co_varnames[: frame.f_code.co_argcount][:1] != ("self",)
    ]
    return f"{type(exc).__name__} in {sites[-1]}"


def _run_trial(task) -> ResultRow:
    config, *cell = task
    try:
        return run_trial(config, *cell)[0]
    except Exception as exc:
        return ResultRow(**_row_fields(config, *cell), decision="error", error=_error_site(exc))


def _aggregate(cell_rows: list[ResultRow]) -> ResultRow:
    """The cell's row: each value column averaged over the trials that did
    not raise, or None where none of them has a value."""
    ok_rows = [r for r in cell_rows if r.decision != "error"]
    means = {}
    for field in ("correct", "abstained", "margin", "sigma", "predicted_utility"):
        values = [float(v) for r in ok_rows if (v := getattr(r, field)) is not None]
        means[field] = sum(values) / len(values) if values else None
    return replace(cell_rows[0], seed="all", decision="aggregate", error=None, **means)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> list[ResultRow]:
    """Run the full factorial and append one aggregate row per cell.

    Row order is the deterministic nested loop (dataset, score, epsilon,
    lambda, trial); worker count never changes the output.  At most one
    worker per CPU this process may run on, and per task, is started,
    since more only compete for the cores or sit idle; one worker runs the
    sweep in this process.  A task is the config and the cell's indices.
    Each trial that is not refused from the config loads its file through
    the per-process parse cache (:func:`load_pairs_file`), so a file edited
    during a sweep reaches the trials that start after the edit.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    e_indices = range(len(config.epsilons)) if config.epsilons else (0,)
    cells = [
        (d, s, e, l)
        for d in range(len(config.datasets))
        for s in range(len(config.scores))
        for e in e_indices
        for l in range(len(config.lams))
    ]
    tasks = [(config, d, s, e, l, t) for (d, s, e, l) in cells for t in range(config.trials)]
    jobs = min(jobs, _usable_cpus(), len(tasks))
    if jobs > 1:
        # forked workers inherit the BLAS handles instead of each opening them
        openblas_libraries()
        with Pool(processes=jobs) as pool:
            trial_rows = pool.map(_run_trial, tasks, chunksize=max(1, len(tasks) // (4 * jobs)))
    else:
        trial_rows = [_run_trial(t) for t in tasks]
    out: list[ResultRow] = []
    for c, _ in enumerate(cells):
        chunk = trial_rows[c * config.trials : (c + 1) * config.trials]
        out.extend(chunk)
        out.append(_aggregate(chunk))
    return out


# ---------------------------------------------------------------------------
# report emission


def csv_table(header, rows, digits: int = 12) -> str:
    """CSV text of a header line and one line per row of values: None is a
    blank cell, a bool is true or false, and a float keeps ``digits``
    significant digits."""
    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:.{digits}g}"
        return str(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell(value) for value in row] for row in rows)
    return buffer.getvalue()


def _json_cell(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def emit_report(rows: list[ResultRow], fmt: str = "csv", path=None) -> str:
    """Render rows as CSV (fixed header) or JSON; optionally write to path.

    Floats use 12 significant digits in both formats, so identical rows
    always produce identical bytes.
    """
    if not rows:
        raise ValueError("no rows to report")
    if fmt == "csv":
        text = csv_table(
            [column for column, _ in _COLUMNS],
            ([getattr(row, f) for _, f in _COLUMNS] for row in rows),
        )
    elif fmt == "json":
        payload = [
            {name: _json_cell(getattr(row, f)) for name, f in _COLUMNS}
            for row in rows
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'json'")
    if path is not None:
        Path(path).write_text(text)
    return text


# ---------------------------------------------------------------------------
# verification tables (closed forms vs Monte Carlo, bounds vs brute force)


def _require_grids(**grids) -> None:
    """Refuse an empty grid: its table would pass having checked nothing."""
    for name, grid in grids.items():
        if len(grid) == 0:
            raise ValueError(f"{name} is empty; the table would check nothing")


def _bound_row(check: str, size: int, worst: float, bound: float, lam: float | None = None) -> dict:
    """A bound check's row, with the same keys for every check (``lambda``
    is None where the bound has none): the empirical maximum passes when
    it is at most the bound, with a 1e-12 relative slack for float
    rounding in the sums, since the rank bounds are exactly attained on
    adversarial data."""
    return {
        "check": check,
        "size": size,
        "lambda": lam,
        "empirical_max": worst,
        "bound": bound,
        "ratio": worst / bound,
        "pass": worst <= bound * (1.0 + 1e-12),
    }


def verify_utility_table(gammas, sigmas, draws: int, seed: int = 0):
    """Closed-form vs simulated correct-inference probability on a grid.

    Returns (rows, all_pass); each row records both values, the absolute
    gap, and a pass flag at the 3-standard-error tolerance.  An empty
    grid is a ValueError.
    """
    _require_grids(gammas=gammas, sigmas=sigmas)
    if draws < 10**5:
        raise ValueError("need at least 1e5 draws for a meaningful check")
    rows = []
    for tag, closed, simulate in (
        ("two-score", utility_two_score, mc_two_score_rate),
        ("four-score", utility_four_score, mc_four_score_rate),
    ):
        for gamma in gammas:
            for sigma in sigmas:
                want = closed(gamma, sigma)
                rng = derive_rng(seed, "verify-utility", tag, gamma, sigma)
                got = simulate(gamma, sigma, draws, rng)
                gap = abs(got - want)
                tol = 3.0 * math.sqrt(want * (1.0 - want) / draws)
                rows.append(
                    {
                        "formula": tag,
                        "gamma": gamma,
                        "sigma": sigma,
                        "closed_form": want,
                        "monte_carlo": got,
                        "abs_gap": gap,
                        "tolerance": tol,
                        "pass": gap <= tol,
                    }
                )
    return rows, all(row["pass"] for row in rows)


def verify_sensitivity_table(m_grid, instances: int, grid_points: int, seed: int = 0):
    """Empirical vs theoretical worst-case change under one substitution.

    Covers the three bounded test-set scores on random [-1,1] data plus
    the kernel ridge residual stability bound; reports empirical maxima,
    bounds, and their ratio (anything above 1 is a violation).  An empty
    ``m_grid`` is a ValueError.
    """
    _require_grids(m_grid=m_grid)
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    if instances < 1:
        raise ValueError(f"need at least 1 instance, got {instances}")
    candidates = np.linspace(-1.0, 1.0, grid_points)
    kernels = (KernelSpec(PRIVATE_SCORE_BANDWIDTH), KernelSpec(PRIVATE_SCORE_BANDWIDTH))
    rows = []
    for m in m_grid:
        for kind in (ScoreKind.SPEARMAN_RHO, ScoreKind.KENDALL_TAU, ScoreKind.HSIC):
            worst = 0.0
            for i in range(instances):
                rng = derive_rng(seed, "verify-sens", kind.value, m, i)
                a = rng.uniform(-1.0, 1.0, m)
                b = rng.uniform(-1.0, 1.0, m)
                worst = max(worst, substitution_audit(kind, a, b, candidates, kernels=kernels))
            rows.append(_bound_row(f"{kind.value}-test", m, worst, test_sensitivity(kind, m)))
    n, m_eval = 100, 25
    corner_grid = [(float(u), float(v)) for u in (-1.0, 0.0, 1.0) for v in (-1.0, 0.0, 1.0)]
    for lam in (0.25, 0.5, 1.0):
        worst = 0.0
        for i in range(max(1, instances // 10)):
            rng = derive_rng(seed, "verify-resid", lam, i)
            x_tr = rng.uniform(-1.0, 1.0, n)
            y_tr = rng.uniform(-1.0, 1.0, n)
            x_ev = rng.uniform(-1.0, 1.0, m_eval)
            index = int(rng.integers(0, n))
            worst = max(
                worst,
                residual_shift_max(x_tr, y_tr, x_ev, KernelSpec(1.0), lam, index, corner_grid),
            )
        bound = residual_perturbation_bound(n, lam)
        rows.append(_bound_row("krr-residual", n, worst, bound, lam))
    return rows, all(row["pass"] for row in rows)
