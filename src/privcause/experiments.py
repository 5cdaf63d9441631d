"""Deterministic experiment sweeps and machine-readable reports.

A sweep is a full factorial over (dataset x score x epsilon x lambda x
trial).  Every trial owns a seed derived by stable hash from the master
seed and the cell coordinates, never from execution order, so parallel
and sequential runs emit byte-identical tables.  Synthetic datasets are
regenerated freshly per trial (new data, new split, new noise); file
datasets are fixed and only the split and noise vary per trial.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import traceback
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from .audits import (
    mc_four_score_rate,
    mc_two_score_rate,
    residual_shift_max,
    substitution_audit,
)
from .data_io import SYNTH_SHAPES, load_pairs_file, normalize, split, synth_anm
from .inference import (
    Decision,
    anm_infer_detailed,
    private_test_infer,
    private_train_infer,
    utility_four_score,
    utility_two_score,
)
from .privacy import PrivacyParams, derive_rng, test_sensitivity
from .regression import residual_perturbation_bound
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

PRIVATE_SCORE_BANDWIDTH = 0.5
TARGETS = ("test", "train", "both")


@dataclass(frozen=True)
class SyntheticSpec:
    shape: str
    n_total: int = 500
    noise_level: float = 0.3

    def __post_init__(self) -> None:
        if self.shape not in SYNTH_SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")

    @property
    def label(self) -> str:
        return f"synth-{self.shape}-n{self.n_total}-noise{self.noise_level:g}"


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
    delta_prime: float = 1e-6
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
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {self.target!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class ResultRow:
    dataset: str
    score: str
    epsilon: float | None
    lam: float
    seed: int | str
    decision: str
    correct: bool | float | None
    abstained: bool | float | None
    margin: float | None
    sigma: float | None
    predicted_utility: float | None
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

    With target "both" the training mechanism runs first on the shared
    noise stream, then the test mechanism; the row reports the test
    release, falling back to the training one only on an Abstain.
    """
    base = _row_fields(config, d_idx, s_idx, e_idx, l_idx, t_idx)
    epsilon, lam, seed = base["epsilon"], base["lam"], base["seed"]
    samples = _materialize(config.datasets[d_idx], seed)
    parts = split(samples, config.test_fraction, seed)
    kind, kernel = config.scores[s_idx], KernelSpec(config.reg_bandwidth)
    bandwidths = "median" if epsilon is None else PRIVATE_SCORE_BANDWIDTH
    report = anm_infer_detailed(parts, kind, kernel, lam, hsic_bandwidths=bandwidths)
    decision, sigma, predicted, outcomes = report.decision, None, None, {}
    if epsilon is not None:
        params = PrivacyParams(epsilon=epsilon, delta=config.delta)
        rng = derive_rng(seed, "noise", config.target)
        if config.target in ("train", "both"):
            outcomes["train"] = private_train_infer(report, params, rng)
        if config.target in ("test", "both"):
            outcomes["test"] = private_test_infer(report, params, rng, delta_prime=config.delta_prime)
        primary = outcomes.get("test") or outcomes["train"]
        fallback = outcomes.get("train", primary)
        if primary.decision is Decision.ABSTAIN and fallback.decision is not Decision.ABSTAIN:
            primary = fallback
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
    """The exception class and the innermost package frame that raised it."""
    sites = [
        f"{frame.f_globals['__name__'].rpartition('.')[2]}.{frame.f_code.co_name}"
        for frame, _ in traceback.walk_tb(exc.__traceback__)
        if frame.f_globals.get("__name__", "").startswith(f"{__package__}.")
    ]
    return f"{type(exc).__name__} in {sites[-1]}"


def _run_trial(task) -> ResultRow:
    config, *cell = task
    try:
        return run_trial(config, *cell)[0]
    except Exception as exc:
        return ResultRow(
            **_row_fields(config, *cell),
            decision="error",
            correct=None,
            abstained=None,
            margin=None,
            sigma=None,
            predicted_utility=None,
            error=_error_site(exc),
        )


def _mean_or_none(values) -> float | None:
    vals = [float(v) for v in values if v is not None]
    return sum(vals) / len(vals) if vals else None


def _aggregate(cell_rows: list[ResultRow]) -> ResultRow:
    head = cell_rows[0]
    ok_rows = [r for r in cell_rows if r.decision != "error"]
    return ResultRow(
        dataset=head.dataset,
        score=head.score,
        epsilon=head.epsilon,
        lam=head.lam,
        seed="all",
        decision="aggregate",
        correct=_mean_or_none(r.correct for r in ok_rows),
        abstained=_mean_or_none(r.abstained for r in ok_rows),
        margin=_mean_or_none(r.margin for r in ok_rows),
        sigma=_mean_or_none(r.sigma for r in ok_rows),
        predicted_utility=_mean_or_none(r.predicted_utility for r in ok_rows),
    )


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> list[ResultRow]:
    """Run the full factorial and append one aggregate row per cell.

    Row order is the deterministic nested loop (dataset, score, epsilon,
    lambda, trial); worker count never changes the output.  At most one
    worker per CPU is started, since more only compete for the cores.
    """
    e_indices = range(len(config.epsilons)) if config.epsilons else (0,)
    cells = [
        (d, s, e, l)
        for d in range(len(config.datasets))
        for s in range(len(config.scores))
        for e in e_indices
        for l in range(len(config.lams))
    ]
    tasks = [
        (config, d, s, e, l, t) for (d, s, e, l) in cells for t in range(config.trials)
    ]
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
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


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


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
        lines = [CSV_HEADER]
        for row in rows:
            lines.append(",".join(_fmt_cell(getattr(row, f)) for _, f in _COLUMNS))
        text = "\n".join(lines) + "\n"
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


def verify_utility_table(gammas, sigmas, draws: int, seed: int = 0):
    """Closed-form vs simulated correct-inference probability on a grid.

    Returns (rows, all_pass); each row records both values, the absolute
    gap, and a pass flag at the 3-standard-error tolerance.
    """
    if draws < 10**5:
        raise ValueError("need at least 1e5 draws for a meaningful check")
    rows = []
    all_pass = True
    for tag, closed, simulate in (
        ("two-score", utility_two_score, mc_two_score_rate),
        ("four-score", utility_four_score, mc_four_score_rate),
    ):
        for gamma in gammas:
            for sigma in sigmas:
                want = closed(gamma, sigma)
                rng = derive_rng(seed, "verify-utility", tag, gamma, sigma)
                got = simulate(gamma, sigma, draws, rng)
                tol = 3.0 * math.sqrt(want * (1.0 - want) / draws)
                ok = abs(got - want) <= tol
                all_pass &= ok
                rows.append(
                    {
                        "formula": tag,
                        "gamma": gamma,
                        "sigma": sigma,
                        "closed_form": want,
                        "monte_carlo": got,
                        "abs_gap": abs(got - want),
                        "tolerance": tol,
                        "pass": ok,
                    }
                )
    return rows, all_pass


def verify_sensitivity_table(m_grid, instances: int, grid_points: int, seed: int = 0):
    """Empirical vs theoretical worst-case change under one substitution.

    Covers the three bounded test-set scores on random [-1,1] data plus
    the kernel ridge residual stability bound; reports empirical maxima,
    bounds, and their ratio (anything above 1 is a violation).  The rank
    bounds are exactly attained on adversarial data, so the pass flag
    allows a 1e-12 relative slack for float rounding in the score sums.
    """
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    candidates = np.linspace(-1.0, 1.0, grid_points)
    kernels = (KernelSpec(PRIVATE_SCORE_BANDWIDTH), KernelSpec(PRIVATE_SCORE_BANDWIDTH))
    rows = []
    all_pass = True
    for m in m_grid:
        for kind in (ScoreKind.SPEARMAN_RHO, ScoreKind.KENDALL_TAU, ScoreKind.HSIC):
            bound = test_sensitivity(kind, m)
            worst = 0.0
            for i in range(instances):
                rng = derive_rng(seed, "verify-sens", kind.value, m, i)
                a = rng.uniform(-1.0, 1.0, m)
                b = rng.uniform(-1.0, 1.0, m)
                worst = max(worst, substitution_audit(kind, a, b, candidates, kernels=kernels))
            ok = worst <= bound * (1.0 + 1e-12)
            all_pass &= ok
            rows.append(
                {
                    "check": f"{kind.value}-test",
                    "size": m,
                    "empirical_max": worst,
                    "bound": bound,
                    "ratio": worst / bound,
                    "pass": ok,
                }
            )
    n, m_eval = 100, 25
    corner_grid = [(float(u), float(v)) for u in (-1.0, 0.0, 1.0) for v in (-1.0, 0.0, 1.0)]
    for lam in (0.25, 0.5, 1.0):
        bound = residual_perturbation_bound(n, lam)
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
        ok = worst <= bound * (1.0 + 1e-12)
        all_pass &= ok
        rows.append(
            {
                "check": "krr-residual",
                "size": n,
                "lambda": lam,
                "empirical_max": worst,
                "bound": bound,
                "ratio": worst / bound,
                "pass": ok,
            }
        )
    return rows, all_pass
