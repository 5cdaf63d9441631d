"""The benchmark's workloads and the check of their reports.

Every input is derived from the workload seed: each operation's
``master_seed`` is a hash of (workload, seed, operation index), and the
tied pairs files of ``iqr-private`` are generated from the seed with
``data_io.write_pairs_file``.  The program receives only these inputs.

Each workload has
- ``decision(seed, i, workdir)``: the config of the i-th single-decision
  operation of its closed loop (one trial, ``jobs=1``);
- ``check_sweeps(workdir)``: the sweeps whose report is compared against
  the committed reference in ``reference/<name>.csv``, recorded at
  ``DEFAULT_SEED`` with ``jobs=1``;
- ``traced_sweeps(seed, workdir)``: the fixed list of sweeps of a traced
  run, so that its counts repeat exactly.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from privcause.data_io import SamplePairs, synth_anm, write_pairs_file
from privcause.experiments import ExperimentConfig, FileSpec, SyntheticSpec
from privcause.scores import ScoreKind

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

EXACT_COLUMNS = ("dataset", "score", "epsilon", "lambda", "seed", "decision", "correct", "abstained")
FLOAT_COLUMNS = ("margin", "sigma", "predicted_utility")
# A different BLAS thread count alone moves the 12th digit of some margins.
FLOAT_RTOL = 1e-9


def derive_seed(workload: str, seed: int, *labels) -> int:
    msg = "|".join(["perfbench", workload, str(seed), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(msg.encode("utf-8")).digest()[:4], "little")


@dataclass(frozen=True)
class Workload:
    name: str
    decision: Callable[[int, int, Path], ExperimentConfig]
    check_sweeps: Callable[[Path], list[ExperimentConfig]]
    traced_sweeps: Callable[[int, Path], list[ExperimentConfig]]
    # operations per round of the decision pattern; a run ends on a round
    # boundary so that every run times the same mix of decisions
    cycle: int
    # sweep-parallel only: its sweeps also go through the multiprocessing pool
    pool: bool = False


# -- sweep-parallel: the researcher's factorial sweep --------------------------

SWEEP_DATASETS = (SyntheticSpec("cubic", n_total=500), SyntheticSpec("sigmoid", n_total=500))
SWEEP_SCORES = (ScoreKind.KENDALL_TAU, ScoreKind.HSIC)
SWEEP_EPSILONS = (0.5, 2.0)
SWEEP_LAMS = (0.02, 0.5)
SWEEP_CELLS = tuple(product(SWEEP_DATASETS, SWEEP_SCORES, SWEEP_EPSILONS, SWEEP_LAMS))


def sweep_grid(seed: int, trials: int = 10) -> ExperimentConfig:
    return ExperimentConfig(
        datasets=SWEEP_DATASETS,
        scores=SWEEP_SCORES,
        epsilons=SWEEP_EPSILONS,
        lams=SWEEP_LAMS,
        target="both",
        trials=trials,
        master_seed=derive_seed("sweep-parallel", seed, "grid"),
    )


def sweep_decision(seed: int, i: int, workdir: Path) -> ExperimentConfig:
    dataset, score, epsilon, lam = SWEEP_CELLS[i % len(SWEEP_CELLS)]
    return ExperimentConfig(
        datasets=(dataset,),
        scores=(score,),
        epsilons=(epsilon,),
        lams=(lam,),
        target="both",
        master_seed=derive_seed("sweep-parallel", seed, i),
    )


# -- iqr-private: test-side IQR decisions, alternating synthetic and file data --


# Several files per run, so that no single file's data sets a run's cost.
PAIRS_FILES = 4


@functools.lru_cache(maxsize=None)
def tied_pairs_file(seed: int, k: int, workdir: Path) -> Path:
    """The k-th sigmoid pairs file (n_total=1000) of a seed, rounded to 2
    decimals so that ties occur.  Written once per process, before any
    operation reads it."""
    path = workdir / f"sigmoid-ties-{seed}-{k}.pairs"
    drawn = synth_anm("sigmoid", 1000, 0.3, derive_seed("iqr-private", seed, "pairs", k))
    tied = SamplePairs(np.round(drawn.x, 2), np.round(drawn.y, 2), id=path.stem, ground_truth=drawn.ground_truth)
    write_pairs_file(tied, path)
    return path


def iqr_decision(seed: int, i: int, workdir: Path) -> ExperimentConfig:
    """Odd operations read a pairs file, even ones draw cubic data; epsilon
    alternates every two operations and the file every four."""
    if i % 2:
        dataset = FileSpec(str(tied_pairs_file(seed, (i // 4) % PAIRS_FILES, workdir)))
    else:
        dataset = SyntheticSpec("cubic", n_total=500)
    return ExperimentConfig(
        datasets=(dataset,),
        scores=(ScoreKind.IQR,),
        epsilons=((0.5, 1.0)[(i // 2) % 2],),
        lams=(0.02,),
        target="test",
        master_seed=derive_seed("iqr-private", seed, i),
        reg_bandwidth=0.08,
    )


# -- large-n: n_total=2000, Gram matrices larger than the L2 cache --------------


def large_n_decision(seed: int, i: int, workdir: Path) -> ExperimentConfig:
    private = bool(i % 2)
    return ExperimentConfig(
        datasets=(SyntheticSpec("cubic", n_total=2000),),
        scores=(ScoreKind.KENDALL_TAU if private else ScoreKind.HSIC,),
        epsilons=(1.0,) if private else (),
        lams=(0.02,),
        target="test",
        master_seed=derive_seed("large-n", seed, i),
        reg_bandwidth=0.08,
    )


def _closed_loop(name, decision, cycle, check_ops, trace_ops) -> Workload:
    return Workload(
        name=name,
        decision=decision,
        cycle=cycle,
        check_sweeps=lambda workdir: [decision(DEFAULT_SEED, i, workdir) for i in range(check_ops)],
        traced_sweeps=lambda seed, workdir: [decision(seed, i, workdir) for i in range(trace_ops)],
    )


WORKLOADS = {
    "sweep-parallel": Workload(
        name="sweep-parallel",
        decision=sweep_decision,
        check_sweeps=lambda workdir: [sweep_grid(DEFAULT_SEED)],
        traced_sweeps=lambda seed, workdir: [sweep_grid(seed)],
        cycle=len(SWEEP_CELLS),
        pool=True,
    ),
    "iqr-private": _closed_loop("iqr-private", iqr_decision, cycle=4 * PAIRS_FILES, check_ops=12, trace_ops=24),
    "large-n": _closed_loop("large-n", large_n_decision, cycle=2, check_ops=4, trace_ops=16),
}


# -- report checks --------------------------------------------------------------


def parse_report(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _floats_match(a: str, b: str) -> bool:
    if a == b:
        return True
    if not a or not b:
        return False
    return math.isclose(float(a), float(b), rel_tol=FLOAT_RTOL, abs_tol=0.0)


def report_mismatches(got: str, want: str) -> list[str]:
    """Rows of ``got`` that differ from ``want``: identity and outcome columns
    exactly, float columns to a relative FLOAT_RTOL.  A missing or extra
    row counts as one mismatch each."""
    got_rows, want_rows = parse_report(got), parse_report(want)
    problems = []
    for k, (g, w) in enumerate(zip(got_rows, want_rows)):
        bad = [c for c in EXACT_COLUMNS if g.get(c) != w.get(c)]
        bad += [c for c in FLOAT_COLUMNS if not _floats_match(g.get(c, ""), w.get(c, ""))]
        if bad:
            problems.append(f"row {k}: {', '.join(f'{c} {g.get(c)!r} != {w.get(c)!r}' for c in bad)}")
    for k in range(min(len(got_rows), len(want_rows)), max(len(got_rows), len(want_rows))):
        problems.append(f"row {k}: present in only one report")
    return problems


def row_problems(row) -> list[str]:
    """Internal consistency of one trial row of a synthetic or generated
    dataset, whose ground truth is always x->y."""
    if row.decision == "error":
        return ["the trial raised"]
    if row.decision not in ("x->y", "y->x", "tie", "abstain"):
        return [f"unknown decision {row.decision!r}"]
    problems = []
    abstained = row.decision == "abstain"
    if row.abstained is not abstained:
        problems.append(f"abstained={row.abstained!r} with decision {row.decision}")
    want_correct = None if abstained else row.decision == "x->y"
    if row.correct is not want_correct:
        problems.append(f"correct={row.correct!r} with decision {row.decision}")
    return problems
