"""Sweep reports at fixed seeds against committed golden reports.

A refactor that changes no behaviour leaves these reports unchanged.  They
are compared with the benchmark's rule: identity and outcome columns
exactly, float columns to a relative 1e-9, since another BLAS build can
move the 12th digit of some margins.  After a deliberate change of
output, re-record with ``PYTHONPATH=src python tests/test_golden.py
[NAME ...]``, which rewrites only the named reports (all of them when none
is named), and say why.
"""
import sys
from pathlib import Path

import pytest

from privcause.experiments import ExperimentConfig, SyntheticSpec, emit_report, run_sweep
from privcause.scores import ScoreKind

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import report_mismatches  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
NAMES = ("test", "train", "both", "nonprivate")
# n_total = 1100 puts m = 550 held-out and 550 training points in every
# O(m^2) pass: above 512 and not a power of two, so the last merge level of
# the inversion count pairs a full block of 512 with a ragged one of 38.
LARGE_NAMES = ("large-nonprivate", "large-test")
# At delta = 0.01 the test-side IQR release composes to 4 delta = 0.04 and
# runs; in the delta = 0.3 sweeps above its rows are errors, and at target
# both IQR is refused at any delta.  Every row here abstains: each of its
# four gates needs about 250 substitutions at eps 1.
IQR_NAMES = ("iqr-test",)
ALL_NAMES = NAMES + LARGE_NAMES + IQR_NAMES
PRIVATE_SCORES = (ScoreKind.SPEARMAN_RHO, ScoreKind.KENDALL_TAU, ScoreKind.HSIC, ScoreKind.IQR)


def golden_config(name: str) -> ExperimentConfig:
    """One private sweep per target over the four private scores, or the
    non-private sweep over all five scores; the large sweeps are the
    non-private one and a test-side Kendall/HSIC one at n_total = 1100,
    and the IQR sweep runs the test target at n_total = 1100 and delta =
    0.01."""
    if name in IQR_NAMES:
        return ExperimentConfig(
            datasets=(SyntheticSpec("cubic", 1100), SyntheticSpec("sigmoid", 1100)),
            scores=(ScoreKind.IQR,),
            epsilons=(0.5, 1.0),
            lams=(0.02, 0.5),
            delta=0.01,
            target="test",
            trials=2,
            master_seed=13,
            reg_bandwidth=0.08,
        )
    if name in LARGE_NAMES:
        private = name == "large-test"
        return ExperimentConfig(
            datasets=(SyntheticSpec("cubic", 1100), SyntheticSpec("sigmoid", 1100)),
            scores=(ScoreKind.KENDALL_TAU, ScoreKind.HSIC) if private else tuple(ScoreKind),
            epsilons=(0.5, 1.0) if private else (),
            lams=(0.02, 0.5),
            delta=0.3,
            target="test",
            trials=2,
            master_seed=13,
            reg_bandwidth=0.08,
        )
    private = name != "nonprivate"
    return ExperimentConfig(
        datasets=(SyntheticSpec("cubic", 200), SyntheticSpec("sigmoid", 200)),
        scores=PRIVATE_SCORES if private else tuple(ScoreKind),
        epsilons=(0.5, 1.0) if private else (),
        lams=(0.02, 0.5),
        delta=0.3,
        target=name if private else "test",
        trials=3,
        master_seed=11,
        reg_bandwidth=0.08,
    )


@pytest.mark.parametrize("name", ALL_NAMES)
def test_sweep_report_matches_golden(name):
    got = emit_report(run_sweep(golden_config(name)))
    assert report_mismatches(got, (GOLDEN / f"{name}.csv").read_text()) == []


def record(names) -> None:
    """Re-record the named golden reports, or all of them when none is named."""
    unknown = sorted(set(names) - set(ALL_NAMES))
    if unknown:
        raise SystemExit(f"unknown golden report(s) {unknown}; pick from {list(ALL_NAMES)}")
    for name in names or ALL_NAMES:
        emit_report(run_sweep(golden_config(name)), path=GOLDEN / f"{name}.csv")


if __name__ == "__main__":
    record(sys.argv[1:])
