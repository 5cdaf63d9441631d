"""Sweep reports at fixed seeds against committed golden reports.

A refactor that changes no behaviour leaves these reports unchanged.  They
are compared with the benchmark's rule: identity and outcome columns
exactly, float columns to a relative 1e-9, since the BLAS thread count
alone moves the 12th digit of some margins.  After a deliberate change of
output, re-record with ``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python
tests/test_golden.py`` and say why.
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
PRIVATE_SCORES = (ScoreKind.SPEARMAN_RHO, ScoreKind.KENDALL_TAU, ScoreKind.HSIC, ScoreKind.IQR)


def golden_config(name: str) -> ExperimentConfig:
    """One private sweep per target over the four private scores, or the
    non-private sweep over all five scores; the large sweeps are the
    non-private one and a test-side Kendall/HSIC one at n_total = 1100."""
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


@pytest.mark.parametrize("name", NAMES + LARGE_NAMES)
def test_sweep_report_matches_golden(name):
    got = emit_report(run_sweep(golden_config(name)))
    assert report_mismatches(got, (GOLDEN / f"{name}.csv").read_text()) == []


if __name__ == "__main__":
    for name in NAMES + LARGE_NAMES:
        emit_report(run_sweep(golden_config(name)), path=GOLDEN / f"{name}.csv")
