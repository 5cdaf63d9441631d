import shutil
import subprocess
import sys
from pathlib import Path

import harness
import workloads
from workloads import report_mismatches

BENCH = Path(__file__).resolve().parent.parent
REPORT = (
    "dataset,score,epsilon,lambda,seed,decision,correct,abstained,margin,sigma,predicted_utility\n"
    "synth,kendall,0.5,0.02,11,x->y,true,false,0.0123456789012,0.0327,0.61\n"
    "synth,kendall,0.5,0.02,all,aggregate,1,0,0.0123456789012,0.0327,0.61\n"
)


def test_identical_reports_match():
    assert report_mismatches(REPORT, REPORT) == []


def test_floats_match_to_a_relative_1e_9():
    assert report_mismatches(REPORT.replace("0.0123456789012", "0.0123456789013"), REPORT) == []
    assert len(report_mismatches(REPORT.replace("0.0327", "0.03270001"), REPORT)) == 2


def test_outcome_columns_match_exactly():
    flipped = REPORT.replace("x->y,true", "y->x,false")
    assert report_mismatches(flipped, REPORT) == ["row 0: decision 'y->x' != 'x->y', correct 'false' != 'true'"]
    assert len(report_mismatches(REPORT.replace(",1,0,", ",0.9,0,"), REPORT)) == 1


def test_missing_rows_are_mismatches():
    assert report_mismatches(REPORT.rsplit("synth", 1)[0], REPORT) == ["row 1: present in only one report"]


def test_a_changed_reference_fails_the_check(tmp_path, monkeypatch):
    workload = workloads.WORKLOADS["large-n"]
    reference = harness.reference_path(workload).read_text()
    tampered = tmp_path / "large-n.csv"
    tampered.write_text(reference.replace(",x->y,true,false,", ",y->x,false,false,", 1))
    monkeypatch.setattr(harness, "reference_path", lambda w: tampered)
    outcome = harness.Outcome()
    harness.check_reference(workload, tmp_path, outcome)
    assert outcome.attempted == 4
    assert len(outcome.failures) == 1 and "decision" in outcome.failures[0]


def test_tied_pairs_files_are_a_function_of_the_seed(tmp_path):
    texts = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        texts.append(workloads.tied_pairs_file(5, 1, tmp_path / sub).read_text())
    assert texts[0] == texts[1]
    lines = texts[0].splitlines()
    assert len(lines) == 1000 and len({line.split()[0] for line in lines}) < 300


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-n", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        assert not line.startswith("{"), line
