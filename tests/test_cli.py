"""Command-line entry points: exit codes, report bytes, output hygiene."""
import argparse
from dataclasses import fields

import numpy as np
import pytest

from privcause.cli import _build_parser, main
from privcause.data_io import SamplePairs, write_pairs_file
from privcause.experiments import CSV_HEADER, ExperimentConfig

SHARED_OPTIONS = {
    "--lambda", "--delta", "--delta-prime", "--target", "--seed", "--bandwidth",
    "--pairs-dir", "--synthetic", "--n-total", "--noise-level", "--test-fraction",
    "--format", "--out", "--score", "--epsilon",
}


def test_option_surface_is_pinned():
    # adding or removing a knob is a deliberate edit of this list
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {opt for a in sub.choices[name]._actions if a.dest != "help" for opt in a.option_strings}
        for name in ("infer", "sweep")
    }
    assert options == {"infer": SHARED_OPTIONS, "sweep": SHARED_OPTIONS | {"--trials", "--jobs"}}
    assert [f.name for f in fields(ExperimentConfig)] == [
        "datasets", "scores", "epsilons", "lams", "delta", "delta_prime", "target",
        "trials", "master_seed", "reg_bandwidth", "test_fraction",
    ]


def test_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_infer_non_private(capsys):
    code = main(["infer", "--synthetic", "cubic", "--n-total", "200", "--score", "kendall",
                 "--bandwidth", "0.08", "--lambda", "0.02"])
    out = capsys.readouterr().out
    assert code == 0
    assert "synth-cubic-n200-noise0.3" in out
    assert "non-private decision: x->y" in out


def test_infer_private_test_release(capsys):
    code = main(
        ["infer", "--synthetic", "cubic", "--n-total", "200", "--score", "kendall",
         "--epsilon", "1.0", "--target", "test"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "budget:" in out
    assert "private[test]" in out


def test_infer_iqr_abstains_with_exit_code_two(capsys):
    code = main(
        ["infer", "--synthetic", "cubic", "--n-total", "200", "--score", "iqr",
         "--epsilon", "1.0", "--target", "test"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "abstain" in out


def test_infer_prints_the_composed_test_iqr_budget(capsys):
    # four (e0, delta) log-IQR releases, e0 = 1 / (2 sqrt(6 ln 1e6))
    code = main(
        ["infer", "--synthetic", "cubic", "--n-total", "200", "--score", "iqr",
         "--epsilon", "1.0", "--delta", "0.01", "--delta-prime", "1e-6", "--target", "test"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "budget: (0.21967, 0.04)" in out


@pytest.mark.parametrize(
    "score, delta, target", [("iqr", "0.3", "test"), ("kendall", "0.5", "train")]
)
def test_infer_refuses_a_composed_delta_of_one_or_more(score, delta, target, capsys):
    # four (e0, 0.3) test-side log-IQR releases compose to delta 1.2, and
    # two (e, 0.5) train-side rank gates to delta 1: no guarantee at all
    code = main(
        ["infer", "--synthetic", "cubic", "--n-total", "200", "--bandwidth", "0.08",
         "--lambda", "0.5", "--score", score, "--epsilon", "1", "--delta", delta,
         "--target", target, "--seed", "11"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "budget:" not in captured.out
    assert "delta" in captured.err


def test_infer_reads_pairs_files(tmp_path, capsys):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 120)
    y = np.clip(x**3 + 0.2 * rng.uniform(-1, 1, 120), -1, 1)
    write_pairs_file(SamplePairs(x, y, id="demo", ground_truth="x->y"), tmp_path / "demo.txt")
    code = main(["infer", "--pairs-dir", str(tmp_path), "--score", "spearman"])
    out = capsys.readouterr().out
    assert code == 0
    assert "demo" in out


def test_sweep_report_written_into_the_pairs_dir_is_not_read_back(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, 120)
    y = np.clip(x**3 + 0.2 * rng.uniform(-1, 1, 120), -1, 1)
    write_pairs_file(SamplePairs(x, y, id="demo", ground_truth="x->y"), tmp_path / "demo.txt")
    args = ["sweep", "--pairs-dir", str(tmp_path), "--score", "kendall", "--epsilon", "1",
            "--trials", "3", "--out"]
    report = tmp_path / "rows.csv"
    runs = []
    for out in (str(report), str(report)):
        assert main(args + [out]) == 0
        assert capsys.readouterr().err == ""
        runs.append(report.read_bytes())
    # the same file named by a relative path is skipped as well
    monkeypatch.chdir(tmp_path)
    assert main(args + ["./rows.csv"]) == 0
    assert capsys.readouterr().err == ""
    runs.append(report.read_bytes())
    assert runs[0] == runs[1] == runs[2]
    assert len(runs[0].decode().splitlines()) == 1 + 4


def test_missing_data_sources_fail_cleanly(capsys):
    code = main(["infer", "--pairs-dir", "/nonexistent", "--score", "kendall"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")


def test_sweep_deterministic_bytes(tmp_path, capsys):
    args = ["sweep", "--synthetic", "cubic", "--n-total", "60", "--score", "kendall,hsic",
            "--epsilon", "0.5,2.0", "--trials", "2", "--seed", "5", "--bandwidth", "0.08",
            "--lambda", "0.02"]
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert main(args + ["--out", str(one)]) == 0
    assert main(args + ["--out", str(two), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert one.read_bytes() == two.read_bytes()
    lines = one.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # 2 scores x 2 epsilons x (2 trials + aggregate)
    assert len(lines) == 1 + 12


def test_sweep_all_abstain_exit_code(tmp_path):
    code = main(
        ["sweep", "--synthetic", "cubic", "--n-total", "60", "--score", "iqr",
         "--epsilon", "1.0", "--trials", "2", "--target", "test",
         "--out", str(tmp_path / "abstain.csv")]
    )
    assert code == 2


def test_sweep_counts_failed_trials_and_fails_when_all_do(tmp_path, capsys):
    flat = tmp_path / "flat"
    flat.mkdir()
    y = np.linspace(-1, 1, 60)
    write_pairs_file(SamplePairs(np.zeros(60), y, id="flat"), flat / "flat.txt")
    args = ["sweep", "--score", "kendall", "--trials", "3"]
    assert main(args + ["--pairs-dir", str(flat)]) == 1
    captured = capsys.readouterr()
    rows = captured.out.splitlines()
    assert rows[0] == CSV_HEADER
    assert [r.split(",")[5] for r in rows[1:]] == ["error"] * 3 + ["aggregate"]
    site = "  DegenerateDataError in data_io.normalize: 3\n"
    assert captured.err == "3 of 3 trials raised an error\n" + site

    # one good file alongside: the sweep succeeds and still counts the failures
    write_pairs_file(SamplePairs(y, y**3, id="good"), flat / "good.txt")
    assert main(args + ["--pairs-dir", str(flat), "--out", str(tmp_path / "mixed.csv")]) == 0
    assert capsys.readouterr().err == "3 of 6 trials raised an error\n" + site


def test_sweep_error_summary_names_the_class_not_the_message(tmp_path, capsys):
    # normalize's message ("coordinate x is constant") stays off stderr,
    # and the summary is the same for any worker count
    data = tmp_path / "data"
    data.mkdir()
    y = np.linspace(-1, 1, 60)
    write_pairs_file(SamplePairs(np.zeros(60), y, id="flat"), data / "flat.txt")
    args = ["sweep", "--pairs-dir", str(data), "--score", "kendall", "--epsilon", "1",
            "--trials", "3", "--out", str(tmp_path / "rows.csv")]
    errs = []
    for jobs in ("1", "2"):
        assert main(args + ["--jobs", jobs]) == 1
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert "DegenerateDataError in data_io.normalize" in errs[0]
    assert "constant" not in errs[0]


def test_private_report_hides_raw_samples(tmp_path, capsys):
    rng = np.random.default_rng(9)
    x = np.round(rng.uniform(-1, 1, 80), 7)
    x[0] = 0.7321415  # distinctive marker value
    y = np.clip(np.tanh(3 * x) + 0.2 * rng.uniform(-1, 1, 80), -1, 1)
    write_pairs_file(SamplePairs(x, y, id="secret"), tmp_path / "secret.txt")
    out_file = tmp_path / "rows.csv"
    code = main(
        ["sweep", "--pairs-dir", str(tmp_path), "--score", "kendall", "--epsilon", "1.0",
         "--trials", "2", "--out", str(out_file)]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    for text in (out_file.read_text(), stdout):
        assert "0.7321415" not in text


def test_verify_utility_command(capsys):
    code = main(["verify-utility", "--gamma", "0.1", "--sigma", "0.1", "--draws", "100000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass" in out
    assert main(["verify-utility", "--draws", "100"]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_sensitivity_command(capsys):
    code = main(
        ["verify-sensitivity", "--m-grid", "10", "--instances", "4", "--grid-points", "9"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "ratio" in out


def test_json_format(tmp_path):
    out = tmp_path / "rows.json"
    code = main(
        ["sweep", "--synthetic", "sigmoid", "--n-total", "60", "--score", "spearman",
         "--trials", "1", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().lstrip().startswith("[")
