"""Command-line entry points: exit codes, report bytes, output hygiene."""
import argparse
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from oracles import count_calls
from privcause import experiments, inference
from privcause.cli import _build_parser, main
from privcause.data_io import SYNTH_SHAPES, SamplePairs, write_pairs_file
from privcause.experiments import CSV_HEADER, ExperimentConfig
from privcause.inference import TARGET_SIDES
from privcause.scores import ScoreKind

SHARED_OPTIONS = {
    "--lambda", "--delta", "--target", "--seed", "--bandwidth",
    "--pairs-dir", "--synthetic", "--n-total", "--noise-level", "--test-fraction",
    "--format", "--out", "--score", "--epsilon",
}


@pytest.fixture
def fits(monkeypatch):
    """The count of fit_krr calls that inference makes during the test."""
    return count_calls(monkeypatch, inference, "fit_krr")


def test_option_surface_is_pinned():
    # adding or removing a knob is a deliberate edit of this list
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {opt for a in sub.choices[name]._actions if a.dest != "help" for opt in a.option_strings}
        for name in ("infer", "sweep")
    }
    assert options == {"infer": SHARED_OPTIONS, "sweep": SHARED_OPTIONS | {"--trials", "--jobs"}}
    assert [f.name for f in fields(ExperimentConfig)] == [
        "datasets", "scores", "epsilons", "lams", "delta", "target",
        "trials", "master_seed", "reg_bandwidth", "test_fraction",
    ]


def test_target_and_shape_choices_are_the_package_constants():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name in ("infer", "sweep"):
        choices = {a.dest: a.choices for a in sub.choices[name]._actions}
        assert list(choices["target"]) == list(TARGET_SIDES)
        assert list(choices["synthetic"]) == list(SYNTH_SHAPES)


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


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_private_infer_example_prints_what_it_shows(capsys):
    # the command README.md runs with --epsilon, and the block it shows
    # that command printing, read from README.md itself
    text = README.read_text()
    command = next(
        line for line in text.splitlines() if line.startswith("privcause infer ") and "--epsilon" in line
    )
    shown = text.split("which prints, for the private variant:\n\n```\n", 1)[1].split("```", 1)[0]
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == shown


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
         "--epsilon", "1.0", "--delta", "0.01", "--target", "test"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "budget: (0.21967, 0.04)" in out


def test_infer_test_iqr_takes_an_epsilon_above_one(capsys):
    # the fixed share e0 = e / 18.21 has no upper limit on e
    code = main(
        ["infer", "--synthetic", "cubic", "--n-total", "200", "--score", "iqr",
         "--epsilon", "2", "--delta", "0.01", "--target", "test"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "budget: (0.43934, 0.04)" in out


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


@pytest.mark.parametrize(
    "files, message",
    [
        (None, "give --pairs-dir and/or --synthetic"),
        (0, "no pairs files in"),
        (2, "infer wants exactly one dataset"),
    ],
    ids=["no-source", "empty-dir", "two-files"],
)
def test_infer_needs_exactly_one_dataset(files, message, tmp_path, capsys):
    args = ["infer", "--score", "kendall"]
    if files is not None:
        y = np.linspace(-1, 1, 40)
        for i in range(files):
            write_pairs_file(SamplePairs(y, y**3, id=f"pair{i}"), tmp_path / f"pair{i}.txt")
        args += ["--pairs-dir", str(tmp_path)]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_infer_refuses_a_lambda_grid(capsys, fits):
    code = main(["infer", "--synthetic", "cubic", "--n-total", "200", "--lambda", "0.02,0.5"])
    assert code == 1
    assert fits == {"fit_krr": 0}
    assert capsys.readouterr().err == "error: infer wants exactly one lambda\n"


BANDWIDTH_RULE = (
    "kernel bandwidth must be positive and finite, and twice its square must neither underflow to 0 "
    "nor overflow"
)


@pytest.mark.parametrize(
    "options, message",
    [
        (["--epsilon", "1,0"], "epsilon must be positive, got 0.0"),
        (["--epsilon", "1", "--delta", "1"], "delta must lie in [0, 1), got 1.0"),
        (["--bandwidth", "-1"], f"{BANDWIDTH_RULE}, got -1.0"),
        (["--score", "kendall", "--bandwidth", "1e-200"], f"{BANDWIDTH_RULE}, got 1e-200"),
        (["--score", "kendall", "--bandwidth", "1e200"], f"{BANDWIDTH_RULE}, got 1e+200"),
        (["--score", "kendall", "--lambda", "0.02,0"], "lam must lie in (0, 1], got 0.0"),
        (["--score", "kendall", "--lambda", "1.5"], "lam must lie in (0, 1], got 1.5"),
        (["--score", "kendall", "--n-total", "5"], "need at least 8 samples of synthetic data"),
        (["--score", "kendall", "--noise-level", "-1"], "noise_level must be nonnegative"),
        (["--score", "kendall", "--n-total", "8", "--test-fraction", "0.1"],
         "split too small: train=7, test=1 (need n >= 1, m >= 4)"),
    ],
    ids=["epsilon-0", "delta-1", "negative-bandwidth", "underflowing-bandwidth", "overflowing-bandwidth",
         "lambda-grid-with-0",
         "lambda-1.5", "n-total-5", "negative-noise", "split-too-small"],
)
def test_sweep_refuses_a_bad_budget_or_bandwidth_before_any_trial(options, message, capsys, fits, monkeypatch):
    # one message and exit 1, not one error row per trial with the reason
    # hidden, and no data drawn first
    draws = count_calls(monkeypatch, experiments, "synth_anm")
    code = main(["sweep", "--synthetic", "cubic", "--n-total", "200", "--trials", "2", *options])
    assert code == 1
    assert fits == {"fit_krr": 0}
    assert draws == {"synth_anm": 0}
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


@pytest.mark.parametrize("jobs", ["0", "-5", "two"])
def test_sweep_rejects_jobs_below_one_as_usage_error(jobs, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--synthetic", "cubic", "--n-total", "60", "--score", "kendall", "--jobs", jobs])
    assert exit_info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-1", "two"])
def test_sweep_rejects_trials_below_one_as_usage_error(trials, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--synthetic", "cubic", "--n-total", "60", "--score", "kendall", "--trials", trials])
    assert exit_info.value.code == 2
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("verify-sensitivity", "--instances", "0"),
        ("verify-sensitivity", "--grid-points", "-1"),
        ("verify-sensitivity", "--m-grid", ""),
        ("verify-sensitivity", "--m-grid", ","),
        ("verify-utility", "--draws", "0"),
        ("verify-utility", "--gamma", ""),
        ("verify-utility", "--sigma", " , "),
        ("sweep", "--epsilon", ""),
        ("sweep", "--score", "kendall,tau"),
    ],
)
def test_empty_or_nonpositive_checks_are_usage_errors(command, option, value, capsys):
    # none of these may pass by checking nothing, or fail on an index
    with pytest.raises(SystemExit) as exit_info:
        main([command, option, value])
    assert exit_info.value.code == 2
    assert option in capsys.readouterr().err


def test_score_lists_strip_each_name_and_name_the_scores(capsys):
    args = _build_parser().parse_args(["sweep", "--score", " kendall , hsic,"])
    assert args.score == (ScoreKind.KENDALL_TAU, ScoreKind.HSIC)
    with pytest.raises(SystemExit):
        main(["sweep", "--score", "pearson"])
    err = capsys.readouterr().err
    assert all(repr(kind.value) in err for kind in ScoreKind)


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


def test_sweep_refuses_iqr_at_both_before_any_fit(tmp_path, capsys, fits):
    # the refusal reads the config alone, so no trial is fitted first
    out = tmp_path / "rows.csv"
    code = main(
        ["sweep", "--synthetic", "cubic", "--n-total", "1000", "--score", "iqr", "--epsilon", "1",
         "--target", "both", "--trials", "3", "--out", str(out)]
    )
    assert code == 1
    assert fits == {"fit_krr": 0}
    rows = out.read_text().splitlines()
    assert [r.split(",")[5] for r in rows[1:]] == ["error"] * 3 + ["aggregate"]
    site = "  UnsupportedScoreError in inference.refuse_vacuous_delta: 3\n"
    assert capsys.readouterr().err == "3 of 3 trials raised an error\n" + site


@pytest.mark.parametrize(
    "command, site",
    [
        (["sweep", "--score", "kendall", "--target", "train", "--trials", "3"],
         "ValueError in inference.refuse_vacuous_delta"),
        (["infer", "--score", "iqr"], None),
    ],
    ids=["sweep-kendall-train", "infer-iqr-test"],
)
def test_a_gated_release_at_delta_zero_is_refused_before_any_fit(command, site, capsys, fits):
    # a propose-test-release gate cannot run at delta 0, and the config
    # alone says so, so no trial is fitted first
    code = main(command + ["--synthetic", "cubic", "--n-total", "200", "--epsilon", "1", "--delta", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert fits == {"fit_krr": 0}
    if site is None:
        assert "runs a propose-test-release gate, which requires delta > 0" in captured.err
    else:
        assert captured.err == f"3 of 3 trials raised an error\n  {site}: 3\n"


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


def test_verify_output_is_pinned(capsys):
    utility = (
        "formula,gamma,sigma,closed_form,monte_carlo,abs_gap,tolerance,pass\n"
        "two-score,0.1,0.5,0.549698,0.55168,0.00198191,0.00471993,true\n"
        "four-score,0.1,0.5,0.531208,0.53443,0.00322158,0.00473417,true\n"
        "utility verification: pass\n"
    )
    sensitivity = (
        "check,size,lambda,empirical_max,bound,ratio,pass\n"
        "spearman-test,6,,0.685714,5,0.137143,true\n"
        "kendall-test,6,,0.666667,0.666667,1,true\n"
        "hsic-test,6,,0.0991994,2.44,0.0406555,true\n"
        "krr-residual,100,0.25,0.0281495,0.64,0.0439836,true\n"
        "krr-residual,100,0.5,0.0232179,0.226274,0.102609,true\n"
        "krr-residual,100,1,0.0136982,0.08,0.171228,true\n"
        "sensitivity verification: pass\n"
    )
    assert main(["verify-utility", "--gamma", "0.1", "--sigma", "0.5", "--draws", "100000"]) == 0
    assert capsys.readouterr().out == utility
    assert main(["verify-sensitivity", "--m-grid", "6", "--instances", "2", "--grid-points", "5"]) == 0
    assert capsys.readouterr().out == sensitivity


def test_infer_writes_its_row_to_out(tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = main(["infer", "--synthetic", "cubic", "--n-total", "200", "--score", "kendall",
                 "--epsilon", "1", "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    header, row = out.read_text().splitlines()
    assert header == CSV_HEADER
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["dataset"] == "synth-cubic-n200-noise0.3" and cells["score"] == "kendall"
    assert f"private[test] decision: {cells['decision']} " in printed


def test_json_format(tmp_path):
    out = tmp_path / "rows.json"
    code = main(
        ["sweep", "--synthetic", "sigmoid", "--n-total", "60", "--score", "spearman",
         "--trials", "1", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().lstrip().startswith("[")
