"""Sweep harness: deterministic rows, aggregation, and report formats."""
import csv
import io
import json

import numpy as np
import pytest

from oracles import count_calls, posv_sizes
from privcause import data_io, experiments, inference, privacy
from privcause.data_io import SamplePairs, synth_anm, write_pairs_file
from privcause.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    FileSpec,
    ResultRow,
    SyntheticSpec,
    emit_report,
    run_sweep,
    run_trial,
    trial_seed,
    verify_sensitivity_table,
    verify_utility_table,
)
from privcause.scores import KernelSpec, ScoreKind, UnsupportedScoreError

CUBIC_60 = SyntheticSpec("cubic", n_total=60, noise_level=0.3)


def small_config(**overrides):
    base = dict(
        datasets=(CUBIC_60,),
        scores=(ScoreKind.KENDALL_TAU,),
        epsilons=(1.0,),
        lams=(0.02,),
        trials=3,
        master_seed=0,
        reg_bandwidth=0.08,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_trial_seed_is_frozen_hash():
    # pinned so a numpy or platform change cannot silently reshuffle sweeps
    assert trial_seed(0, "synth-cubic-n60-noise0.3", "kendall", 0, 0, 0) == 2380687727715144004
    assert trial_seed(0, "synth-cubic-n60-noise0.3", "kendall", 0, 0, 1) == 7392300050830174483
    assert trial_seed(3, "demo", "hsic", 1, 2, 7) == 3521598304871111232
    assert trial_seed(3, "demo", "hsic", 1, 2, 7) < 2**63


def test_sweep_rows_are_deterministic_and_ordered():
    config = small_config()
    rows = run_sweep(config)
    again = run_sweep(config)
    assert rows == again
    assert len(rows) == 4  # 3 trials + 1 aggregate
    assert [r.seed for r in rows[:3]] == [
        trial_seed(0, CUBIC_60.label, "kendall", 0, 0, t) for t in range(3)
    ]
    tail = rows[3]
    assert tail.seed == "all" and tail.decision == "aggregate"


def test_parallel_sweep_matches_sequential():
    config = small_config(trials=6, scores=(ScoreKind.KENDALL_TAU, ScoreKind.HSIC))
    sequential = run_sweep(config, jobs=1)
    parallel = run_sweep(config, jobs=3)
    assert emit_report(sequential) == emit_report(parallel)


def test_sweep_workers_are_capped_by_cpu_affinity(monkeypatch):
    # one usable CPU runs the sweep in this process, whatever jobs asks
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started on one usable CPU")

    monkeypatch.setattr(experiments, "Pool", no_pool)
    config = small_config(trials=2)
    assert run_sweep(config, jobs=4) == run_sweep(config, jobs=1)


def test_a_one_task_sweep_starts_no_pool(monkeypatch):
    # a second worker would have no task to run
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for one task")

    config = small_config(trials=1)
    alone = run_sweep(config, jobs=1)
    monkeypatch.setattr(experiments, "Pool", no_pool)
    assert run_sweep(config, jobs=2) == alone


@pytest.mark.parametrize("jobs", [0, -5])
def test_sweep_rejects_fewer_than_one_job(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_sweep(small_config(), jobs=jobs)


@pytest.mark.parametrize("target", ["test", "train", "both"])
def test_one_fit_per_direction_per_trial(target, monkeypatch):
    calls = count_calls(monkeypatch, inference, "fit_krr")
    config = small_config(scores=(ScoreKind.HSIC,), lams=(0.5,), target=target)
    row, _, private = run_trial(config, 0, 0, 0, 0, 0)
    assert row.decision != "error"
    assert set(private) == ({"test", "train"} if target == "both" else {target})
    assert calls == {"fit_krr": 2}


@pytest.mark.parametrize(
    "target, epsilons, low_rank",
    [("train", (1.0,), False), ("both", (1.0,), False), ("test", (1.0,), True), ("test", (), True)],
)
def test_fits_are_low_rank_only_where_no_training_release_reads_them(target, epsilons, low_rank, monkeypatch):
    # n = 550 training pairs, enough for the landmark route at the
    # config's bandwidth: its landmarks pass the rank cap for n
    n = 550
    calls = count_calls(monkeypatch, inference, "fit_krr")
    sizes = posv_sizes(monkeypatch)
    config = small_config(
        datasets=(SyntheticSpec("cubic", n_total=2 * n),), epsilons=epsilons, target=target, trials=1
    )
    landmarks = KernelSpec(config.reg_bandwidth).landmarks(1.0, n)
    assert landmarks is not None
    rows = run_sweep(config)
    assert rows[0].decision != "error"
    assert calls == {"fit_krr": 2}
    if low_rank:
        assert sizes == [landmarks[0].size] * 2
    else:
        assert sizes == [n, n]
    assert run_trial(config, 0, 0, 0, 0, 0)[1].target == (target if epsilons else None)


def test_a_test_target_iqr_decision_solves_only_landmark_systems(monkeypatch):
    # n_total 1000 at bandwidth 0.08, the size of the benchmark's file
    # decisions: both fits solve the r x r landmark system, never the
    # exact 500 x 500 one
    sizes = posv_sizes(monkeypatch)
    config = small_config(
        datasets=(SyntheticSpec("cubic", n_total=1000),), scores=(ScoreKind.IQR,), target="test", trials=1
    )
    rows = run_sweep(config)
    assert rows[0].decision != "error"
    rank = KernelSpec(config.reg_bandwidth).landmarks(1.0, 500)[0].size
    assert sizes == [rank, rank]


@pytest.mark.parametrize("delta", [0.01, 0.3])
def test_both_target_refuses_iqr_before_any_release(delta, monkeypatch):
    # the training-side IQR release adds the exact ln IQR(x') and ln IQR(y'),
    # which a test substitution moves with no noise to cover them; the
    # config alone gives the refusal, so no attack count runs and nothing
    # is drawn, whatever the delta
    calls = count_calls(
        monkeypatch, privacy, "iqr_attack_count", "iqr_train_attack_count", "laplace_sample"
    )
    config = small_config(
        datasets=(SyntheticSpec("cubic", n_total=200),),
        scores=(ScoreKind.IQR,),
        delta=delta,
        target="both",
    )
    with pytest.raises(UnsupportedScoreError, match="target both"):
        run_trial(config, 0, 0, 0, 0, 0)
    rows = run_sweep(config)
    assert [r.decision for r in rows[:3]] == ["error"] * 3
    assert {r.error for r in rows[:3]} == {"UnsupportedScoreError in inference.refuse_vacuous_delta"}
    assert calls == dict.fromkeys(calls, 0)


@pytest.mark.parametrize(
    "score, target, delta, site",
    [
        (ScoreKind.KENDALL_TAU, "train", 0.0, "ValueError in inference.refuse_vacuous_delta"),
        (ScoreKind.IQR, "both", 0.01, "UnsupportedScoreError in inference.refuse_vacuous_delta"),
    ],
    ids=["kendall-train-delta-0", "iqr-both"],
)
def test_a_refused_sweep_reads_no_data(score, target, delta, site, tmp_path, monkeypatch):
    # the refusal depends on the config alone, so no trial generates or
    # parses its data first
    y = np.linspace(-1, 1, 40)
    write_pairs_file(SamplePairs(y, y**3, id="pair"), tmp_path / "pair.txt")
    reads = count_calls(monkeypatch, experiments, "synth_anm", "load_pairs_file")
    config = small_config(
        datasets=(CUBIC_60, FileSpec(str(tmp_path / "pair.txt"))),
        scores=(score,),
        epsilons=(0.5, 1.0),
        trials=5,
        target=target,
        delta=delta,
    )
    trial_rows = [r for r in run_sweep(config) if r.seed != "all"]
    assert len(trial_rows) == 20
    assert {(r.decision, r.error) for r in trial_rows} == {("error", site)}
    assert reads == {"synth_anm": 0, "load_pairs_file": 0}


def test_a_sweep_parses_each_pairs_file_once(tmp_path, monkeypatch):
    # 5 trials at 2 epsilons parse one 200-line file once, not 10 times,
    # and each trial's row is the one it gives when it loads the file alone
    x = np.linspace(-1, 1, 200)
    write_pairs_file(SamplePairs(x, x**3 + 0.1 * np.sin(7 * x), id="pair"), tmp_path / "pair.txt")
    config = small_config(datasets=(FileSpec(str(tmp_path / "pair.txt")),), epsilons=(0.5, 1.0), trials=5)
    parses = count_calls(monkeypatch, data_io, "SamplePairs")
    rows = run_sweep(config)
    assert parses == {"SamplePairs": 1}
    alone = [run_trial(config, 0, 0, e, 0, t)[0] for e in range(2) for t in range(5)]
    assert [r for r in rows if r.seed != "all"] == alone
    # a second sweep in the process does not parse it again
    parses["SamplePairs"] = 0
    assert run_sweep(config) == rows
    assert parses == {"SamplePairs": 0}
    assert run_sweep(config, jobs=2) == rows
    # a file that fails to load fails each of its trials at the same stage,
    # and the other file still runs
    (tmp_path / "bad.txt").write_text("0.1 0.2\n0.3\n")
    config = small_config(datasets=(FileSpec(str(tmp_path / "bad.txt")), config.datasets[0]), trials=2)
    trial_rows = [r for r in run_sweep(config) if r.seed != "all"]
    assert [r.error for r in trial_rows] == ["ValueError in data_io.load_pairs_file"] * 2 + [None] * 2
    assert all(r.decision != "error" for r in trial_rows[2:])


def test_test_side_iqr_decision_counts_each_vector_once(monkeypatch):
    # one call per held-out vector (x, y and both residuals), each counting
    # both log bins, made through the module attribute that tracing wraps
    calls = count_calls(monkeypatch, privacy, "iqr_attack_count")
    config = small_config(datasets=(SyntheticSpec("cubic", n_total=200),), scores=(ScoreKind.IQR,))
    row, _, private = run_trial(config, 0, 0, 0, 0, 0)
    assert row.decision != "error" and set(private) == {"test"}
    assert calls == {"iqr_attack_count": 4}


def test_test_side_iqr_sweep_shrink_scan_work(tmp_path, monkeypatch):
    """The pairs that _min_iqr_after evaluates over a fixed 6-trial sweep,
    on cubic data and on a tied pairs file.  Counting each bin with its
    own sort and its own shrink scan to the exact count took 75,222."""
    drawn = synth_anm("sigmoid", 500, 0.3, 11)
    tied = SamplePairs(np.round(drawn.x, 2), np.round(drawn.y, 2), id="ties", ground_truth=drawn.ground_truth)
    write_pairs_file(tied, tmp_path / "ties.pairs")
    pairs = []
    original = privacy._min_iqr_after

    def counted(padded, k1, k2):
        pairs.append(k1.size)
        return original(padded, k1, k2)

    monkeypatch.setattr(privacy, "_min_iqr_after", counted)
    config = small_config(
        datasets=(SyntheticSpec("cubic", n_total=500), FileSpec(str(tmp_path / "ties.pairs"))),
        scores=(ScoreKind.IQR,),
    )
    rows = run_sweep(config)
    assert [r.decision != "error" for r in rows if r.seed != "all"] == [True] * 6
    assert sum(pairs) <= 0.55 * 75_222


def test_aggregate_row_averages_trials():
    rows = run_sweep(small_config(trials=5))
    trials, agg = rows[:5], rows[5]
    assert agg.correct == pytest.approx(np.mean([float(r.correct) for r in trials]))
    assert agg.abstained == pytest.approx(np.mean([float(r.abstained) for r in trials]))
    assert agg.margin == pytest.approx(np.mean([r.margin for r in trials]))


def test_non_private_sweep_rows():
    rows = run_sweep(small_config(epsilons=(), trials=2))
    for row in rows[:2]:
        assert row.epsilon is None
        assert row.sigma is None and row.predicted_utility is None
        assert row.decision in ("x->y", "y->x", "tie")
        assert row.correct in (True, False)


def test_failing_dataset_yields_error_rows():
    config = small_config(datasets=(FileSpec("/nonexistent/void.txt"), CUBIC_60), trials=2)
    rows = run_sweep(config)
    broken, healthy = rows[:3], rows[3:]
    assert all(r.decision == "error" for r in broken[:2])
    assert broken[2].decision == "aggregate" and broken[2].correct is None
    assert healthy[2].decision == "aggregate" and healthy[2].correct is not None


def test_csv_report_format():
    rows = [
        ResultRow("d", "kendall", 1.0, 0.02, 7, "x->y", True, False, 0.123456789012345, None, 0.9),
    ]
    text = emit_report(rows, "csv")
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "d,kendall,1,0.02,7,x->y,true,false,0.123456789012,,0.9"
    assert text.endswith("\n")


def test_csv_report_quotes_a_label_with_a_comma(tmp_path):
    drawn = synth_anm("cubic", 60, 0.3, 4)
    write_pairs_file(drawn, tmp_path / "a,b.txt")
    rows = run_sweep(small_config(datasets=(FileSpec(str(tmp_path / "a,b.txt")),), trials=2))
    text = emit_report(rows, "csv")
    read = list(csv.DictReader(io.StringIO(text)))
    assert [list(r) for r in read] == [CSV_HEADER.split(",")] * len(rows)
    assert [r["dataset"] for r in read] == ["a,b"] * len(rows)
    assert [r["decision"] for r in read] == [row.decision for row in rows]


def test_json_report_round_trip(tmp_path):
    rows = run_sweep(small_config(trials=2))
    out = tmp_path / "rows.json"
    text = emit_report(rows, "json", out)
    assert out.read_text() == text
    payload = json.loads(text)
    assert len(payload) == len(rows)
    assert list(payload[0].keys()) == CSV_HEADER.split(",")
    with pytest.raises(ValueError):
        emit_report(rows, "yaml")
    with pytest.raises(ValueError):
        emit_report([], "csv")


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(datasets=())
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError, match=r"target must be one of \('test', 'train', 'both'\), got 'holdout'"):
        small_config(target="holdout")
    with pytest.raises(ValueError):
        small_config(lams=())
    with pytest.raises(ValueError, match="at least one score kind"):
        small_config(scores=())
    for fraction in (0.0, 1.0):
        with pytest.raises(ValueError, match="test_fraction"):
            small_config(test_fraction=fraction)
    # a synthetic split's sizes follow from the config: 3 of 60 held out,
    # or none of 8 left to train on
    for spec, fraction, sizes in (
        (CUBIC_60, 0.05, "train=57, test=3"),
        (SyntheticSpec("cubic", n_total=8), 0.95, "train=0, test=8"),
    ):
        with pytest.raises(ValueError, match=f"split too small: {sizes}"):
            small_config(datasets=(FileSpec("unread.txt"), spec), test_fraction=fraction)
    # the budget and bandwidth checks of PrivacyParams and KernelSpec
    with pytest.raises(ValueError, match="epsilon must be positive"):
        small_config(epsilons=(1.0, 0.0))
    with pytest.raises(ValueError, match="delta must lie"):
        small_config(delta=1.0)
    with pytest.raises(ValueError, match="kernel bandwidth"):
        small_config(reg_bandwidth=float("nan"))
    # every lambda of the grid, and the synthetic spec, by the rules of
    # regression and data_io, before any trial runs
    for lams in ((0.02, 0.0), (1.5,)):
        with pytest.raises(ValueError, match=r"lam must lie in \(0, 1\]"):
            small_config(lams=lams)
    for spec, message in (
        (dict(shape="spiral"), "unknown shape 'spiral'"),
        (dict(shape="cubic", n_total=5), "need at least 8 samples of synthetic data"),
        (dict(shape="cubic", noise_level=-1.0), "noise_level must be nonnegative and finite"),
        (dict(shape="cubic", noise_level=float("nan")), "noise_level must be nonnegative and finite"),
        (dict(shape="cubic", noise_level=float("inf")), "noise_level must be nonnegative and finite"),
    ):
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(**spec)


def test_verify_utility_table_small_grid():
    rows, ok = verify_utility_table((0.04, 0.1), (0.1,), draws=100_000)
    assert ok and len(rows) == 4
    for row in rows:
        assert row["abs_gap"] <= row["tolerance"]
    with pytest.raises(ValueError):
        verify_utility_table((0.1,), (0.1,), draws=10_000)
    # an empty grid would pass having checked nothing
    for gammas, sigmas in (((), (0.1,)), ((0.1,), ())):
        with pytest.raises(ValueError, match="check nothing"):
            verify_utility_table(gammas, sigmas, draws=100_000)


def test_verify_sensitivity_table_small_grid():
    rows, ok = verify_sensitivity_table((10,), instances=5, grid_points=9)
    assert ok
    score_rows = [r for r in rows if r["check"].endswith("-test")]
    resid_rows = [r for r in rows if r["check"] == "krr-residual"]
    assert len(score_rows) == 3 and len(resid_rows) == 3
    # every row has the same keys, so a table takes its columns from any
    assert all(list(row) == list(rows[0]) for row in rows)
    assert [r["lambda"] for r in score_rows + resid_rows] == [None] * 3 + [0.25, 0.5, 1.0]
    for row in rows:
        assert row["ratio"] <= 1.0
    with pytest.raises(ValueError):
        verify_sensitivity_table((10,), instances=1, grid_points=1)
    with pytest.raises(ValueError, match="at least 1 instance"):
        verify_sensitivity_table((10,), instances=0, grid_points=9)
    # without sizes no score bound is checked, only the residual rows
    with pytest.raises(ValueError, match="m_grid is empty"):
        verify_sensitivity_table((), instances=10, grid_points=5)
