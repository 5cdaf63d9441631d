import sys

import pytest

import harness
import workloads
from tracing import Span, Tracer, self_times


def test_self_time_subtracts_the_merged_child_intervals():
    spans = [
        Span("root", "t", 0.0, 10.0, None, 1),
        Span("a", "t", 1.0, 4.0, 0, 1),
        Span("a.child", "t", 2.0, 3.0, 1, 1),
        Span("b", "t", 3.0, 6.0, 0, 1),  # overlaps a
        Span("c", "t", 9.0, 12.0, 0, 1),  # runs past the root's end
        Span("other", "t", 20.0, 21.5, None, 2),
    ]
    # root: 10 minus the union [1, 6] and [9, 10]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0, 1.5])


def test_self_time_of_sequential_children_is_the_gaps():
    spans = [Span("p", "t", 0.0, 1.0, None, 1)]
    spans += [Span("c", "t", 0.1 * k, 0.1 * k + 0.05, 0, 1) for k in range(10)]
    assert self_times(spans)[0] == pytest.approx(0.5)


def _bindings():
    import privcause.scores

    found = {("KernelSpec", "matrix"): vars(privcause.scores.KernelSpec)["matrix"]}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "privcause":
            found.update({(name, attr): obj for attr, obj in vars(module).items()})
    return found


def test_every_wrapped_name_is_restored(tmp_path):
    before = _bindings()
    config = workloads.sweep_decision(0, 0, tmp_path)
    with Tracer() as tracer:
        wrapped = [key for key, obj in _bindings().items() if obj is not before[key]]
        harness.run_configs([config])
    assert ("privcause.inference", "fit_krr") in wrapped
    assert ("privcause.regression", "fit_krr") in wrapped
    assert ("privcause.experiments", "anm_infer_detailed") in wrapped
    assert ("KernelSpec", "matrix") in wrapped
    assert tracer.spans and all(span.end >= span.start for span in tracer.spans)
    after = _bindings()
    assert [key for key in before if after[key] is not before[key]] == []


def test_names_are_restored_when_the_traced_call_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    after = _bindings()
    assert [key for key in before if after[key] is not before[key]] == []


SMALL_TRACES = {
    "sweep-parallel": lambda seed, workdir: [workloads.sweep_grid(seed, trials=1)],
    "iqr-private": lambda seed, workdir: [workloads.iqr_decision(seed, i, workdir) for i in range(4)],
    "large-n": lambda seed, workdir: [workloads.large_n_decision(seed, i, workdir) for i in range(2)],
}


@pytest.mark.parametrize("name", sorted(SMALL_TRACES))
def test_traced_counts_repeat_exactly(name, tmp_path):
    configs = SMALL_TRACES[name](7, tmp_path)
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            _, rows = harness.run_configs(configs)
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    trials = sum(row.seed != "all" for row in rows)
    anm_calls = counts[0]["inference.anm_infer_detailed.calls"]
    # each inference fits one regressor per direction
    assert counts[0]["regression.fit_krr.calls"] == 2 * anm_calls
    assert anm_calls >= trials


def test_each_trial_of_a_sweep_is_one_trace(tmp_path):
    with Tracer() as tracer:
        harness.run_configs([workloads.sweep_grid(3, trials=1)])
    trials = [span.trace_id for span in tracer.spans if span.name == "data_io.synth_anm"]
    sweep, report = (next(s for s in tracer.spans if s.name == name) for name in ("experiments.run_sweep", "experiments.emit_report"))
    assert len(set(trials)) == len(trials) == 16
    assert sweep.trace_id == trials[0]
    assert report.trace_id not in trials
