"""Measurement for the privcause benchmark; ``run.py`` is its command line.

An untraced run (``trace=0``) measures the end-to-end metrics:
- ``setup_s``: median over fresh interpreters of the time to import
  ``privcause.cli``; a ``privcause infer`` call costs about
  ``setup_s`` plus one decision;
- ``trials_per_s``, ``decision_ms_p50``, ``decision_ms_p90``: a closed
  loop with one client, each operation one single-trial ``run_sweep``
  plus ``emit_report``, for at least ``seconds`` and MIN_DECISIONS;
- ``peak_rss_mb``: peak resident set of this process plus, when the
  workload runs a pool, ``jobs`` times the largest worker's.

On ``sweep-parallel`` the 160-trial grid goes through the pool at
``jobs=nproc`` in the output check of every run; its throughput is
printed as ``pool_trials_per_s`` but not gated, because each worker
inherits a multithreaded OpenBLAS and the oversubscription makes it
vary several-fold from run to run.  The gated figures of that workload
come from single both-target decisions over the grid's cells.

A traced run (``trace=1``) passes the workload's fixed sweep list once
untraced and once under :class:`tracing.Tracer`, at ``jobs=1`` (and,
on ``sweep-parallel``, once through the pool for
``experiments.parallel_speedup``), and reports the per-layer metrics.

Every run first regenerates the workload's reference report at
``DEFAULT_SEED`` (``sweep-parallel`` through the pool at ``jobs=nproc``)
and compares it with the committed one.  A mismatch, an error row or an
inconsistent row is a failure; any failure makes the run incorrect.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from privcause import experiments
from tracing import Tracer, layer_metrics
from workloads import REFERENCE_DIR, WORKLOADS, Workload, report_mismatches, row_problems

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
MIN_DECISIONS = 100  # so that at least ten decisions lie beyond p90
SETUP_SPAWNS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = "import time; t = time.perf_counter(); import privcause.cli; print(time.perf_counter() - t)"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _blas(config) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def machine_facts() -> dict:
    """Recorded as found; the benchmark sets none of them."""
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


@dataclass
class Outcome:
    """Trials a run attempted, the problems found, and the trial rows of
    its timed loop."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    rows: list = field(default_factory=list)

    def add_rows(self, rows) -> list:
        trial_rows = [r for r in rows if r.seed != "all"]
        self.attempted += len(trial_rows)
        for row in trial_rows:
            self.failures += [f"{row.dataset} seed {row.seed}: {p}" for p in row_problems(row)]
        return trial_rows


def run_configs(configs, jobs: int = 1) -> tuple[float, list]:
    """Run each config as one sweep and emit its report; return the wall
    time and all rows."""
    rows = []
    start = time.perf_counter()
    for config in configs:
        out = experiments.run_sweep(config, jobs=jobs)
        experiments.emit_report(out)
        rows += out
    return time.perf_counter() - start, rows


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.csv"


def record_reference(workload: Workload, workdir: Path) -> Path:
    _, rows = run_configs(workload.check_sweeps(workdir), jobs=1)
    path = reference_path(workload)
    experiments.emit_report(rows, path=path)
    return path


def check_reference(workload: Workload, workdir: Path, outcome: Outcome) -> float:
    """Regenerate the reference report and compare; return its wall time."""
    jobs = nproc() if workload.pool else 1
    elapsed, rows = run_configs(workload.check_sweeps(workdir), jobs=jobs)
    outcome.add_rows(rows)
    want = reference_path(workload).read_text()
    outcome.failures += [f"reference {p}" for p in report_mismatches(experiments.emit_report(rows), want)]
    return elapsed


def closed_loop(workload: Workload, seed: int, seconds: float, workdir: Path, outcome: Outcome) -> tuple[list, float]:
    latencies = []
    start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds
        or len(latencies) < MIN_DECISIONS
        or len(latencies) % workload.cycle
    ):
        config = workload.decision(seed, len(latencies), workdir)
        t0 = time.perf_counter()
        rows = experiments.run_sweep(config)
        experiments.emit_report(rows)
        latencies.append(time.perf_counter() - t0)
        outcome.rows += outcome.add_rows(rows)
    return latencies, time.perf_counter() - start


def measure_setup(spawns: int = SETUP_SPAWNS) -> float:
    """Median import time of privcause.cli over fresh interpreters, after one
    unmeasured spawn that fills the file cache and bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for k in range(spawns + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        if k:
            times.append(float(done.stdout))
    return statistics.median(times)


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced_run(workload: Workload, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict, Outcome]:
    outcome = Outcome()
    check_s = check_reference(workload, workdir, outcome)
    check_trials = outcome.attempted
    workers_mb = nproc() * _rss_mb(resource.RUSAGE_CHILDREN) if workload.pool else 0.0
    latencies, elapsed = closed_loop(workload, seed, seconds, workdir, outcome)
    peak_mb = _rss_mb(resource.RUSAGE_SELF) + workers_mb
    setup_s = measure_setup()
    ms = [1e3 * t for t in latencies]
    metrics = {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (len(latencies) / elapsed, "1/s"),
        "decision_ms_p50": (statistics.median(ms), "ms"),
        "decision_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    trials = len(outcome.rows)
    extra = {
        "decisions": (trials, "count"),
        "error_rate": (len(outcome.failures) / outcome.attempted, "ratio"),
        "correct_rate": (sum(r.correct is True for r in outcome.rows) / trials, "ratio"),
        "abstain_rate": (sum(r.abstained is True for r in outcome.rows) / trials, "ratio"),
    }
    if workload.pool:
        extra["pool_trials_per_s"] = (check_trials / check_s, "1/s")
        extra["pool_jobs"] = (nproc(), "count")
    return metrics, extra, outcome


def unit_of(name: str) -> str:
    if name.endswith("ms_per_trial"):
        return "ms/trial"
    if name.endswith("ms"):
        return "ms"
    if name.endswith("trials_per_s"):
        return "1/s"
    if name.endswith("_per_trial"):
        return "count/trial"
    return "ratio"


def traced_run(workload: Workload, seed: int, workdir: Path) -> tuple[dict, dict, Outcome]:
    outcome = Outcome()
    check_reference(workload, workdir, outcome)
    configs = workload.traced_sweeps(seed, workdir)
    plain_s, plain_rows = run_configs(configs)
    with Tracer() as tracer:
        traced_s, traced_rows = run_configs(configs)
    plain_report = experiments.emit_report(plain_rows)
    compared = [("traced", traced_rows)]
    speedup = 0.0  # workloads without a pool
    if workload.pool:
        pool_s, pool_rows = run_configs(configs, jobs=nproc())
        compared.append(("pool", pool_rows))
        speedup = plain_s / pool_s
    trials = len(outcome.add_rows(plain_rows))
    for label, rows in compared:
        outcome.add_rows(rows)
        mismatches = report_mismatches(experiments.emit_report(rows), plain_report)
        outcome.failures += [f"{label} vs untraced {p}" for p in mismatches]
    tracer.write_spans(workdir / f"spans-{workload.name}-seed{seed}.jsonl")

    values = layer_metrics(tracer, trials)
    values["experiments.parallel_speedup"] = speedup
    values["tracing.overhead_trials_per_s"] = trials / plain_s - trials / traced_s
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    extra = {"traced_trials": (trials, "count"), "spans": (len(tracer.spans), "count")}
    extra.update({f"count.{k}": (v, "count") for k, v in sorted(tracer.counts.items())})
    return metrics, extra, outcome


def cpu_ticks() -> list[int] | None:
    """Machine-wide CPU time counters (user ... steal), or None off Linux."""
    try:
        return [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    ticks = cpu_ticks()
    if trace:
        metrics, extra, outcome = traced_run(workload, seed, OUT)
    else:
        metrics, extra, outcome = untraced_run(workload, seed, seconds, OUT)
    extra["cpu_steal_share"] = (steal_share(ticks, cpu_ticks()), "ratio")
    facts = machine_facts()
    correct = not outcome.failures
    for problem in outcome.failures[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {workload_name} seed {seed} trace {int(trace)}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<46} {value if value is not None else float('nan'):>14.6g} {unit}")
    print("machine " + json.dumps(facts, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=workload_name, seed=seed, trace=int(trace), machine=facts,
                  extra={name: value for name, (value, _) in extra.items()})
    (OUT / f"result-{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1
