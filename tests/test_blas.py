"""Every decision fits and scores on single-threaded BLAS, and gives each
OpenBLAS its thread count back afterwards."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import cubic_split
from privcause import _blas, inference
from privcause.data_io import SamplePairs, SplitData
from privcause.experiments import ExperimentConfig, SyntheticSpec, run_sweep, run_trial
from privcause.inference import anm_infer_detailed
from privcause.scores import KernelSpec, ScoreKind

KERNEL = KernelSpec(0.3)
SRC = Path(__file__).resolve().parents[1] / "src"


def thread_counts():
    return [lib.get_num_threads() for lib in _blas.openblas_libraries()]


@pytest.fixture
def two_threads():
    """Every bundled OpenBLAS at 2 threads for the test, so that a count
    of 1 inside a decision and 2 after it are both telling."""
    libraries = _blas.openblas_libraries()
    if not libraries:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    before = thread_counts()
    for lib in libraries:
        lib.set_num_threads(2)
    yield
    for lib, count in zip(libraries, before):
        lib.set_num_threads(count)


def test_fits_see_one_thread_and_counts_come_back(two_threads, monkeypatch):
    seen = []
    fit = inference.fit_krr

    def recording_fit(*args, **kwargs):
        seen.append(thread_counts())
        return fit(*args, **kwargs)

    monkeypatch.setattr(inference, "fit_krr", recording_fit)
    anm_infer_detailed(cubic_split(), ScoreKind.HSIC, KERNEL, 0.5)
    ones = [1] * len(_blas.openblas_libraries())
    assert seen == [ones, ones]
    assert thread_counts() == [2] * len(ones)


def test_counts_come_back_when_the_decision_raises(two_threads):
    parts = cubic_split()
    outside = SamplePairs(parts.train.x * 2.0, parts.train.y, id="outside")
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        anm_infer_detailed(SplitData(outside, parts.test), ScoreKind.KENDALL_TAU, KERNEL, 0.5)
    assert thread_counts() == [2] * len(_blas.openblas_libraries())


def test_no_library_leaves_the_threads_alone(two_threads, monkeypatch):
    real = _blas.openblas_libraries()
    monkeypatch.setattr(_blas, "openblas_libraries", lambda: ())
    with _blas.single_threaded_blas():
        assert [lib.get_num_threads() for lib in real] == [2] * len(real)
    # and the fits fall back to scipy.linalg's routines
    assert _blas.cholesky_routines() is _blas.SCIPY_CHOLESKY
    report = anm_infer_detailed(cubic_split(), ScoreKind.KENDALL_TAU, KERNEL, 0.5)
    assert np.isfinite(report.s_xy) and np.isfinite(report.s_yx)


def test_libraries_are_looked_up_on_first_use_not_at_import():
    probe = (
        "import privcause.cli, privcause._blas as b; "
        "print(b.openblas_libraries.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_importing_the_cli_imports_no_scipy_module():
    # importing scipy.linalg alone costs about twice a command's start-up
    probe = "import sys, privcause.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_decisions_do_not_import_scipy_linalg():
    if _blas.cholesky_routines() is _blas.SCIPY_CHOLESKY:
        pytest.skip("scipy bundles no OpenBLAS with the Cholesky routines here")
    # an exact decision, and a low-rank one that predicts through the
    # pivots' triangular solve
    probe = (
        "import sys, privcause.cli\n"
        "from privcause.data_io import split, synth_anm\n"
        "from privcause.inference import anm_infer_detailed\n"
        "from privcause.scores import KernelSpec, ScoreKind\n"
        "parts = split(synth_anm('cubic', 200, 0.3, 0), 0.5, 0)\n"
        "anm_infer_detailed(parts, ScoreKind.HSIC, KernelSpec(0.3), 0.5)\n"
        "parts = split(synth_anm('cubic', 1100, 0.3, 0), 0.5, 0)\n"
        "anm_infer_detailed(parts, ScoreKind.HSIC, KernelSpec(0.08), 0.02)\n"
        "print('scipy.linalg' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_bundled_routines_check_shapes_before_the_native_call():
    routines = _blas.cholesky_routines()
    if routines is _blas.SCIPY_CHOLESKY:
        pytest.skip("scipy bundles no OpenBLAS with the Cholesky routines here")
    system = np.eye(3)
    with pytest.raises(ValueError, match="length-n"):
        routines.solve(system, np.ones(2))
    with pytest.raises(ValueError, match="length-n"):
        routines.product(system, np.ones(4))
    with pytest.raises(ValueError, match="length-n"):
        routines.solve(np.ones((3, 2)), np.ones(3))
    with pytest.raises(ValueError, match="m x 3"):
        routines.right_solve(system, np.ones((5, 2)))


def test_fallback_routines_are_bitwise_the_bound_ones():
    bound = _blas.cholesky_routines()
    if bound is _blas.SCIPY_CHOLESKY:
        pytest.skip("scipy bundles no OpenBLAS with the Cholesky routines here")
    rng = np.random.default_rng(43)
    for n in (3, 257, 1000):
        x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        posed = KERNEL.matrix(x, x)
        posed.flat[:: n + 1] += n * 0.02 / 2.0
        results = []
        for routines in (bound, _blas.SCIPY_CHOLESKY):
            system = posed.copy()
            alpha = y.copy()
            info = routines.solve(system, alpha)
            results.append((alpha, info, system, routines.product(system, alpha)))
        # x, info, the factored buffer and the product of its other triangle
        for got, fallback in zip(*results):
            assert np.array_equal(got, fallback), n
        assert results[0][1] == 0
        # the triangular solve of a pivot prediction, with U's lower
        # triangle filled with values it must not read
        r = min(n, 40)
        factor = np.triu(posed[:r, :r]) + np.tril(np.full((r, r), np.nan), -1)
        solved = []
        for routines in (bound, _blas.SCIPY_CHOLESKY):
            rows = KERNEL.matrix(x, x[:r])
            routines.right_solve(factor, rows)
            solved.append(rows)
        assert np.array_equal(*solved), n
        assert np.allclose(solved[0] @ np.triu(factor), KERNEL.matrix(x, x[:r]), rtol=0, atol=1e-10), n


def test_margins_match_across_trial_and_sweep_paths():
    # n_total = 1100 is large enough for OpenBLAS to thread its Cholesky,
    # so margins agree to the bit only if every path runs single-threaded
    config = ExperimentConfig(
        datasets=(SyntheticSpec("cubic", 1100),),
        scores=(ScoreKind.HSIC,),
        lams=(0.02,),
        trials=2,
        master_seed=5,
        reg_bandwidth=0.08,
    )
    direct = [run_trial(config, 0, 0, 0, 0, t)[0].margin for t in range(config.trials)]
    for jobs in (1, 2):
        swept = [row.margin for row in run_sweep(config, jobs=jobs)[: config.trials]]
        assert swept == direct
