"""Reference implementations and fixtures that more than one test module
checks the package against; each is defined here once."""
from dataclasses import replace

import numpy as np
from scipy.optimize import minimize

from privcause import regression
from privcause.data_io import split, synth_anm
from privcause.regression import FittedRegressor
from privcause.scores import KernelSpec, rank_vector


def cubic_split(seed=0, n_total=200, noise=0.3):
    return split(synth_anm("cubic", n_total, noise, seed), 0.5, seed)


def kendall_quadratic(a, b):
    """O(m^2) pair count on stable ranks, the definition read literally."""
    ra = rank_vector(a)
    rb = rank_vector(b)
    m = len(ra)
    concordant = discordant = 0
    for i in range(m):
        for j in range(i + 1, m):
            if (ra[i] - ra[j]) * (rb[i] - rb[j]) > 0:
                concordant += 1
            else:
                discordant += 1
    return abs(concordant - discordant) / (m * (m - 1) / 2)


def hsic_naive(a, b, kernel_a, kernel_b):
    """trace(K H L H) / (m-1)^2 with the centering matrix written out."""
    a = np.asarray(a, dtype=float)
    m = a.size
    k = kernel_a.matrix(a, a)
    el = kernel_b.matrix(np.asarray(b, dtype=float), b)
    h = np.eye(m) - np.ones((m, m)) / m
    return float(np.trace(k @ h @ el @ h)) / (m - 1) ** 2


def primal_fit(x, y, kernel, lam):
    """Minimize (lam/2) c'Kc + (1/n)||Kc - y||^2 numerically (representer
    form of the regularized least-squares objective)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    gram = kernel.matrix(x, x)

    def objective(c):
        fit = gram @ c
        return 0.5 * lam * float(c @ fit) + float(np.sum((fit - y) ** 2)) / n

    def gradient(c):
        fit = gram @ c
        return lam * fit + (2.0 / n) * (gram @ (fit - y))

    def hessian(c):
        return lam * gram + (2.0 / n) * (gram @ gram)

    res = minimize(objective, np.zeros(n), jac=gradient, hess=hessian,
                   method="trust-exact", options={"gtol": 1e-13})
    return FittedRegressor(res.x, x, kernel)


def count_calls(monkeypatch, module, *names):
    """Count the calls of the named functions made through ``module``'s
    attributes, the way other modules reach them; the counts live in the
    returned dict, one entry per name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def factor_calls(monkeypatch):
    """One (kernel columns filled, factor given) entry per call of
    KernelSpec.pivoted_cholesky made during the test."""
    calls, filled = [], [0]
    fill, factor = KernelSpec.fill, KernelSpec.pivoted_cholesky

    def counting_fill(self, out, u, v):
        filled[0] += 1
        return fill(self, out, u, v)

    def recording_factor(self, x):
        before = filled[0]
        factored = factor(self, x)
        calls.append((filled[0] - before, factored is not None))
        return factored

    monkeypatch.setattr(KernelSpec, "fill", counting_fill)
    monkeypatch.setattr(KernelSpec, "pivoted_cholesky", recording_factor)
    return calls


def posv_sizes(monkeypatch):
    """Record the order of every system the fits hand to the Cholesky solve:
    n for the exact solve of n training pairs, r for a low-rank one of rank r."""
    sizes = []
    routines = regression.cholesky_routines()

    def solve(a, b):
        sizes.append(a.shape[0])
        return routines.solve(a, b)

    monkeypatch.setattr(regression, "cholesky_routines", lambda: replace(routines, solve=solve))
    return sizes
