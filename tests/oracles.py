"""Test-side oracles shared by several test modules."""

import math

import numpy as np

from dppca.adaptive import corollary_iterations, run_adaptive_power
from dppca.errors import ContractViolationError
from dppca.matcore import _row_blocks, gram
from dppca.mech import PrivacyBudget, laplace_inverse_cdf, split_budget
from dppca.svtfilter import DEFAULT_BETA, GRID_HI_EXP, GRID_LO_EXP, ThresholdResult


def reference_search(a, x, epsilon, rng, *, beta=0.05, noiseless=False):
    """The search probe by probe, counting with a sort: the oracle for
    threshold_search's bit-pattern counts and batched draws.  With
    noiseless it draws nothing and fires on the first probe that removes
    no row."""
    x = np.asarray(x, dtype=np.float64)
    ax = a.data @ x
    q = a.row_norms() * np.abs(ax)
    n = a.n
    scale = float(np.linalg.norm(x))
    if scale == 0.0:
        raise ContractViolationError("zero probe vector")
    if noiseless:
        bar = float(n)
    else:
        bar = (
            n
            - 6.0 * math.log(1.0 / beta) / epsilon
            + laplace_inverse_cdf(rng.uniform_open(), 2.0 / epsilon)
        )
    grid = np.ldexp(scale, np.arange(GRID_LO_EXP, GRID_HI_EXP + 1))
    counts = np.searchsorted(np.sort(q), grid, side="right").tolist()
    fired = len(grid) - 1
    fell_through = True
    for k, count in enumerate(counts):
        if noiseless:
            noisy = count
        else:
            noisy = count + laplace_inverse_cdf(rng.uniform_open(), 4.0 / epsilon)
        if noisy >= bar:
            fired, fell_through = k, False
            break
    theta = float(grid[fired])
    removed = np.flatnonzero(~(q <= theta))
    return ThresholdResult(
        theta=theta,
        queries_issued=fired + 1,
        fell_through=fell_through,
        removed_count=n - counts[fired],
        removed=removed,
        step=reference_step(a, x, removed),
    )


def reference_step(a, x, removed):
    """The filtered step G x - A_R^T (A x)_R as the search forms it, with
    A_R^T (A x)_R summed over R a row block at a time, and exactly +0.0
    when R is every row."""
    if removed.size == a.n:
        return np.zeros(a.d)
    ax, out = a.data @ x, np.zeros(a.d)
    for part in _row_blocks(removed.size, a.d):
        idx = removed[part]
        out += np.dot(a.data[idx].T, ax[idx])
    return np.dot(gram(a), x) - out


def sweep_runs(cell, a, rng):
    """An adaptive-sweep cell's J runs on `a`, recomputed one by one: run j
    at the corollary T for the gen's n and gap guess 2^-j, on rng.child(j)
    with (epsilon / 2J, delta / J).  Returns each run's (quality x^T G x,
    estimate, T)."""
    runs, eps, delta = cell["sweep_J"], cell["eps_total"], cell["delta_total"]
    beta = cell.get("beta", DEFAULT_BETA)
    budget = PrivacyBudget(eps / (2.0 * runs), delta / runs, cell.get("accountant", "paper"))
    out = []
    for j in range(runs):
        t = corollary_iterations(cell["gen"]["n"], beta, delta, eps, 2.0**-j,
                                 cell.get("t_const", 1.0))
        x, _ = run_adaptive_power(a, t, split_budget(budget, 2 * t), rng.child(j), beta=beta)
        out.append((float(x @ np.dot(gram(a), x)), x, t))
    return out
