"""Coherence-adaptive private power iteration for the top eigenvector.

Per iteration the algorithm (1) privately finds a threshold theta so that
almost all rows have bounded leverage against the current iterate, (2)
drops the offending rows, and (3) steps to A^T (mask * A x) plus Gaussian
noise calibrated to sensitivity theta, where mask keeps the rows at or
below theta.  The step is taken as G x - A_R^T (A x)_R, with G = A^T A
(`matcore.gram`, kept on the matrix) and the search's R and (A x)_R, so
each iteration reads A at most once, for the search's A x, plus the rows in
R.  A run of `_LAYOUT_SEARCHES` or more lays the rows out by norm first,
and its searches read only the rows that can decide theta.  Both
forms are the same function of the data in exact arithmetic, so the
step's sensitivity theta and its sigma are unchanged; in floating point
they differ by rounding (at most 2e-12 relative in any acceptance-grid
output).  The threshold adapts the noise to the
data's incoherence instead of paying the worst case: well-spread data
fires on a small theta and gets small noise.  The worst case is the naive
noisy power method (naive-power): the same loop without the search,
`run_adaptive_power(..., search=False)`.

Accounting: each iteration runs two mechanisms — the threshold search and
the Gaussian step — so `run_adaptive_power(a, T, per_iter, rng)` composes
as 2T mechanisms and takes per_iter = `split_budget(total, 2 * T)` under
the total's accountant (see `dppca.mech`).  Under the default "paper"
accountant that is `invert_budget(total, 2 * T)`: advanced composition
over 2T mechanisms, with delta_total split into 2T+1 equal shares (one per
mechanism plus the composition's own), although only the T Gaussian steps
spend theirs.  Each iteration's Gaussian step spends (epsilon, delta) and
its threshold search spends epsilon.  Under `PrivacyBudget(eps, delta,
"zcdp")` every threshold search spends epsilon_svt and every Gaussian step
draws sigma = theta / epsilon_svt, each (epsilon_svt^2 / 2)-zCDP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractViolationError, ParameterError
from .matcore import DenseMatrix, _row_blocks, _scratch, gram
from .mech import (
    PrivacyBudget,
    RngStream,
    exp_mech_select,
    gaussian_sigma,
    sample_gaussian_vec,
    split_budget,
)
from .svtfilter import DEFAULT_BETA, ThresholdResult, lay_out_by_norm, threshold_search

_ROW_NORM_SLACK = 1.0 + 1e-9
_LAYOUT_SEARCHES = 10  # runs this long lay A out by norm (svtfilter.lay_out_by_norm)


@dataclass
class IterationTrace:
    """Per-iteration diagnostics; every list has length `iterations`.

    `removed` holds exact counts of the rows above each released theta,
    which no mechanism noises: they are evaluation (the bench CSV's
    `removed` column is their sum), not released, and `dppca run --trace`
    leaves them out.
    """

    theta: list[float] = field(default_factory=list)
    removed: list[int] = field(default_factory=list)
    noise_sigma: list[float] = field(default_factory=list)
    queries_issued: list[int] = field(default_factory=list)


def check_private_input(a: DenseMatrix) -> None:
    """Preconditions shared by all privacy-facing algorithms: every row has
    norm at most 1.  No check reads n, since one added row would turn a
    refused wide matrix into an accepted one."""
    m = a.max_row_norm()
    if m > _ROW_NORM_SLACK:
        raise ContractViolationError(
            f"max row norm {m:.6g} exceeds 1; clip every row to norm <= 1 "
            "first (dividing by the data's own largest norm is not private)"
        )


def run_adaptive_power(
    a: DenseMatrix, iterations: int, per_iter: PrivacyBudget, rng: RngStream, *,
    search: bool = True, beta: float = DEFAULT_BETA,
) -> tuple[np.ndarray, IterationTrace]:
    """The one noisy power loop; returns (unit estimate, trace).

    From a Gaussian start, `iterations` times x <- unit(step + N(0, sigma^2
    I)), sigma = gaussian_sigma(theta, per_iter).  With search, theta and
    the step are the module docstring's, and the step is exactly zero when
    every row is removed.  Without it (naive-power, per_iter =
    `split_budget(total, iterations)`) the step is G x, which reads no A,
    and theta = ||x||: one row a of norm <= 1 moves A^T A x by ||a||
    |<a, x>| <= ||x||, a data-free bound that also covers the unnormalised
    start.  A noisy iterate whose norm is 0 or not finite (a budget too
    small to noise overflows it) raises ParameterError.
    """
    if iterations < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    check_private_input(a)
    if search and iterations >= _LAYOUT_SEARCHES and a._layout is None:
        lay_out_by_norm(a)
    g = gram(a)
    x = rng.standard_normal(a.d)
    trace = IterationTrace()

    for _ in range(iterations):
        step = np.dot(g, x)
        if search:
            found = threshold_search(a, x, per_iter.epsilon, rng, beta=beta)
            theta, removed, queries = found.theta, found.removed_count, found.queries_issued
            if removed == a.n:  # exactly zero, not G x minus its own rounding
                step[:] = 0.0
            elif removed:
                step -= _removed_rows_product(a, found)
            del found  # free its rows before the next search makes its own
        else:
            theta, removed, queries = math.sqrt(x @ x), 0, 0
        sigma = gaussian_sigma(theta, per_iter)

        trace.theta.append(theta)
        trace.removed.append(removed)
        trace.noise_sigma.append(sigma)
        trace.queries_issued.append(queries)

        x = step + sample_gaussian_vec(a.d, sigma, rng)
        norm = float(np.linalg.norm(x))
        if not 0.0 < norm < math.inf:
            raise ParameterError(f"noisy iterate norm {norm!r} at noise scale {sigma:.6g}"
                                 " (a budget too small to noise overflows it)")
        x = x / norm

    return x / float(np.linalg.norm(x)), trace


def _removed_rows_product(a: DenseMatrix, found: ThresholdResult) -> np.ndarray:
    """A_R^T (A x)_R over the rows R the search removed, reading A only on
    R: the rows are gathered a row block at a time into the thread's
    scratch block, so no buffer of |R| rows is made."""
    out = np.zeros(a.d)
    for part in _row_blocks(found.removed_count, a.d):
        idx = found.removed[part]
        rows = np.take(a.data, idx, axis=0, mode="clip",  # "raise" buffers
                       out=_scratch(idx.size, a.d))
        # np.dot, not @: matmul holds the GIL for a transposed operand.
        out += np.dot(rows.T, found.ax_removed[part])
    return out


def corollary_iterations(
    n: int, beta: float, delta: float, epsilon: float, kappa: float, const: float = 1.0
) -> int:
    """Iteration count T = ceil(const * ln(n / (beta delta epsilon)) / kappa).

    Clamped below at 1 (the log drops under 0 for enormous epsilon).  The
    log is taken as a sum of logs, so a tiny epsilon cannot underflow it.
    """
    if not 0.0 < kappa <= 1.0:
        raise ParameterError(f"kappa must lie in (0, 1], got {kappa}")
    if not 0.0 < const < math.inf:
        raise ParameterError(f"t_const must be positive and finite, got {const}")
    log_arg = math.log(n) - math.log(beta) - math.log(delta) - math.log(epsilon)
    return max(1, math.ceil(const * log_arg / kappa))


@dataclass
class SweepCandidate:
    kappa_guess: float
    iterations: int
    estimate: np.ndarray
    quality: float
    trace: IterationTrace


@dataclass
class SweepResult:
    estimate: np.ndarray
    selected: int  # index into candidates
    candidates: list[SweepCandidate]
    selection_epsilon: float
    run_budget: PrivacyBudget  # the (epsilon, delta) each candidate run spends


def run_kappa_sweep(
    a: DenseMatrix,
    total: PrivacyBudget,
    rng: RngStream,
    num_guesses: int = 6,
    beta: float = DEFAULT_BETA,
    t_const: float = 1.0,
) -> SweepResult:
    """Run the iteration once per gap guess kappa_j = 2^-j and pick privately.

    Run j uses the corollary iteration count for kappa_j.  Budget split:
    half the epsilon goes to the exponential-mechanism selection; each of
    the J runs gets epsilon_total / (2J) and delta_total / J under the
    total's accountant, split by split_budget over its own 2 T_j
    mechanisms.  Run j draws from rng.child(j) and the selection from
    rng.child(J).  Selection quality is the captured variance ||A x||^2,
    whose row-level sensitivity is 1 for unit rows.
    """
    if num_guesses < 1:
        raise ParameterError(f"need at least one guess, got {num_guesses}")
    run_budget = replace(
        total, epsilon=total.epsilon / (2.0 * num_guesses),
        delta=total.delta / num_guesses,
    )
    sel_eps = total.epsilon / 2.0

    candidates: list[SweepCandidate] = []
    for j in range(num_guesses):
        kappa = 2.0**-j
        t_j = corollary_iterations(a.n, beta, total.delta, total.epsilon, kappa, t_const)
        per_iter = split_budget(run_budget, 2 * t_j)
        x_j, trace_j = run_adaptive_power(a, t_j, per_iter, rng.child(j), beta=beta)
        quality = float(x_j @ np.dot(gram(a), x_j))  # ||A x_j||^2
        candidates.append(SweepCandidate(kappa, t_j, x_j, quality, trace_j))

    qualities = np.array([c.quality for c in candidates])
    winner = exp_mech_select(qualities, 1.0, sel_eps, rng.child(num_guesses))
    estimate = candidates[winner].estimate
    return SweepResult(estimate, winner, candidates, sel_eps, run_budget)
