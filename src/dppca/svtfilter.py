"""Private threshold search (sparse vector technique) and row filtering.

Each iteration of the adaptive method asks: what is the smallest threshold
theta such that (almost) all rows satisfy ||a_i|| * |<a_i, x>| <= theta?
The search walks a geometric grid of candidate thresholds and fires on the
first whose noisy count of rows above it is under a small noisy bar, so it
reads no row count n.  Candidates are scaled by ||x||: theta_k = 2^k * ||x||
keeps the grid independent of the iterate's scale, and the scaling is
data-free so it costs no privacy.

The counts come from the statistics' bit patterns, without a sort
(`_grid_counts`), which leaves each row's grid bucket code in the
statistic's own buffer.  The probe noise is drawn in one batch, and only
the draws up to the firing probe are consumed, so the stream moves as a
probe-by-probe search would move it.

The search computes A x once, in the thread's scratch block with the
statistics (so it makes no n-vector), and returns the rows R it removed
with (A x)_R: the caller's step A^T (mask * A x) = A^T A x - A_R^T (A x)_R
needs no second pass over A, only A's Gram and a read of the rows in R.
R comes from the buckets: a row is removed exactly when its bucket is
past the firing probe's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ParameterError
from .matcore import DenseMatrix, _scratch
from .mech import RngStream, laplace_inverse_cdf

# Candidate thresholds are 2^k * ||x|| for k in [GRID_LO_EXP, GRID_HI_EXP].
GRID_LO_EXP = -40
GRID_HI_EXP = 1
_POW2 = np.ldexp(1.0, np.arange(GRID_LO_EXP, GRID_HI_EXP + 1))
# scale * _POW2 is exact and normal, as _grid_counts needs, for scale in
# [_MIN_SCALE, _MAX_SCALE): its ends are 2^-1022 and 2^1024 over the grid's.
_MIN_SCALE = 2.0 ** (-1022 - GRID_LO_EXP)
_MAX_SCALE = 2.0 ** (1024 - GRID_HI_EXP)
# A double's bits without its sign bit, and its mantissa width: the bit
# patterns of consecutive powers of two lie 2^_EXP_SHIFT apart.
_NO_SIGN = np.uint64(0x7FFF_FFFF_FFFF_FFFF)
_EXP_SHIFT = 52
# 2^63 / 2^_EXP_SHIFT: a bucket index plus _CODE_0 is a 12-bit code >= 0.
_CODE_0 = 1 << (63 - _EXP_SHIFT)
# The default failure probability beta of the search and of every run and
# command built on it.
DEFAULT_BETA = 0.05


@dataclass
class ThresholdResult:
    theta: float
    queries_issued: int
    fell_through: bool  # no candidate fired; largest grid value returned
    removed_count: int  # rows with ||a_i|| * |<a_i, x>| > theta, or NaN
    removed: np.ndarray  # those rows' indices, ascending
    ax_removed: np.ndarray  # (A x)[removed]


def _grid_counts(q: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """over[k] = #{i : |q_i| > grid[k] or NaN}, the rows probe k removes,
    for grid[k] = grid[0] * 2^k, every point a normal double.

    The bits of a non-negative double order like its value, and grid[k]'s
    are grid[0]'s plus k * 2^52, so ceil((bits(|q_i|) - bits(grid[0])) / 2^52)
    is the first k with |q_i| <= grid[k] (at most 0: below the grid; K or
    more: above it).  Clearing the sign bit takes |q_i|, so q may carry A x's
    sign, and sends a negative NaN, such as inf * 0 gives, above the grid
    with the others.  These indices plus _CODE_0 overwrite q, as uint64,
    with no clip; over[k] counts the codes past _CODE_0 + k.
    """
    b = q.view(np.uint64)
    b &= _NO_SIGN
    # Adding 2^63 - bits(grid[0]) + 2^52 - 1 keeps every sum in [0, 2^64).
    b += np.uint64((1 << 63) - int(grid[:1].view(np.int64)[0]) + (1 << _EXP_SHIFT) - 1)
    b >>= np.uint64(_EXP_SHIFT)
    past = np.cumsum(np.bincount(b.view(np.int64), minlength=2 * _CODE_0)[::-1])[::-1]
    return past[_CODE_0 + 1:_CODE_0 + 1 + grid.size]


def threshold_search(
    a: DenseMatrix, x: np.ndarray, epsilon: float, rng: RngStream, *,
    beta: float = DEFAULT_BETA,
) -> ThresholdResult:
    """Smallest grid threshold whose noisy removed-row count is under the noisy bar.

    epsilon is the privacy cost of the whole search.  Probe k fires when
    over_k, the count of rows above candidate k, is at most the bar
    6 ln(1/beta) / epsilon - Lap(2/epsilon), drawn once, plus a fresh
    Lap(4/epsilon) per probe in grid order.  This is the sparse vector
    technique, epsilon-DP under add/remove with no public n: one row moves
    each over_k by at most 1, and nothing here reads n.  If no candidate
    fires the largest is returned (flagged in the result).

    Raises ParameterError for a bad epsilon or beta, and
    ContractViolationError for a probe vector whose grid leaves the
    normal doubles (||x|| * 2^GRID_LO_EXP below 2^-1022, as for a zero x,
    or ||x|| * 2^GRID_HI_EXP overflowing, as for a non-finite x); unit and
    fresh Gaussian iterates never do.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if not math.isfinite(4.0 / epsilon):
        raise ParameterError(
            f"epsilon {epsilon} is too small: the probe noise scale "
            "4/epsilon overflows"
        )
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.d,):
        raise ContractViolationError(
            f"probe vector has shape {x.shape}, expected ({a.d},)"
        )
    scale = math.sqrt(x @ x)  # the bits of np.linalg.norm(x)
    if not _MIN_SCALE <= scale < _MAX_SCALE:  # also zero and NaN norms
        raise ContractViolationError(
            f"probe vector norm {scale!r} puts the threshold grid outside "
            "the normal doubles"
        )
    grid = scale * _POW2

    ax, q = _scratch(2, len(a.data))  # sized from the rows: reads no n
    np.matmul(a.data, x, out=ax)
    np.multiply(ax, a.row_norms(), out=q)
    over = _grid_counts(q, grid)
    u = rng.peek_uniform_open(grid.size + 1)
    bar = (6.0 * math.log(1.0 / beta) / epsilon
           - laplace_inverse_cdf(u[0], 2.0 / epsilon))
    noise = laplace_inverse_cdf(u[1:], 4.0 / epsilon)
    fires = np.flatnonzero(over <= bar + noise)
    fell_through = fires.size == 0
    fired = grid.size - 1 if fell_through else int(fires[0])
    rng.skip(fired + 2)  # the bar and probes 0..fired
    # Rows with codes past the firing probe's have |q| > theta, or NaN.
    removed = np.flatnonzero(q.view(np.int64) > _CODE_0 + fired)
    return ThresholdResult(float(grid[fired]), fired + 1, fell_through, removed.size,
                           removed, ax[removed])
