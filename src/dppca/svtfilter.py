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

The search computes A x, in the thread's scratch block with the
statistics (so it makes no n-vector), and returns the rows R it removed
with the filtered power step A^T (mask * A x) = A^T A x - A_R^T (A x)_R:
no second pass over A, only A's Gram and a read of the rows in R.  R
comes from the buckets: a row is removed exactly when its bucket is past
the firing probe's.  Then (A x)_R is copied out and the rows in R are
gathered into the same block a row block at a time, so the block is free
again when the search returns.

A row's statistic is at most ||a_i||^2 ||x||, so probe k counts only rows
with ||a_i||^2 > 2^(GRID_LO_EXP + k).  On rows grouped by that bound
(`lay_out_by_norm`) the search reads a group at a time and stops once the
first probe its partial counts leave open is exact: the full pass's
decisions, from the rows that can decide them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ParameterError
from .matcore import _BLOCK_ELEMENTS, DenseMatrix, _row_blocks, _scratch, gram
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
    step: np.ndarray  # A^T (mask * A x), mask keeping the other rows


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
    fires the largest is returned (flagged in the result).  The result
    also holds the rows above theta and the step that drops them.

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
    u = rng.peek_uniform_open(grid.size + 1)
    bar = (6.0 * math.log(1.0 / beta) / epsilon
           - laplace_inverse_cdf(u[0], 2.0 / epsilon))
    noise = laplace_inverse_cdf(u[1:], 4.0 / epsilon)

    ax, q = _scratch(2, len(a.data))  # sized from the rows: reads no n
    norms, start = a.row_norms(), 0
    for end, past in a._layout or [(len(a.data), 0)]:
        rows = slice(start, end)
        np.matmul(a.data[rows], x, out=ax[rows])
        np.multiply(ax[rows], norms[rows], out=q[rows])
        counts = _grid_counts(q[rows], grid)
        over = counts if start == 0 else over + counts  # a lower bound until exact
        fires = np.flatnonzero(over <= bar + noise)
        fired = grid.size - 1 if fires.size == 0 else int(fires[0])
        start = end
        if past <= fired:  # no unread row can exceed theta_fired
            break
    rng.skip(fired + 2)  # the bar and probes 0..fired
    # Rows with codes past the firing probe's have |q| > theta, or NaN.
    removed = np.flatnonzero(q[:end].view(np.int64) > _CODE_0 + fired)
    step = np.dot(gram(a), x)
    if removed.size == len(a.data):  # exactly zero, not G x minus its own rounding
        step[:] = 0.0
    elif removed.size:  # minus A_R^T (A x)_R; copy (A x)_R before R's rows overwrite A x
        ax_removed, out = ax[removed], np.zeros(a.d)
        for part in _row_blocks(removed.size, a.d):
            idx = removed[part]
            block = np.take(a.data, idx, axis=0, mode="clip",  # "raise" buffers
                            out=_scratch(idx.size, a.d))
            # np.dot, not @: matmul holds the GIL for a transposed operand.
            out += np.dot(block.T, ax_removed[part])
        step -= out
    return ThresholdResult(float(grid[fired]), fired + 1, fires.size == 0, removed.size,
                           removed, step)


def lay_out_by_norm(a: DenseMatrix) -> None:
    """Reorder A's rows in place into the groups the search reads in turn.

    Row i's code is its `_grid_counts` bucket: the first k with v <=
    2^(GRID_LO_EXP + k), clipped to [0, K] for K grid points, where v =
    fl(||a_i||^2 (1 + s)).  The slack s = 4 (d + 2) u, u = 2^-53, exceeds
    the rounding of the norm, A x, their product and ||x|| (at most
    (3d + 7) u relative), so a row whose statistic exceeds theta_k =
    2^(GRID_LO_EXP + k) ||x|| has v > 2^(GRID_LO_EXP + k): code > k.  Rows
    go in descending code; groups hold at least a row block (a small group
    costs more than its rows), and their ends round up to a multiple of 4
    rows, where OpenBLAS 0.3.31's A x on one thread keeps one pass's bits.
    The Gram is kept first, so its bits do not move.  Codes, swap lists and
    row chunks use the scratch block.  On one BLAS thread the build cost
    2-2.4 searches at n = 32,768, d = 128 (6-8 at n = 100,000, d = 20), and
    10 searches there repaid it (wide-d: 87 -> 56 ms), so `adaptive` builds
    it for runs of 10.
    """
    gram(a)
    data, norms, n, d, top = a.data, a.row_norms(), len(a.data), a.d, _CODE_0 + _POW2.size
    chunk = max(1, 2**14 // d)  # rows swapped at a time
    flat = _scratch(1, 2 * n + 2 * chunk * d)[0]
    codes, idx, bufs = (flat[:n].view(np.int64), flat[n:2 * n].view(np.int64),
                        flat[2 * n:].reshape(2, chunk, d))
    np.multiply(norms, norms, out=flat[:n])
    flat[:n] *= 1.0 + (d + 2) * 2.0**-51
    levels = _grid_counts(flat[:n], _POW2)[::-1].tolist() + [n]  # rows with code >= c
    np.clip(codes, _CODE_0, top, out=codes)  # offset by _CODE_0, as the buckets are
    block, ends = max(1, _BLOCK_ELEMENTS // d), [0]
    for end in levels:
        if end - ends[-1] >= block and -(-end // 4) * 4 <= n - block:
            ends.append(-(-end // 4) * 4)
    norms.flags.writeable = True
    for c, start, end in zip(range(top, _CODE_0 - 1, -1), [0] + levels, levels):
        if start == end or len(ends) == 1:  # nothing to place, or nothing moves
            continue
        k = 0  # rows in [start, end) without code c, then as many past it with
        for lo, hi, test in ((start, end, np.not_equal), (end, n, np.equal)):
            for i in range(lo, hi, 2**10):
                found = np.flatnonzero(test(codes[i:min(i + 2**10, hi)], c)) + i
                idx[k:k + found.size] = found
                k += found.size
        wrong, right = idx[:k // 2], idx[k // 2:k]
        for i in range(0, k // 2, chunk):
            w, r = wrong[i:i + chunk], right[i:i + chunk]
            np.take(data, w, axis=0, mode="clip", out=bufs[0, :w.size])
            data[w] = np.take(data, r, axis=0, mode="clip", out=bufs[1, :w.size])
            data[r] = bufs[0, :w.size]
            norms[w], norms[r], codes[w], codes[r] = norms[r], norms[w], c, codes[w]
    norms.flags.writeable = False
    a._layout = [(end, int(codes[end]) - _CODE_0) for end in ends[1:]] + [(n, 0)]
