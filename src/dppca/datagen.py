"""Synthetic instance generators covering three coherence regimes.

- Gaussian i.i.d. rows from a spiked covariance (unbounded rows; callers
  scale them down before any private algorithm sees them),
- low-coherence planted-spectrum matrices with max row norm exactly 1,
- high-coherence stress instances where a handful of canonical-basis rows
  carry the whole top direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .matcore import DenseMatrix, _row_blocks, _row_norms, _scratch
from .mech import RngStream

_SMALL_TAIL_FRAC = 0.01  # tail eigenvalues of the planted spectrum


@dataclass(frozen=True)
class GaussSpec:
    """Population spectrum sigmabar_sq (trace 1, nonincreasing), without a basis."""

    sigmabar_sq: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.sigmabar_sq)
        if len(vals) < 1:
            raise ParameterError("spectrum must have at least one entry")
        if not all(0.0 <= v < math.inf for v in vals):
            raise ParameterError(f"spectrum entries must be finite and nonnegative: {vals}")
        if any(vals[i] + 1e-12 < vals[i + 1] for i in range(len(vals) - 1)):
            raise ParameterError("spectrum must be nonincreasing")
        if abs(sum(vals) - 1.0) > 1e-12:
            raise ParameterError(f"spectrum must sum to 1, got {sum(vals)!r}")
        object.__setattr__(self, "sigmabar_sq", vals)

    @property
    def d(self) -> int:
        return len(self.sigmabar_sq)

    @property
    def kappabar(self) -> float:
        s1 = self.sigmabar_sq[0]
        if s1 == 0.0:
            raise ParameterError("top population eigenvalue is zero")
        s2 = self.sigmabar_sq[1] if self.d > 1 else 0.0
        return (s1 - s2) / s1

    @staticmethod
    def spiked(d: int, sigma1_sq: float, kappabar: float) -> "GaussSpec":
        """Spiked spectrum: given top value and relative gap, flat tail.

        sigma2_sq = (1 - kappabar) * sigma1_sq; the remaining mass
        1 - sigma1_sq - sigma2_sq is spread evenly over the other d - 2
        coordinates (it must be nonnegative and at most sigma2_sq each;
        at d = 2 there are none, so it must be zero).
        """
        if d < 2:
            raise ParameterError("spiked spectrum needs d >= 2")
        sigma2_sq = (1.0 - kappabar) * sigma1_sq
        tail = 1.0 - sigma1_sq - sigma2_sq
        if tail < -1e-12:
            raise ParameterError("spectrum mass exceeds 1")
        if d == 2 and tail > 1e-12:
            raise ParameterError(f"at d = 2 there is no tail for the leftover mass {tail!r}")
        rest = max(tail, 0.0) / (d - 2) if d > 2 else 0.0
        if d > 2 and rest > sigma2_sq + 1e-12:
            raise ParameterError("flat tail would exceed the second eigenvalue")
        vals = [sigma1_sq, sigma2_sq] + [rest] * (d - 2)
        # Absorb rounding into the last entry so the sum is exactly 1.
        vals[-1] += 1.0 - sum(vals)
        return GaussSpec(tuple(vals))


def random_orthogonal(n: int, rng: RngStream) -> np.ndarray:
    """A Haar-distributed orthogonal n x n matrix: QR with sign-fixed diagonal."""
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def gen_gaussian_iid(
    n: int, spec: GaussSpec, rng: RngStream, rotate: bool = True
) -> tuple[DenseMatrix, np.ndarray]:
    """Rows g_i = Q diag(sigmabar) z_i, z_i ~ N(0, I); returns (A, vbar1 = Q e1).

    Q is a Haar rotation drawn before the rows, or the identity when rotate
    is off (the product with it still runs: it turns a zero sigmabar's -0.0
    entries into +0.0).  Each row block of z is drawn into the thread's
    scratch block, scaled there and rotated straight into A; Philox draws
    in order, so the blocks hold the one-shot draw.  Rows are unbounded;
    use scale_for_privacy before feeding a private algorithm.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    d = spec.d
    q = random_orthogonal(d, rng) if rotate else np.eye(d)
    a = np.empty((n, d))
    scale = np.sqrt(np.array(spec.sigmabar_sq))
    for rows in _row_blocks(n, d):
        block = rng.standard_normal(out=_scratch(rows.stop - rows.start, d))
        block *= scale
        np.matmul(block, q.T, out=a[rows])
    return DenseMatrix(a), q[:, 0].copy()


def _row_length_bound(n: int, beta: float) -> float:
    """The Gaussian pipeline's row-length bound L = 1 + sqrt(2 ln(n/beta))."""
    return 1.0 + math.sqrt(2.0 * math.log(n / beta))


def scale_for_privacy(a: DenseMatrix, beta: float) -> int:
    """Divide rows by L = `_row_length_bound(n, beta)`; clip survivors above
    norm 1; return the number of rows clipped.

    For trace-1 Gaussian rows, a row exceeds L (hence gets clipped) with
    probability at most beta; the clip count is reported so runs can
    confirm the bounded-row event held.

    `a` is rescaled in place.  The row norms computed for the clip are kept
    as its `row_norms()` (only the clipped rows' are recomputed), and its
    cached Gram is dropped.
    """
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    el = _row_length_bound(a.n, beta)
    data = a.data
    data /= el
    norms = _row_norms(data)
    over = norms > 1.0
    clip_count = int(over.sum())
    if clip_count:
        clipped = data[over] / norms[over, None]
        data[over] = clipped
        norms[over] = _row_norms(clipped)
    norms.flags.writeable = False
    a._row_norms, a._gram = norms, None
    return clip_count


def gen_low_coherence(
    n: int,
    d: int,
    sigma1_frac: float,
    gap: float,
    rng: RngStream,
) -> DenseMatrix:
    """Planted deterministic spectrum with spread-out singular vectors.

    sigma1^2 = sigma1_frac * n, sigma2^2 = (1 - gap) * sigma1^2, tail
    eigenvalues equal and small.  The diagonal core is conjugated by
    seeded random orthogonal factors on both sides, then rescaled so the
    max row norm is exactly 1.

    The right factor is a d x d Haar rotation from `random_orthogonal`.  The
    tall left factor is the Q of a Gaussian n x d draw g, without a QR of
    g: with R the Cholesky factor of the d x d Gram g^T g (upper, positive
    diagonal), Q = g R^-1 is the sign-fixed Householder Q, so
    A = g solve(R, diag(sigma) right^T) is one d x d Gram, Cholesky and
    solve plus one product, taken in g's own buffer one row block at a
    time through the thread's scratch block.  A singular draw raises
    NumericalError.
    """
    if n < d:
        raise ParameterError(f"need n >= d, got n={n}, d={d}")
    if not 0.0 < sigma1_frac < 1.0:
        raise ParameterError(f"sigma1_frac must lie in (0, 1), got {sigma1_frac}")
    if not 0.0 < gap < 1.0:
        raise ParameterError(f"gap must lie in (0, 1), got {gap}")

    s1_sq = sigma1_frac * n
    s2_sq = (1.0 - gap) * s1_sq
    tail_sq = _SMALL_TAIL_FRAC * s2_sq
    sq = np.full(d, tail_sq)
    sq[0] = s1_sq
    if d > 1:
        sq[1] = s2_sq
    sigma = np.sqrt(sq)

    g = rng.standard_normal((n, d))
    right = random_orthogonal(d, rng)
    try:
        # np.dot, not @: matmul holds the GIL for a transposed operand.
        r = np.linalg.cholesky(np.dot(g.T, g)).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"low-coherence draw is rank-deficient: {exc}") from None
    core = np.linalg.solve(r, sigma[:, None] * right.T)
    for rows in _row_blocks(n, d):
        g[rows] = np.matmul(g[rows], core, out=_scratch(rows.stop - rows.start, d))

    max_norm = float(_row_norms(g).max())
    if max_norm == 0.0:
        raise ParameterError("infeasible spectrum: generated matrix is zero")
    g /= max_norm
    return DenseMatrix(g)


def gen_high_coherence(
    n: int,
    d: int,
    rng: RngStream,
    spikes: int = 4,
    noise_norm: float = 0.05,
) -> DenseMatrix:
    """Coherence near its maximum: mu(A) close to n.

    The first `spikes` rows are e1 at norm 1 and carry the entire top
    direction (their first left singular vector has Upsilon = 1/sqrt(spikes)
    exactly).  Remaining rows are Gaussian noise of norm `noise_norm`
    confined to the coordinates 2..d so the top direction stays exact.
    """
    if n < d:
        raise ParameterError(f"need n >= d, got n={n}, d={d}")
    if not 1 <= spikes <= n:
        raise ParameterError(f"spikes must lie in [1, n], got {spikes}")
    if not 0.0 <= noise_norm <= 1.0:
        raise ParameterError(f"noise_norm must lie in [0, 1], got {noise_norm}")

    a = np.zeros((n, d))
    a[:spikes, 0] = 1.0
    rest = n - spikes
    if rest > 0 and noise_norm > 0.0 and d > 1:
        g = rng.standard_normal((rest, d - 1))
        norms = _row_norms(g)
        norms[norms == 0.0] = 1.0
        a[spikes:, 1:] = noise_norm * g / norms[:, None]
    return DenseMatrix(a)
