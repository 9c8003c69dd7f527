"""Dense matrix container and deterministic linear-algebra kernels.

Everything downstream (mechanism calibration, the adaptive iteration, the
benchmark harness) goes through the routines here so that ground-truth
spectra, sign conventions, and tie-breaking are identical everywhere.
The symmetric eigensolver is a cyclic Jacobi sweep rather than a LAPACK
call: it is deterministic for a fixed build and its convergence tolerance
is explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolationError,
    NumericalError,
    RankZeroError,
    SizingError,
)

# Relative off-diagonal Frobenius tolerance for the Jacobi sweep, relative
# eigenvalue tie tolerance, and relative rank cutoff share one constant.
_REL_TOL = 1e-12

# Hard cap on Jacobi sweeps before giving up.
_MAX_SWEEPS = 100

# Largest element count we will allocate for a Gram product (bytes / 8).
_MAX_ELEMENTS = 2**60


@dataclass
class DenseMatrix:
    """An n x d row-major float64 matrix; rows are data points.

    Construction validates shape and finiteness.  `n >= 1` and `d >= 1`
    are required; matrices with more columns than rows are rejected by the
    privacy-facing routines (not here) since the analysis assumes n >= d.
    Nothing mutates `data` after construction, so the row norms are
    computed once, on first use, and kept (read-only).
    """

    data: np.ndarray
    _row_norms: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ContractViolationError(
                f"expected a 2-d array, got ndim={arr.ndim}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ContractViolationError(f"degenerate shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ContractViolationError("matrix contains NaN or Inf")
        self.data = np.ascontiguousarray(arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def row_norms(self) -> np.ndarray:
        if self._row_norms is None:
            norms = np.sqrt(np.einsum("ij,ij->i", self.data, self.data))
            norms.flags.writeable = False
            self._row_norms = norms
        return self._row_norms

    def max_row_norm(self) -> float:
        return float(self.row_norms().max())


@dataclass
class Spectrum:
    """Eigenvalues (descending) and matching orthonormal eigenvectors."""

    values: np.ndarray  # (d,)
    vectors: np.ndarray  # (d, d), column i pairs with values[i]


@dataclass
class SvdFactors:
    """Compact SVD of an n x d matrix: A = U diag(s) V^T.

    U has a zero column wherever the corresponding singular value fell
    below the rank cutoff; `rank` counts the columns that survived.
    """

    u: np.ndarray  # (n, d)
    s: np.ndarray  # (d,) descending, >= 0
    v: np.ndarray  # (d, d)
    rank: int


@dataclass
class CoherenceStats:
    """Scale-free summary of a matrix used by the utility analysis.

    upsilon = max_i |U_{i,1}|   (mass of the top left singular vector)
    u_inf   = max abs entry of U restricted to the rank columns
    v_inf   = max abs entry of V
    mu      = max(n * u_inf^2, d * v_inf^2)
    kappa   = (s1^2 - s2^2) / s1^2
    """

    sigma1: float
    sigma2: float
    kappa: float
    upsilon: float
    u_inf: float
    v_inf: float
    mu: float
    rank: int
    top_vector: np.ndarray = field(repr=False)  # v1, length d, unit norm


def _check_sizing(n: int, d: int) -> None:
    if n * d > _MAX_ELEMENTS or d * d > _MAX_ELEMENTS:
        raise SizingError(f"product of shape ({n}, {d}) exceeds addressable size")


def gram(a: DenseMatrix) -> np.ndarray:
    """Return A^T A as an exactly symmetric (d, d) array.

    The upper triangle of the accumulated product is mirrored into the
    lower triangle so the result is bitwise symmetric.
    """
    _check_sizing(a.n, a.d)
    g = a.data.T @ a.data
    upper = np.triu(g)
    return upper + np.triu(g, 1).T


def _jacobi_rotate(s: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Zero out s[p, q] with a Givens rotation, updating s and v in place."""
    app, aqq, apq = s[p, p], s[q, q], s[p, q]
    if apq == 0.0:
        return
    tau = (aqq - app) / (2.0 * apq)
    # Smaller-magnitude root of t^2 + 2*tau*t - 1 = 0 for stability.
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    sn = t * c

    rot = np.array([[c, sn], [-sn, c]])
    rows = s[[p, q], :].copy()
    s[[p, q], :] = rot.T @ rows
    cols = s[:, [p, q]].copy()
    s[:, [p, q]] = cols @ rot
    # Pin the rotated-away entries to exactly zero.
    s[p, q] = 0.0
    s[q, p] = 0.0
    s[p, p] = app - t * apq
    s[q, q] = aqq + t * apq

    vcols = v[:, [p, q]].copy()
    v[:, [p, q]] = vcols @ rot


def _off_fro(s: np.ndarray) -> float:
    d = s.shape[0]
    mask = ~np.eye(d, dtype=bool)
    return float(np.sqrt(np.sum(s[mask] ** 2)))


def _fix_signs(vectors: np.ndarray) -> None:
    """Flip each column so its first entry with magnitude > 1e-12 is positive."""
    d = vectors.shape[1]
    for j in range(d):
        col = vectors[:, j]
        idx = np.flatnonzero(np.abs(col) > _REL_TOL)
        if idx.size and col[idx[0]] < 0.0:
            vectors[:, j] = -col


def _sort_descending_stable(values: np.ndarray, tie_tol: float) -> list[int]:
    """Indices sorting values descending; near-ties keep original index order."""
    order = sorted(range(values.size), key=lambda i: -values[i])
    # Re-sort each run of near-equal values by original index.
    out: list[int] = []
    i = 0
    while i < len(order):
        j = i + 1
        while j < len(order) and values[order[i]] - values[order[j]] <= tie_tol:
            j += 1
        out.extend(sorted(order[i:j]))
        i = j
    return out


def sym_eig(s: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Converges when the off-diagonal Frobenius norm drops below
    1e-12 * ||S||_F; raises NumericalError with the residual if 100 sweeps
    are not enough.  Eigenvalues are returned in descending order, with
    near-ties (within 1e-12 * |lambda_1|) kept in original index order, and
    eigenvector signs fixed so each column's first non-negligible entry is
    positive.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ContractViolationError(f"expected a square matrix, got {s.shape}")
    if not np.isfinite(s).all():
        raise ContractViolationError("matrix contains NaN or Inf")
    if not np.array_equal(s, s.T):
        raise ContractViolationError("matrix is not exactly symmetric")

    d = s.shape[0]
    work = s.copy()
    vectors = np.eye(d)
    fro = float(np.linalg.norm(s))
    tol = _REL_TOL * fro

    if d == 1:
        values = np.array([work[0, 0]])
    else:
        sweeps = 0
        while _off_fro(work) > tol:
            if sweeps >= _MAX_SWEEPS:
                raise NumericalError(
                    "Jacobi eigensolver did not converge in "
                    f"{_MAX_SWEEPS} sweeps (off-diagonal residual "
                    f"{_off_fro(work):.3e}, tolerance {tol:.3e})"
                )
            for p in range(d - 1):
                for q in range(p + 1, d):
                    if abs(work[p, q]) > 0.0:
                        _jacobi_rotate(work, vectors, p, q)
            sweeps += 1
        values = np.diag(work).copy()

    lam1 = float(np.abs(values).max()) if values.size else 0.0
    order = _sort_descending_stable(values, _REL_TOL * lam1)
    values = values[order]
    vectors = vectors[:, order]
    _fix_signs(vectors)
    return Spectrum(values=values, vectors=vectors)


def compact_svd(a: DenseMatrix) -> SvdFactors:
    """Compact SVD routed through the Gram matrix and the Jacobi eigensolver.

    Singular values are sqrt(max(eigenvalue, 0)); values at or below
    1e-12 * s1 are treated as rank-deficient and get a zero column in U.
    """
    spec = sym_eig(gram(a))
    vals = np.maximum(spec.values, 0.0)
    s = np.sqrt(vals)
    s1 = float(s[0]) if s.size else 0.0
    cutoff = _REL_TOL * s1
    u = np.zeros((a.n, a.d))
    rank = 0
    for i in range(a.d):
        if s[i] > cutoff and s[i] > 0.0:
            u[:, i] = (a.data @ spec.vectors[:, i]) / s[i]
            rank += 1
    return SvdFactors(u=u, s=s, v=spec.vectors, rank=rank)


def spectrum_stats(a: DenseMatrix) -> CoherenceStats:
    """Coherence and gap statistics of `a` via its compact SVD."""
    f = compact_svd(a)
    if f.rank == 0:
        raise RankZeroError("spectrum statistics of an all-zero matrix")
    sigma1 = float(f.s[0])
    sigma2 = float(f.s[1]) if f.s.size > 1 else 0.0
    kappa = (sigma1**2 - sigma2**2) / sigma1**2
    upsilon = float(np.abs(f.u[:, 0]).max())
    u_inf = float(np.abs(f.u[:, : f.rank]).max())
    v_inf = float(np.abs(f.v).max())
    mu = max(a.n * u_inf**2, a.d * v_inf**2)
    return CoherenceStats(
        sigma1=sigma1,
        sigma2=sigma2,
        kappa=kappa,
        upsilon=upsilon,
        u_inf=u_inf,
        v_inf=v_inf,
        mu=mu,
        rank=f.rank,
        top_vector=f.v[:, 0].copy(),
    )


def sin_sq(x: np.ndarray, y: np.ndarray) -> float:
    """Squared sine of the principal angle between the lines spanned by x, y.

    sin^2 = 1 - <x, y>^2 / (||x||^2 ||y||^2), clamped to [0, 1].  Zero
    vectors are rejected.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    nx = float(x @ x)
    ny = float(y @ y)
    if nx == 0.0 or ny == 0.0:
        raise ContractViolationError("sin_sq of a zero vector")
    c = float(x @ y)
    val = 1.0 - (c * c) / (nx * ny)
    return min(1.0, max(0.0, val))


def rayleigh_ratio(a: DenseMatrix, x: np.ndarray) -> float:
    """x^T A^T A x / (sigma1^2 ||x||^2): captured variance relative to the top."""
    x = np.asarray(x, dtype=np.float64)
    nx = float(x @ x)
    if nx == 0.0:
        raise ContractViolationError("rayleigh_ratio of a zero vector")
    ax = a.data @ x
    num = float(ax @ ax)
    s1sq = float(compact_svd(a).s[0] ** 2)
    if s1sq == 0.0:
        raise RankZeroError("rayleigh_ratio against an all-zero matrix")
    return num / (s1sq * nx)

