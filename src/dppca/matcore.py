"""Dense matrix container and deterministic linear-algebra kernels.

Everything downstream (mechanism calibration, the adaptive iteration, the
benchmark harness) goes through the routines here so that ground-truth
spectra, sign conventions, and tie-breaking are identical everywhere.
The symmetric eigensolver is LAPACK's (`np.linalg.eigh`), which is
deterministic for a fixed numpy/LAPACK build; descending order and the sign
convention are applied here.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, NumericalError, SizingError

# Relative rank cutoff of the compact SVD and the magnitude below which an
# eigenvector entry does not decide the column's sign.
_REL_TOL = 1e-12

# Largest element count of an instance or a Gram (2**60 float64 overflow numpy).
_MAX_ELEMENTS = 2**60 - 1

# Entries per row block of the blocked n x d kernels: 2 MiB of float64.
_BLOCK_ELEMENTS = 2**18
_local = threading.local()  # each thread's scratch block (`_scratch`)

# Rows of |A V| folded into one long row before a column-max reduction.
_MAX_GROUP = 64


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-d array."""
    sq = np.einsum("ij,ij->i", x, x)
    return np.sqrt(sq, out=sq)


@dataclass
class DenseMatrix:
    """An n x d row-major float64 matrix; rows are data points.

    Construction validates shape and finiteness.  `n >= 1` and `d >= 1`
    are required, in any ratio: a private algorithm that refused d > n
    would turn an error into an output when one row is added.
    The matrix owns `data` (pass a copy of an array you keep): the row
    norms and the Gram are kept (read-only) from first use, and two calls
    change the rows in place, with no other thread reading the matrix.
    `datagen.scale_for_privacy` rescales them and drops the Gram, and
    `svtfilter.lay_out_by_norm` reorders them, with the norms, into the
    `_layout` groups (end row, largest code past it); outputs depend on the
    rows as a multiset, up to rounding.
    """

    data: np.ndarray
    _row_norms: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _gram: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _layout: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ContractViolationError(
                f"expected a 2-d array, got ndim={arr.ndim}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ContractViolationError(f"degenerate shape {arr.shape}")
        # min and max propagate NaN and +-inf without an n x d temporary.
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
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
            norms = _row_norms(self.data)
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
    top_vector: np.ndarray = field(repr=False)  # v1, length d, unit norm


def _check_sizing(n: int, d: int) -> None:
    if n * d > _MAX_ELEMENTS or d * d > _MAX_ELEMENTS:
        raise SizingError(f"product of shape ({n}, {d}) exceeds addressable size")


def _row_blocks(n: int, d: int) -> Iterator[slice]:
    """Row slices covering an n x d array in blocks of at most
    _BLOCK_ELEMENTS entries (at least one row each).

    Block sizes differ by at most one row.  A short tail block would change
    the bytes of a blocked product: a one-row block sends BLAS to gemv.
    Equal blocks give the one-shot product's bytes on a fixed BLAS build.
    """
    count = -(-n // max(1, _BLOCK_ELEMENTS // d))
    for i in range(count):
        yield slice(i * n // count, (i + 1) * n // count)


def _scratch(rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) view of this thread's float64 scratch block, at least
    a row block, kept for the thread's life: the blocked products and the
    threshold search (2n floats) map no fresh memory, one at a time.
    """
    buf = getattr(_local, "buf", None)
    if buf is None or buf.size < rows * cols:
        buf = _local.buf = np.empty(max(rows * cols, _BLOCK_ELEMENTS))
    return buf[: rows * cols].reshape(rows, cols)


def _mirror_upper(m: np.ndarray) -> np.ndarray:
    """The exactly symmetric matrix with m's upper triangle (diagonal included)."""
    return np.triu(m) + np.triu(m, 1).T


def gram(a: DenseMatrix) -> np.ndarray:
    """Return A^T A as an exactly symmetric (d, d) array.

    The upper triangle of the accumulated product is mirrored into the
    lower triangle so the result is bitwise symmetric.  It is computed once
    per matrix and kept on it, read-only.
    """
    if a._gram is None:
        _check_sizing(a.n, a.d)
        # np.dot, not @: matmul holds the GIL for a transposed operand.
        g = _mirror_upper(np.dot(a.data.T, a.data))
        g.flags.writeable = False
        a._gram = g
    return a._gram


def _fix_signs(vectors: np.ndarray) -> None:
    """Flip each column so its first entry with magnitude > 1e-12 is positive."""
    first = (np.abs(vectors) > _REL_TOL).argmax(axis=0)  # 0 if none
    lead = vectors[first, np.arange(vectors.shape[1])]
    # lead < -1e-12 holds exactly when the first entry past 1e-12 is negative.
    np.negative(vectors, out=vectors, where=lead < -_REL_TOL)


def sym_eig(s: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix by LAPACK (`np.linalg.eigh`).

    Eigenvalues are returned in descending order (tied eigenvectors span the
    eigenspace in whatever basis LAPACK returns, the same on every call of a
    fixed build) and eigenvector signs are fixed so each column's first
    non-negligible entry is positive.  A LAPACK failure raises NumericalError.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ContractViolationError(f"expected a square matrix, got {s.shape}")
    if not np.isfinite(s).all():
        raise ContractViolationError("matrix contains NaN or Inf")
    if not np.array_equal(s, s.T):
        raise ContractViolationError("matrix is not exactly symmetric")
    try:
        values, vectors = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    _fix_signs(vectors)
    return Spectrum(values=values, vectors=vectors)


def compact_svd(a: DenseMatrix) -> SvdFactors:
    """Compact SVD routed through the Gram matrix and the symmetric eigensolver.

    Singular values are sqrt(max(eigenvalue, 0)); values at or below
    1e-12 * s1 are treated as rank-deficient and get a zero column in U.
    The kept values are a prefix, so U's rank columns are one product.
    No trial calls it (spectrum_stats builds no U); it stays while the
    benchmark's binding test (perfbench/test_perfbench.py) reads it.
    """
    spec = sym_eig(gram(a))
    s = np.sqrt(np.maximum(spec.values, 0.0))
    rank = int(np.count_nonzero(s > _REL_TOL * s[0]))
    u = np.zeros((a.n, a.d))
    np.matmul(a.data, spec.vectors[:, :rank], out=u[:, :rank])
    u[:, :rank] /= s[:rank]
    return SvdFactors(u=u, s=s, v=spec.vectors, rank=rank)


def _max_into(col_max: np.ndarray, m: np.ndarray) -> None:
    """col_max = max(col_max, column maxima of m), for a C-contiguous m.

    Groups of _MAX_GROUP rows are read as one long row, so the reduction
    runs _MAX_GROUP * k wide instead of k wide; a max is exact in any order.
    """
    rows, k = m.shape
    full = rows - rows % _MAX_GROUP
    if full:
        wide = m[:full].reshape(-1, _MAX_GROUP * k).max(axis=0)
        np.maximum(col_max, wide.reshape(_MAX_GROUP, k).max(axis=0), out=col_max)
    if full < rows:
        np.maximum(col_max, m[full:].max(axis=0), out=col_max)


def spectrum_stats(a: DenseMatrix) -> CoherenceStats:
    """Coherence and gap statistics of `a` from its Gram eigendecomposition.

    Singular values are sqrt(max(eigenvalue, 0)); values at or below
    1e-12 * s1 fall outside the rank.  U's rank columns are A V / s, so
    upsilon and u_inf are column maxima of |A V| divided by s, taken one
    row block of A V at a time, in the thread's scratch block: no n x d U
    and no n x d product.
    """
    spec = sym_eig(gram(a))
    s = np.sqrt(np.maximum(spec.values, 0.0))
    rank = int(np.count_nonzero(s > _REL_TOL * s[0]))
    if rank == 0:
        raise ContractViolationError("spectrum statistics of an all-zero matrix")
    v = spec.vectors[:, :rank]
    col_max = np.zeros(rank)
    for rows in _row_blocks(a.n, a.d):
        av = np.matmul(a.data[rows], v, out=_scratch(rows.stop - rows.start, rank))
        _max_into(col_max, np.abs(av, out=av))
    # fl(|x| / s) is monotone in |x| for s > 0: dividing the column maxima
    # gives the maxima of the divided columns, bit for bit.
    u_max = col_max / s[:rank]
    sigma1 = float(s[0])
    sigma2 = float(s[1]) if s.size > 1 else 0.0
    kappa = (sigma1**2 - sigma2**2) / sigma1**2
    upsilon = float(u_max[0])
    u_inf = float(u_max.max())
    v_inf = float(np.abs(spec.vectors).max())
    mu = max(a.n * u_inf**2, a.d * v_inf**2)
    return CoherenceStats(
        sigma1=sigma1,
        sigma2=sigma2,
        kappa=kappa,
        upsilon=upsilon,
        u_inf=u_inf,
        v_inf=v_inf,
        mu=mu,
        top_vector=spec.vectors[:, 0].copy(),
    )


def sin_sq(x: np.ndarray, y: np.ndarray) -> float:
    """Squared sine of the principal angle between the lines spanned by x, y.

    sin^2 = 1 - <x, y>^2 / (||x||^2 ||y||^2), clamped to [0, 1].  Zero
    vectors are rejected, and so are those whose squared norm is not finite
    (a NaN, an infinite or an overflowing entry), which the clamp would map to 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    nx = float(x @ x)
    ny = float(y @ y)
    if not (0.0 < nx < np.inf and 0.0 < ny < np.inf):  # also NaN
        raise ContractViolationError("sin_sq: a squared norm is 0 or not finite")
    c = float(x @ y)
    val = 1.0 - (c * c) / (nx * ny)
    return min(1.0, max(0.0, val))


def rayleigh_ratio(a: DenseMatrix, x: np.ndarray, sigma1: float) -> float:
    """x^T A^T A x / (sigma1^2 ||x||^2): captured variance relative to the top.

    `sigma1` is A's top singular value, as `spectrum_stats(a).sigma1` gives it.
    Vectors whose squared norm is 0 or not finite are rejected.
    """
    x = np.asarray(x, dtype=np.float64)
    nx = float(x @ x)
    if not 0.0 < nx < np.inf:  # also NaN
        raise ContractViolationError("rayleigh_ratio: the squared norm is 0 or not finite")
    num = float(x @ np.dot(gram(a), x))  # ||A x||^2 from the cached Gram
    s1sq = float(sigma1) ** 2
    if s1sq == 0.0:
        raise ContractViolationError("rayleigh_ratio against an all-zero matrix")
    return num / (s1sq * nx)

