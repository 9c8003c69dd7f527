"""Private threshold search (sparse vector technique) and row filtering.

Each iteration of the adaptive method asks: what is the smallest threshold
theta such that (almost) all rows satisfy ||a_i|| * |<a_i, x>| <= theta?
The search walks a geometric grid of candidate thresholds and fires on the
first noisy count that clears a noisy bar slightly below n.  Candidates
are scaled by ||x||: theta_k = 2^k * ||x|| keeps the grid independent of
the iterate's scale, and the scaling is data-free so it costs no privacy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ParameterError
from .matcore import DenseMatrix
from .mech import RngStream, sample_laplace


@dataclass
class SvtConfig:
    """Parameters of one threshold search.

    epsilon      privacy cost of the whole search (threshold + all probes)
    beta         failure probability driving the threshold offset
    grid_lo_exp  smallest candidate exponent (theta = 2^lo * scale)
    grid_hi_exp  largest candidate exponent
    noiseless    debugging switch: no Laplace noise, bar is exactly n
    """

    epsilon: float
    beta: float = 0.05
    grid_lo_exp: int = -40
    grid_hi_exp: int = 1
    noiseless: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.beta < 1.0:
            raise ParameterError(f"beta must lie in (0, 1), got {self.beta}")
        if self.grid_lo_exp > self.grid_hi_exp:
            raise ParameterError(
                f"empty grid: lo {self.grid_lo_exp} > hi {self.grid_hi_exp}"
            )


@dataclass
class ThresholdResult:
    theta: float
    queries_issued: int
    fell_through: bool  # no candidate fired; largest grid value returned


@dataclass
class FilterOutcome:
    theta: float
    kept_gram: np.ndarray
    removed_count: int
    queries_issued: int = 0


def _products(a: DenseMatrix, x: np.ndarray) -> np.ndarray:
    """q_i = ||a_i|| * |<a_i, x>| for every row, computed in one pass."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.d,):
        raise ContractViolationError(
            f"probe vector has shape {x.shape}, expected ({a.d},)"
        )
    if not np.isfinite(x).all():
        raise ContractViolationError("probe vector contains NaN or Inf")
    return a.row_norms() * np.abs(a.data @ x)


def threshold_search(
    a: DenseMatrix, x: np.ndarray, cfg: SvtConfig, rng: RngStream
) -> ThresholdResult:
    """Smallest grid threshold whose noisy pass-count clears the noisy bar.

    The bar is n - 6 ln(1/beta) / epsilon + Lap(2/epsilon), drawn once per
    search; each candidate's count gets fresh Lap(4/epsilon) noise.  If no
    candidate fires the largest one is returned (flagged in the result).
    """
    q = _products(a, x)
    n = a.n

    scale = float(np.linalg.norm(x))
    if scale == 0.0:
        raise ContractViolationError("cannot scale grid by the norm of a zero vector")

    if cfg.noiseless:
        bar = float(n)
    else:
        bar = (
            n
            - 6.0 * math.log(1.0 / cfg.beta) / cfg.epsilon
            + sample_laplace(2.0 / cfg.epsilon, rng)
        )

    q_sorted = np.sort(q)
    probes = 0
    theta = math.ldexp(scale, cfg.grid_hi_exp)
    fell_through = True
    for k in range(cfg.grid_lo_exp, cfg.grid_hi_exp + 1):
        cand = math.ldexp(scale, k)  # scale * 2^k without overflow surprises
        count = int(np.searchsorted(q_sorted, cand, side="right"))
        probes += 1
        noisy = count if cfg.noiseless else count + sample_laplace(4.0 / cfg.epsilon, rng)
        if noisy >= bar:
            theta = cand
            fell_through = False
            break
    return ThresholdResult(theta=theta, queries_issued=probes, fell_through=fell_through)


def apply_filter(
    a: DenseMatrix, x: np.ndarray, theta: float, queries_issued: int = 0
) -> FilterOutcome:
    """Drop rows with ||a_i|| * |<a_i, x>| > theta; Gram matrix of the rest.

    The kept Gram matrix is exactly symmetric (upper triangle mirrored).
    When every row is dropped the Gram matrix is all zeros.
    """
    if not (math.isfinite(theta) and theta >= 0.0):
        raise ParameterError(f"theta must be >= 0, got {theta}")
    q = _products(a, x)
    mask = q <= theta
    kept = a.data[mask]
    if kept.shape[0] == 0:
        g = np.zeros((a.d, a.d))
    else:
        raw = kept.T @ kept
        g = np.triu(raw) + np.triu(raw, 1).T
    return FilterOutcome(
        theta=theta,
        kept_gram=g,
        removed_count=int(a.n - kept.shape[0]),
        queries_issued=queries_issued,
    )
