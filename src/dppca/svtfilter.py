"""Private threshold search (sparse vector technique) and row filtering.

Each iteration of the adaptive method asks: what is the smallest threshold
theta such that (almost) all rows satisfy ||a_i|| * |<a_i, x>| <= theta?
The search walks a geometric grid of candidate thresholds and fires on the
first noisy count that clears a noisy bar slightly below n.  Candidates
are scaled by ||x||: theta_k = 2^k * ||x|| keeps the grid independent of
the iterate's scale, and the scaling is data-free so it costs no privacy.

The search computes A x once for its row statistics and also returns the
filter it implies: A x with the entries of the rows above theta set to
zero, so the caller's step A^T (mask * A x) reads A only through A x and
A^T y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ParameterError
from .matcore import DenseMatrix
from .mech import RngStream, sample_laplace

# Candidate thresholds are 2^k * ||x|| for k in [GRID_LO_EXP, GRID_HI_EXP].
GRID_LO_EXP = -40
GRID_HI_EXP = 1


@dataclass
class SvtConfig:
    """Parameters of one threshold search.

    epsilon      privacy cost of the whole search (threshold + all probes)
    beta         failure probability driving the threshold offset
    noiseless    debugging switch: no Laplace noise, bar is exactly n
    """

    epsilon: float
    beta: float = 0.05
    noiseless: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.beta < 1.0:
            raise ParameterError(f"beta must lie in (0, 1), got {self.beta}")


@dataclass
class ThresholdResult:
    theta: float
    queries_issued: int
    fell_through: bool  # no candidate fired; largest grid value returned
    removed_count: int  # rows with ||a_i|| * |<a_i, x>| > theta
    kept_ax: np.ndarray  # A x with the removed rows' entries set to 0


def threshold_search(
    a: DenseMatrix, x: np.ndarray, cfg: SvtConfig, rng: RngStream
) -> ThresholdResult:
    """Smallest grid threshold whose noisy pass-count clears the noisy bar.

    The bar is n - 6 ln(1/beta) / epsilon + Lap(2/epsilon), drawn once per
    search; each candidate's count gets fresh Lap(4/epsilon) noise, drawn
    in grid order until one fires.  If no candidate fires the largest one
    is returned (flagged in the result).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.d,):
        raise ContractViolationError(
            f"probe vector has shape {x.shape}, expected ({a.d},)"
        )
    if not np.isfinite(x).all():
        raise ContractViolationError("probe vector contains NaN or Inf")
    ax = a.data @ x
    q = a.row_norms() * np.abs(ax)
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

    # scale * 2^k, exact (a power-of-two scaling)
    grid = np.ldexp(scale, np.arange(GRID_LO_EXP, GRID_HI_EXP + 1))
    counts = np.searchsorted(np.sort(q), grid, side="right").tolist()
    fired = len(grid) - 1
    fell_through = True
    for k, count in enumerate(counts):
        noisy = count if cfg.noiseless else count + sample_laplace(4.0 / cfg.epsilon, rng)
        if noisy >= bar:
            fired, fell_through = k, False
            break
    theta = float(grid[fired])
    return ThresholdResult(
        theta=theta,
        queries_issued=fired + 1,
        fell_through=fell_through,
        removed_count=n - counts[fired],
        kept_ax=np.where(q <= theta, ax, 0.0),
    )
