"""Non-adaptive baselines: input perturbation and naive noisy power iteration.

Both assume rows with norm at most 1 (the same precondition as the
adaptive method) and share its RNG and linear-algebra conventions so that
head-to-head comparisons differ only in the mechanism.
"""

from __future__ import annotations

import numpy as np

from .adaptive import _unit_or_restart, check_private_input
from .errors import ParameterError
from .matcore import DenseMatrix, _mirror_upper, gram, sym_eig
from .mech import (
    PrivacyBudget,
    RngStream,
    gaussian_sigma,
    sample_gaussian_vec,
    split_budget,
)


def analyze_gauss(
    a: DenseMatrix,
    budget: PrivacyBudget,
    rng: RngStream,
    noiseless: bool = False,
) -> np.ndarray:
    """Top eigenvector of A^T A + E with symmetric Gaussian perturbation.

    E has iid N(0, sigma^2) entries on and above the diagonal, mirrored
    below; sigma is the Gaussian-mechanism scale for sensitivity 1 (the
    Frobenius change from one unit row).  The whole budget is spent in this
    single release; the eigenvector extraction is post-processing.  Under
    the budget's "paper" accountant sigma = gaussian_sigma(1, budget); for
    `PrivacyBudget(eps, delta, "zcdp")` sigma = 1 / sqrt(2 rho), with
    rho = zcdp_rho(budget).
    """
    check_private_input(a)
    g = gram(a)
    # A paper release spends the budget itself, not invert_budget(budget, 1).
    release = budget if budget.accountant == "paper" else split_budget(budget, 1)
    if not noiseless:
        sigma = gaussian_sigma(1.0, release)
        g = g + _mirror_upper(sigma * rng.standard_normal((a.d, a.d)))
    return sym_eig(g).vectors[:, 0].copy()


def noisy_power_naive(
    a: DenseMatrix,
    iterations: int,
    per_iter: PrivacyBudget,
    rng: RngStream,
    noiseless: bool = False,
) -> np.ndarray:
    """Power iteration with worst-case per-step Gaussian noise.

    Each step applies the full Gram matrix and adds N(0, sigma^2 I) with
    sigma calibrated to sensitivity 1 (no leverage filtering), then
    normalizes.  Composes as `iterations` Gaussian mechanisms, so per_iter
    is `split_budget(total, iterations)`.
    """
    if iterations < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    check_private_input(a)
    g = gram(a)
    sigma = 0.0 if noiseless else gaussian_sigma(1.0, per_iter)
    x = rng.standard_normal(a.d)
    for _ in range(iterations):
        x, _ = _unit_or_restart(g @ x + sample_gaussian_vec(a.d, sigma, rng), rng)
    return x
