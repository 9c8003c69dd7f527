"""Non-adaptive baseline: Analyze-Gauss input perturbation.

It assumes rows with norm at most 1 (the same precondition as the
adaptive method) and shares its RNG and linear-algebra conventions so that
head-to-head comparisons differ only in the mechanism.  The other
baseline, naive noisy power iteration, is the adaptive power loop
without the threshold search, `run_adaptive_power(..., search=False)`
(`run_algorithm`'s "naive-power").
"""

from __future__ import annotations

import numpy as np

from .adaptive import check_private_input
from .matcore import DenseMatrix, _mirror_upper, gram, sym_eig
from .mech import PrivacyBudget, RngStream, gaussian_sigma, split_budget


def analyze_gauss(
    a: DenseMatrix,
    budget: PrivacyBudget,
    rng: RngStream,
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
    sigma = gaussian_sigma(1.0, release)
    g = g + _mirror_upper(sigma * rng.standard_normal((a.d, a.d)))
    return sym_eig(g).vectors[:, 0].copy()

