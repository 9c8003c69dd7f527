"""The analysis constants that the acceptance criteria check.

Holds the gap condition and rate solution of the bound-rate lemma, the SVT
filtered-count constant c2 and the Gaussian pipeline's concentration bound
G, with the explicit constants of the proofs (the 8 in c2, (2 + 2 sqrt(t)
+ 2t) in G) and coefficient 1 everywhere else.  No algorithm reads them.
They stay in the package, not the tests, because the benchmark's tracer
(`perfbench/spans.py`) imports this module as one of its layers; they can
move once a change to the benchmark drops that layer.  All logarithms are
natural.
"""

from __future__ import annotations

import math

from .datagen import GaussSpec
from .errors import ParameterError


def constants_K(t: int, n: int, beta: float) -> float:
    """c2 = 8 (ln(T ln n) + 2 ln(8/beta)), the SVT filtered-count constant."""
    if t < 2 or n < 3:
        raise ParameterError(f"need T >= 2 and n >= 3, got T={t}, n={n}")
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    return 8.0 * (math.log(t * math.log(n)) + 2.0 * math.log(8.0 / beta))


def gap_condition_ok(
    sigma1: float, sigma2: float, upsilon: float, epsilon: float, k: float
) -> bool:
    """kappa >= 4 (K Upsilon / (eps sigma1) + K^2 / (eps sigma1^2))."""
    kappa = (sigma1**2 - sigma2**2) / sigma1**2
    return kappa >= 4.0 * (
        k * upsilon / (epsilon * sigma1) + k * k / (epsilon * sigma1**2)
    )


def solve_rates(
    sigma1: float, sigma2: float, upsilon: float, epsilon: float, k: float
) -> dict:
    """Solve (K/e) s^2 - (sigma1^2 - (K/e) sigma1 Y - sigma2^2 - K/e) s
    + (K/e) sigma1 Y = 0 and report its roots s1 >= s2 and growth rates alpha_i.

    A negative discriminant is reported as absent roots with
    condition_ok false, not an error.
    """
    for name, v in (
        ("sigma1", sigma1),
        ("sigma2", sigma2),
        ("upsilon", upsilon),
        ("epsilon", epsilon),
        ("K", k),
    ):
        if not (math.isfinite(v) and v > 0.0):
            raise ParameterError(f"{name} must be positive and finite, got {v}")
    if sigma2 > sigma1:
        raise ParameterError(f"need sigma1 >= sigma2, got {sigma1} < {sigma2}")

    ke = k / epsilon
    a = ke
    b = -(sigma1**2 - ke * sigma1 * upsilon - sigma2**2 - ke)
    c = ke * sigma1 * upsilon
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return {"s1": None, "s2": None, "alpha1": None, "alpha2": None,
                "condition_ok": False, "rate_ratio": None}

    # Stable root pair: compute the larger-magnitude one first.
    sq = math.sqrt(disc)
    q = -(b + math.copysign(sq, b)) / 2.0
    if q == 0.0:
        r1 = r2 = 0.0
    else:
        r1, r2 = q / a, c / q
    s1, s2 = max(r1, r2), min(r1, r2)
    alpha1 = sigma2**2 + ke + ke * s1
    alpha2 = sigma2**2 + ke + ke * s2
    return {"s1": s1, "s2": s2, "alpha1": alpha1, "alpha2": alpha2,
            "condition_ok": gap_condition_ok(sigma1, sigma2, upsilon, epsilon, k),
            "rate_ratio": alpha1 / alpha2 if alpha2 != 0.0 else None}


def gaussian_bounds(spec: GaussSpec, n: int, beta: float) -> float:
    """The Gaussian pipeline's concentration bound on ||A^T A - n Sigma^2||_2:

    G = max(sqrt(2 M ln(2d/beta)), 6 R_B ln(2d/beta)),
        M = n sigmabar1^2 sum(sigmabar^2), R_B = (2 + 2 sqrt(t) + 2t) sum(sigmabar^2),
        t = ln(2n/beta)
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    trace = sum(spec.sigmabar_sq)
    t = math.log(2.0 * n / beta)
    r_b = (2.0 + 2.0 * math.sqrt(t) + 2.0 * t) * trace
    m = n * spec.sigmabar_sq[0] * trace
    logd = math.log(2.0 * spec.d / beta)
    return max(math.sqrt(2.0 * m * logd), 6.0 * r_b * logd)
