"""Closed-form calculators for the analysis constants and error bounds.

Asymptotic statements hide constants; these calculators use the explicit
constants that appear in the proofs (the 8's in c1/c2, 6000 and (1 + 8Td)
in the final error bound, (2 + 2 sqrt(t) + 2t) in the row-length bound)
and coefficient 1 everywhere else.  The resulting numbers are
shape-faithful envelopes, not tight predictions, and downstream checks
treat them as trends.  All logarithms are natural.
"""

from __future__ import annotations

import math

from .datagen import GaussSpec, _row_length_bound
from .errors import ParameterError


def constants_K(t: int, n: int, beta: float, delta: float) -> tuple[float, float, float]:
    """c1 = 8 sqrt(ln(2/delta) ln(2Tn/beta)), c2 = 8 (ln(T ln n) + 2 ln(8/beta)).

    Returns (c1, c2, K = c1 + c2).  Any log argument at or below 1 is a
    domain error.
    """
    if t < 2 or n < 3:
        raise ParameterError(f"need T >= 2 and n >= 3, got T={t}, n={n}")
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    for name, arg in (
        ("2/delta", 2.0 / delta),
        ("2Tn/beta", 2.0 * t * n / beta),
        ("T ln n", t * math.log(n)),
        ("8/beta", 8.0 / beta),
    ):
        if arg <= 1.0:
            raise ParameterError(f"log argument {name} = {arg} <= 1")
    c1 = 8.0 * math.sqrt(math.log(2.0 / delta) * math.log(2.0 * t * n / beta))
    c2 = 8.0 * (math.log(t * math.log(n)) + 2.0 * math.log(8.0 / beta))
    return c1, c2, c1 + c2


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


def bound_B(
    sigma1: float,
    sigma2: float,
    upsilon: float,
    epsilon: float,
    t: int,
    k: float,
    d: int,
    n: int,
) -> tuple[float, float | None]:
    """Error-bound coefficient R and the squared bound B.

    kappa = (sigma1^2 - sigma2^2) / sigma1^2, Y = upsilon,
    R = (sqrt(min(4n/sigma1^2, d)) / (eps sigma1^2 sqrt(kappa))
         + 1 / (eps sigma1^2 kappa) + sqrt(d) / (eps sigma1^2)) * K sigma1 Y
    B = (R + 6000 K (1 + 8Td) (1 + kappa/2)^(-T))^2

    B is reported absent when the gap condition fails (the bound is only
    proved under it); R is always returned.
    """
    if t < 1:
        raise ParameterError(f"T must be >= 1, got {t}")
    kappa = (sigma1**2 - sigma2**2) / sigma1**2 if sigma1 > 0.0 else 0.0
    if kappa <= 0.0:
        raise ParameterError("need sigma1 > 0 and a positive gap")
    s1sq = sigma1 * sigma1
    r = (
        math.sqrt(min(4.0 * n / s1sq, float(d))) / (epsilon * s1sq * math.sqrt(kappa))
        + 1.0 / (epsilon * s1sq * kappa)
        + math.sqrt(d) / (epsilon * s1sq)
    ) * k * sigma1 * upsilon
    if not gap_condition_ok(sigma1, max(sigma2, 1e-300), upsilon, epsilon, k):
        return r, None
    b = (r + 6000.0 * k * (1.0 + 8.0 * t * d) * (1.0 + kappa / 2.0) ** (-t)) ** 2
    return r, b


def gaussian_bounds(spec: GaussSpec, n: int, beta: float) -> dict:
    """Row-length, concentration, Wedin, and sample-size bounds for the
    Gaussian pipeline, as the report's L, G, wedin_bound and n_min.

    L = 1 + sqrt(2 ln(n/beta))
    G = max(sqrt(2 M ln(2d/beta)), 6 R_B ln(2d/beta)),
        M = n sigmabar1^2 sum(sigmabar^2), R_B = (2 + 2 sqrt(t) + 2t) sum(sigmabar^2),
        t = ln(2n/beta)
    wedin_bound = min(1, (G / (n sigmabar1^2 kappabar))^2), Wedin constant 1
    n_min = max(d, (2 K3)^2 d, (4 K3)^2 d / kappabar^2), K3 = 2 + 2 sqrt(t) + 2t
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    d = spec.d
    trace = sum(spec.sigmabar_sq)
    s1sq = spec.sigmabar_sq[0]
    kbar = spec.kappabar
    if kbar <= 0.0:
        raise ParameterError(f"the spectrum needs a positive gap, got kappabar {kbar!r}")

    t = math.log(2.0 * n / beta)
    k3 = 2.0 + 2.0 * math.sqrt(t) + 2.0 * t
    r_b = k3 * trace
    m = n * s1sq * trace
    logd = math.log(2.0 * d / beta)
    g = max(math.sqrt(2.0 * m * logd), 6.0 * r_b * logd)
    wedin = min(1.0, (g / (n * s1sq * kbar)) ** 2)
    n_min = max(float(d), (2.0 * k3) ** 2 * d, (4.0 * k3) ** 2 * d / kbar**2)
    return {"L": _row_length_bound(n, beta), "G": g, "wedin_bound": wedin, "n_min": n_min}


def build_report(
    t: int,
    n: int,
    d: int,
    beta: float,
    delta: float,
    epsilon: float,
    sigma1: float,
    sigma2: float,
    upsilon: float,
    gauss_spec: GaussSpec | None = None,
) -> dict:
    """The JSON-ready report `dppca theory` prints: c1, c2, K, the rate
    fields, R, B and, given a spec, its gaussian bounds (L, G, ...)."""
    c1, c2, k = constants_K(t, n, beta, delta)
    rates = solve_rates(sigma1, sigma2, upsilon, epsilon, k)
    r, b = bound_B(sigma1, sigma2, upsilon, epsilon, t, k, d, n)
    out = {"c1": c1, "c2": c2, "K": k, **rates, "R": r, "B": b}
    if gauss_spec is not None:
        out["gaussian"] = gaussian_bounds(gauss_spec, n, beta)
    return out
