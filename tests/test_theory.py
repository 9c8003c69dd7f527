"""Tests for the analysis constants the acceptance criteria check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppca.datagen import GaussSpec
from dppca.errors import ParameterError
from dppca.theory import constants_K, gaussian_bounds, solve_rates


class TestConstantsK:
    def test_worked_values(self):
        assert constants_K(100, 10**4, 0.05) == pytest.approx(135.81, abs=0.01)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            constants_K(1, 1000, 0.05)  # T < 2
        with pytest.raises(ParameterError):
            constants_K(10, 2, 0.05)  # n < 3
        with pytest.raises(ParameterError):
            constants_K(10, 1000, 1.5)


class TestSolveRates:
    def test_worked_example(self):
        # sigma1^2 = 10, sigma2^2 = 2, K/eps = 1, sigma1*upsilon = 0.1
        s1 = math.sqrt(10)
        rs = solve_rates(s1, math.sqrt(2), 0.1 / s1, 1.0, 1.0)
        assert rs["s1"] == pytest.approx(6.8855, abs=1e-3)
        assert rs["s2"] == pytest.approx(0.0145, abs=1e-3)
        assert rs["alpha1"] == pytest.approx(9.8855, abs=1e-3)
        assert rs["alpha2"] == pytest.approx(3.0145, abs=1e-3)
        assert rs["rate_ratio"] == pytest.approx(3.279, abs=1e-3)
        # kappa = 0.8, so the claimed ratio floor is 1.4
        assert rs["rate_ratio"] >= 1.4
        assert rs["condition_ok"]

    def test_roots_satisfy_quadratic(self):
        rs = solve_rates(3.0, 1.0, 0.02, 2.0, 5.0)
        ke = 5.0 / 2.0
        b = -(9.0 - ke * 3.0 * 0.02 - 1.0 - ke)
        c = ke * 3.0 * 0.02
        scale = max(abs(ke), abs(b), abs(c))
        for s in (rs["s1"], rs["s2"]):
            assert abs(ke * s * s + b * s + c) <= 1e-9 * scale * max(1.0, s * s)

    def test_negative_discriminant_reported_absent(self):
        # Chosen so the linear coefficient nearly vanishes: no real roots.
        rs = solve_rates(2.0, 1.0, 0.02, 1.0, 2.9)
        assert rs["s1"] is None and rs["s2"] is None
        assert not rs["condition_ok"]

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            solve_rates(-1.0, 0.5, 0.1, 1.0, 1.0)
        with pytest.raises(ParameterError):
            solve_rates(1.0, 2.0, 0.1, 1.0, 1.0)  # sigma2 > sigma1


# K >= 1 throughout: the analysis constant is a sum of large log terms
# (hundreds in practice), and the root inequalities rely on it exceeding 1.
tuples = st.tuples(
    st.floats(min_value=1.0, max_value=100.0),   # sigma1
    st.floats(min_value=0.0, max_value=0.9),     # sigma2 as a fraction of sigma1
    st.floats(min_value=1e-4, max_value=0.5),    # upsilon * sigma1 product scale
    st.floats(min_value=0.01, max_value=10.0),   # epsilon
    st.floats(min_value=1.0, max_value=500.0),   # K
)


class TestBoundRateInequalities:
    @given(tuples)
    @settings(max_examples=1000, deadline=None)
    def test_claims_hold_under_condition(self, tup):
        sigma1, frac, ups_scale, eps, k = tup
        sigma2 = max(frac * sigma1, 1e-6)
        upsilon = ups_scale / sigma1
        rs = solve_rates(sigma1, sigma2, upsilon, eps, k)
        if not rs["condition_ok"] or rs["s1"] is None:
            return
        kappa = (sigma1**2 - sigma2**2) / sigma1**2
        assert rs["s1"] > rs["s2"] > 0.0
        assert rs["alpha1"] > rs["alpha2"] > 0.0
        assert rs["s2"] <= sigma1 * upsilon + 1e-12
        assert rs["rate_ratio"] >= 1.0 + kappa / 2.0 - 1e-12


class TestGaussianBounds:
    def test_G_monotone_in_n_and_inverse_beta(self):
        spec = GaussSpec.spiked(6, 0.5, 0.5)
        gs_n = [gaussian_bounds(spec, n, 0.05) for n in (100, 1000, 10_000)]
        assert all(a < b for a, b in zip(gs_n, gs_n[1:]))
        gs_b = [gaussian_bounds(spec, 1000, b) for b in (0.2, 0.05, 0.001)]
        assert all(a < b for a, b in zip(gs_b, gs_b[1:]))

    def test_all_finite(self):
        assert math.isfinite(gaussian_bounds(GaussSpec.spiked(12, 0.4, 0.3), 5000, 0.01))
