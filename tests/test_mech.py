"""Tests for budgets, composition, noise mechanisms, and RNG streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppca.errors import BudgetError, ParameterError
from dppca.mech import (
    PrivacyBudget,
    RngStream,
    compose,
    exp_mech_select,
    gaussian_sigma,
    invert_budget,
    sample_gaussian_vec,
    sample_laplace,
    split_budget,
    zcdp_epsilon,
    zcdp_rho,
)


class TestPrivacyBudget:
    def test_valid(self):
        b = PrivacyBudget(0.5, 1e-6)
        assert (b.epsilon, b.delta, b.accountant) == (0.5, 1e-6, "paper")

    def test_rejects_unknown_accountant(self):
        with pytest.raises(ParameterError, match="accountant must be one of"):
            PrivacyBudget(1.0, 1e-5, "rdp")

    @pytest.mark.parametrize("eps,delta", [
        (0.0, 1e-6), (-1.0, 1e-6), (float("inf"), 1e-6),
        (1.0, 0.0), (1.0, 1.0), (1.0, -0.1), (float("nan"), 1e-6),
    ])
    def test_invalid(self, eps, delta):
        with pytest.raises(BudgetError):
            PrivacyBudget(eps, delta)


class TestCompose:
    def test_worked_value(self):
        # Hand arithmetic: 2*(10*0.01 + sqrt(2*ln(1e6)*10)*0.1)
        total = compose(PrivacyBudget(0.1, 1e-6), 10)
        assert total.epsilon == pytest.approx(3.52451, rel=1e-5)
        assert total.delta == pytest.approx(1.1e-5, rel=1e-12)

    def test_single_mechanism(self):
        total = compose(PrivacyBudget(0.2, 1e-8), 1)
        expect = 2 * (0.2**2 + math.sqrt(2 * math.log(1e8)) * 0.2)
        assert total.epsilon == pytest.approx(expect)
        assert total.delta == pytest.approx(2e-8)

    def test_delta_overflow(self):
        with pytest.raises(BudgetError):
            compose(PrivacyBudget(0.01, 0.1), 20)

    def test_bad_count(self):
        with pytest.raises(ParameterError):
            compose(PrivacyBudget(0.1, 1e-6), 0)


budgets = st.tuples(
    st.floats(min_value=1e-3, max_value=50.0),
    st.floats(min_value=1e-12, max_value=0.5),
    st.integers(min_value=1, max_value=200),
)


class TestInvertBudget:
    @given(budgets)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, args):
        eps, delta, t = args
        total = PrivacyBudget(eps, delta)
        per = invert_budget(total, t)
        back = compose(per, t)
        assert back.epsilon == pytest.approx(total.epsilon, rel=1e-9)
        assert back.delta == pytest.approx(total.delta, rel=1e-9)

    def test_more_mechanisms_less_epsilon(self):
        total = PrivacyBudget(1.0, 1e-5)
        e = [invert_budget(total, t).epsilon for t in (1, 5, 25, 125)]
        assert all(a > b for a, b in zip(e, e[1:]))


class TestGaussianSigma:
    def test_alg_variant_worked_value(self):
        # sqrt(2 ln(2e5)) = 4.94088...
        assert gaussian_sigma(1.0, PrivacyBudget(1.0, 1e-5)) == pytest.approx(
            4.94088, rel=1e-5
        )

    def test_scales_linearly_in_sensitivity(self):
        b = PrivacyBudget(0.3, 1e-6)
        assert gaussian_sigma(2.5, b) == pytest.approx(2.5 * gaussian_sigma(1.0, b))

    def test_unknown_variant(self):
        with pytest.raises(ParameterError, match="accountant must be one of"):
            gaussian_sigma(1.0, PrivacyBudget(1.0, 1e-5, "bogus"))


class TestZcdpSplit:
    def test_worked_values(self):
        total = PrivacyBudget(1.0, 1e-5, "zcdp")
        assert zcdp_rho(total) == pytest.approx(0.020820, rel=1e-4)
        per = split_budget(total, 2 * 5)
        assert per.accountant == "zcdp"
        assert per.epsilon == pytest.approx(0.064529, rel=1e-4)
        assert gaussian_sigma(1.0, per) == pytest.approx(15.497, rel=1e-4)
        release = split_budget(total, 1)
        assert gaussian_sigma(1.0, release) == pytest.approx(4.9006, rel=1e-4)

    @given(budgets)
    @settings(max_examples=200, deadline=None)
    def test_composes_back_to_the_request(self, args):
        eps, delta, t = args
        total = PrivacyBudget(eps, delta, "zcdp")
        rho = zcdp_rho(total)
        per = split_budget(total, 2 * t)
        theta = 0.37
        sigma = gaussian_sigma(theta, per)
        spent = t * per.epsilon**2 / 2 + t * theta**2 / (2 * sigma**2)
        assert spent == pytest.approx(rho, rel=1e-12)
        assert zcdp_epsilon(spent, delta) == pytest.approx(eps, rel=1e-12)

    def test_paper_split_is_invert_budget(self):
        total = PrivacyBudget(1.0, 1e-5)
        assert split_budget(total, 10) == invert_budget(total, 10)
        assert split_budget(total, 10).accountant == "paper"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            split_budget(PrivacyBudget(1.0, 1e-5, "zcdp"), 0)
        with pytest.raises(BudgetError):
            zcdp_epsilon(0.0, 1e-5)


class TestRngStream:
    def test_deterministic_per_fields(self):
        a = RngStream(42, 7).standard_normal(10)
        b = RngStream(42, 7).standard_normal(10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 7).standard_normal(10)
        b = RngStream(42, 8).standard_normal(10)
        assert not np.array_equal(a, b)

    def test_child_reproducible_and_distinct(self):
        r = RngStream(1, 5)
        c0 = r.child(0)
        assert c0.master_seed == 1
        assert np.array_equal(
            c0.standard_normal(4), RngStream(1, 5).child(0).standard_normal(4)
        )
        assert c0.stream_id != r.child(1).stream_id

    def test_counter_tracks_draws(self):
        r = RngStream(0)
        r.standard_normal(3)
        r.uniform_open()
        assert r.counter == 2

    def test_uniform_open_interval(self):
        u = RngStream(3).uniform_open(10000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_seed_bounds(self):
        with pytest.raises(ParameterError):
            RngStream(-1)
        with pytest.raises(ParameterError):
            RngStream(0, 2**64)


class TestLaplace:
    def test_zero_scale(self):
        assert sample_laplace(0.0, RngStream(0)) == 0.0

    def test_moments(self):
        # Var of Lap(b) is 2 b^2; mean 0.  100k draws, b = 3.
        draws = sample_laplace(3.0, RngStream(9), size=100_000)
        assert abs(np.mean(draws)) < 0.05
        assert np.var(draws) == pytest.approx(18.0, rel=0.05)

    def test_median_absolute(self):
        # |Lap(b)| has median b ln 2
        draws = sample_laplace(2.0, RngStream(10), size=100_000)
        assert np.median(np.abs(draws)) == pytest.approx(2.0 * math.log(2), rel=0.05)

    def test_inverse_cdf_deterministic(self):
        a = sample_laplace(1.0, RngStream(5), size=8)
        b = sample_laplace(1.0, RngStream(5), size=8)
        assert np.array_equal(a, b)

    def test_negative_scale_rejected(self):
        with pytest.raises(ParameterError):
            sample_laplace(-1.0, RngStream(0))

    def test_nudged_zero_draw_stays_finite(self, monkeypatch):
        # uniform_open turns an exact 0 into 5e-324; u - 1/2 then rounds to
        # -1/2 and only the clamp keeps the log finite.
        tiny = np.nextafter(0.0, 1.0)
        monkeypatch.setattr(RngStream, "uniform_open", lambda self, size=None: tiny)
        x = sample_laplace(2.0, RngStream(0))
        assert math.isfinite(x)
        assert x == pytest.approx(2.0 * math.log(tiny))
        assert x == pytest.approx(-744.44 * 2.0, rel=1e-4)


class TestGaussianVec:
    def test_zero_sigma(self):
        assert np.all(sample_gaussian_vec(5, 0.0, RngStream(0)) == 0.0)

    def test_variance(self):
        v = sample_gaussian_vec(200_000, 2.0, RngStream(1))
        assert np.var(v) == pytest.approx(4.0, rel=0.05)


class TestExpMechSelect:
    def test_degenerate_epsilon_returns_argmax(self):
        q = np.array([1.0, 5.0, 5.0, 2.0])
        # Overflowing logits: lowest-index argmax wins deterministically.
        for seed in range(20):
            assert exp_mech_select(q, 1.0, 1e309, RngStream(seed)) == 1

    def test_huge_finite_epsilon_concentrates(self):
        q = np.array([0.1, 0.9, 0.5])
        picks = {exp_mech_select(q, 1.0, 1e9, RngStream(s)) for s in range(50)}
        assert picks == {1}

    def test_distribution_matches_softmax(self):
        q = np.array([0.0, 1.0])
        eps, sens = 2.0, 1.0
        # P(1)/P(0) = exp(eps/(2 sens)) = e
        counts = np.zeros(2)
        for s in range(20_000):
            counts[exp_mech_select(q, sens, eps, RngStream(77, s))] += 1
        ratio = counts[1] / counts[0]
        assert ratio == pytest.approx(math.e, rel=0.08)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            exp_mech_select(np.array([]), 1.0, 1.0, RngStream(0))
        with pytest.raises(ParameterError):
            exp_mech_select(np.array([1.0, np.nan]), 1.0, 1.0, RngStream(0))
        with pytest.raises(ParameterError):
            exp_mech_select(np.array([1.0]), 0.0, 1.0, RngStream(0))
        with pytest.raises(BudgetError):
            exp_mech_select(np.array([1.0]), 1.0, 0.0, RngStream(0))
