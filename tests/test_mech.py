"""Tests for budgets, composition, noise mechanisms, and RNG streams."""

import math
from decimal import Decimal, localcontext
from types import SimpleNamespace

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
    laplace_inverse_cdf,
    sample_gaussian_vec,
    split_budget,
    zcdp_rho,
)


def zcdp_epsilon(rho, delta):
    """The epsilon at which rho-zCDP implies (epsilon, delta)-DP (Bun &
    Steinke 2016, Prop. 1.3): the conversion zcdp_rho inverts."""
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


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

    @pytest.mark.parametrize("accountant", ["paper", "zcdp"])
    def test_overflowing_sigma_is_a_parameter_error(self, accountant):
        # k / epsilon overflows to inf: no noise that large can be drawn.
        with pytest.raises(ParameterError, match="1e-320 is too small: sigma overflows"):
            gaussian_sigma(1.0, PrivacyBudget(1e-320, 1e-5, accountant))


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

    @pytest.mark.parametrize("eps", [1e-12, 1e-14])
    def test_small_epsilon_rho_has_no_cancellation(self, eps):
        # (sqrt(L + eps) - sqrt(L))^2, evaluated to 60 digits.
        with localcontext() as ctx:
            ctx.prec = 60
            log_term = Decimal(math.log(1.0 / 1e-5))
            exact = ((log_term + Decimal(eps)).sqrt() - log_term.sqrt()) ** 2
        rho = zcdp_rho(PrivacyBudget(eps, 1e-5, "zcdp"))
        assert rho == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("eps, t", [(1e-300, 10), (1e-170, 1), (3e-161, 100)])
    def test_rho_underflow_is_a_parameter_error(self, eps, t):
        # rho itself underflows to 0, or rho > 0 but its share rho / t does.
        with pytest.raises(ParameterError, match=f"rho / {t} underflows to 0"):
            split_budget(PrivacyBudget(eps, 1e-5, "zcdp"), t)

    def test_paper_split_is_invert_budget(self):
        total = PrivacyBudget(1.0, 1e-5)
        assert split_budget(total, 10) == invert_budget(total, 10)
        assert split_budget(total, 10).accountant == "paper"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            split_budget(PrivacyBudget(1.0, 1e-5, "zcdp"), 0)


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

    def test_draws_advance_the_stream(self):
        r = RngStream(0)
        r.standard_normal(3)
        r.uniform_open()
        assert r.uniform_open() == 0.5023796042735054  # the stream's next draw

    def test_uniform_open_interval(self):
        r = RngStream(3)
        u = np.array([r.uniform_open() for _ in range(10000)])
        assert np.all(u > 0.0) and np.all(u < 1.0)

    @pytest.mark.parametrize("skew, used", [(0, 0), (1, 2), (3, 7), (2, 9)])
    def test_peek_then_skip_matches_scalar_draws(self, skew, used):
        batch, scalar = RngStream(4, 2), RngStream(4, 2)
        for r in (batch, scalar):
            for _ in range(skew):
                r.uniform_open()
        peeked = batch.peek_uniform_open(9)
        assert np.array_equal(batch.peek_uniform_open(9), peeked)  # nothing consumed
        assert peeked[:used].tolist() == [scalar.uniform_open() for _ in range(used)]
        batch.skip(used)
        assert batch.uniform_open() == scalar.uniform_open()

    def test_seed_bounds(self):
        with pytest.raises(ParameterError):
            RngStream(-1)
        with pytest.raises(ParameterError):
            RngStream(0, 2**64)

    @pytest.mark.parametrize("seed, stream_id", [
        (np.int64(2026), np.int64(5)), (np.uint64(2026), 5), (2026, np.uint8(5)),
    ])
    def test_numpy_integers_name_the_python_int_stream(self, seed, stream_id):
        r, ref = RngStream(seed, stream_id), RngStream(2026, 5)
        assert (type(r.master_seed), type(r.stream_id)) == (int, int)
        assert r == ref
        assert np.array_equal(r.standard_normal(8), ref.standard_normal(8))

    def test_numpy_child_index_names_the_python_int_child(self):
        child = RngStream(2026, 5).child(np.int64(1))
        assert child == RngStream(2026, 5).child(1)
        assert np.array_equal(
            child.standard_normal(8), RngStream(2026, 5).child(1).standard_normal(8)
        )


class TestLaplace:
    def test_moments(self):
        # Var of Lap(b) is 2 b^2; mean 0.  100k draws, b = 3.
        draws = laplace_inverse_cdf(RngStream(9).peek_uniform_open(100_000), 3.0)
        assert abs(np.mean(draws)) < 0.05
        assert np.var(draws) == pytest.approx(18.0, rel=0.05)

    def test_median_absolute(self):
        # |Lap(b)| has median b ln 2
        draws = laplace_inverse_cdf(RngStream(10).peek_uniform_open(100_000), 2.0)
        assert np.median(np.abs(draws)) == pytest.approx(2.0 * math.log(2), rel=0.05)

    def test_vector_inverse_cdf_matches_scalar_draws(self):
        u = RngStream(8).peek_uniform_open(1000)
        scalar = RngStream(8)
        want = [laplace_inverse_cdf(scalar.uniform_open(), 3.0) for _ in range(1000)]
        assert laplace_inverse_cdf(u, 3.0).tolist() == want

    def test_nudged_zero_draw_stays_finite(self):
        # uniform_open turns an exact 0 into 5e-324; u - 1/2 then rounds to
        # -1/2 and only the clamp keeps the log finite.
        tiny = np.nextafter(0.0, 1.0)
        r = RngStream(0)
        r._gen = SimpleNamespace(random=lambda: 0.0)
        u = r.uniform_open()
        assert u == tiny
        x = laplace_inverse_cdf(u, 2.0)
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
