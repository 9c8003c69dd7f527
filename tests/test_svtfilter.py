"""Tests for the private threshold search and the row filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppca.errors import ContractViolationError, ParameterError
from dppca.matcore import DenseMatrix
from dppca.mech import RngStream
from dppca.svtfilter import SvtConfig, apply_filter, threshold_search


def unit_rows(seed, n=200, d=5):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    return DenseMatrix(data)


class TestSvtConfig:
    def test_defaults(self):
        cfg = SvtConfig(epsilon=0.5)
        assert (cfg.grid_lo_exp, cfg.grid_hi_exp) == (-40, 1)

    def test_rejects_empty_grid(self):
        with pytest.raises(ParameterError):
            SvtConfig(epsilon=0.5, grid_lo_exp=2, grid_hi_exp=1)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ParameterError):
            SvtConfig(epsilon=0.0)

    def test_rejects_bad_beta(self):
        with pytest.raises(ParameterError):
            SvtConfig(epsilon=0.5, beta=1.5)


class TestNoiselessSearch:
    def test_returns_smallest_covering_threshold(self):
        a = unit_rows(0)
        x = np.random.default_rng(1).normal(size=a.d)
        cfg = SvtConfig(epsilon=1.0, noiseless=True)
        res = threshold_search(a, x, cfg, RngStream(0))
        q = a.row_norms() * np.abs(a.data @ x)
        # fired threshold covers everything...
        assert np.all(q <= res.theta)
        # ...and the next smaller grid point does not
        assert np.sum(q <= res.theta / 2) < a.n
        assert not res.fell_through

    def test_unit_rows_always_fire_within_grid(self):
        # q_i <= ||a||^2 ||x|| <= ||x||, and the top grid point is 2||x||.
        for seed in range(5):
            a = unit_rows(seed)
            x = np.random.default_rng(seed + 100).normal(size=a.d)
            res = threshold_search(
                a, x, SvtConfig(epsilon=1.0, noiseless=True), RngStream(0)
            )
            assert not res.fell_through

    def test_grid_scales_with_x_norm(self):
        a = unit_rows(2)
        x = np.random.default_rng(3).normal(size=a.d)
        cfg = SvtConfig(epsilon=1.0, noiseless=True)
        t1 = threshold_search(a, x, cfg, RngStream(0)).theta
        t2 = threshold_search(a, 8.0 * x, cfg, RngStream(0)).theta
        assert t2 == pytest.approx(8.0 * t1)

    def test_zero_x_rejected_in_scaled_mode(self):
        a = unit_rows(6)
        with pytest.raises(ContractViolationError):
            threshold_search(
                a, np.zeros(a.d), SvtConfig(epsilon=1.0, noiseless=True), RngStream(0)
            )


class TestNoisySearch:
    def test_deterministic_for_fixed_stream(self):
        a = unit_rows(7)
        x = np.random.default_rng(8).normal(size=a.d)
        cfg = SvtConfig(epsilon=0.5)
        r1 = threshold_search(a, x, cfg, RngStream(3, 1))
        r2 = threshold_search(a, x, cfg, RngStream(3, 1))
        assert r1.theta == r2.theta
        assert r1.queries_issued == r2.queries_issued

    def test_large_epsilon_approaches_noiseless(self):
        # With eps huge the Laplace noise and the bar offset both vanish.
        a = unit_rows(9, n=500)
        x = np.random.default_rng(10).normal(size=a.d)
        noiseless = threshold_search(
            a, x, SvtConfig(epsilon=1.0, noiseless=True), RngStream(0)
        ).theta
        noisy = threshold_search(
            a, x, SvtConfig(epsilon=1e9), RngStream(0)
        ).theta
        assert noisy == pytest.approx(noiseless)

    def test_queries_counted(self):
        a = unit_rows(11)
        x = np.random.default_rng(12).normal(size=a.d)
        res = threshold_search(a, x, SvtConfig(epsilon=0.5), RngStream(1))
        assert 1 <= res.queries_issued <= 42  # grid size for [-40, 1]


class TestApplyFilter:
    def test_keeps_everything_at_high_theta(self):
        a = unit_rows(13)
        x = np.random.default_rng(14).normal(size=a.d)
        out = apply_filter(a, x, theta=1e6)
        assert out.removed_count == 0
        assert np.allclose(out.kept_gram, a.data.T @ a.data)

    def test_drops_everything_at_zero_theta(self):
        a = unit_rows(15)
        x = np.ones(a.d)
        out = apply_filter(a, x, theta=0.0)
        # P(exact zero products) = 0 for Gaussian rows
        assert out.removed_count == a.n
        assert np.all(out.kept_gram == 0.0)

    def test_kept_gram_matches_mask(self):
        a = unit_rows(16)
        x = np.random.default_rng(17).normal(size=a.d)
        q = a.row_norms() * np.abs(a.data @ x)
        theta = float(np.median(q))
        out = apply_filter(a, x, theta)
        kept = a.data[q <= theta]
        assert out.removed_count == a.n - kept.shape[0]
        assert np.allclose(out.kept_gram, kept.T @ kept)

    def test_kept_gram_exactly_symmetric(self):
        a = unit_rows(18)
        x = np.random.default_rng(19).normal(size=a.d)
        out = apply_filter(a, x, theta=0.3)
        assert np.array_equal(out.kept_gram, out.kept_gram.T)

    def test_negative_theta_rejected(self):
        a = unit_rows(20)
        with pytest.raises(ParameterError):
            apply_filter(a, np.ones(a.d), theta=-1.0)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_theta(self, seed):
        a = unit_rows(seed % 100, n=50)
        x = np.random.default_rng(seed).normal(size=a.d)
        lo = apply_filter(a, x, theta=0.1)
        hi = apply_filter(a, x, theta=0.5)
        assert hi.removed_count <= lo.removed_count
