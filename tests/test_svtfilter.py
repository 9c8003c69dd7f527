"""Tests for the private threshold search and the row filter it returns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppca.errors import ContractViolationError, ParameterError
from dppca.matcore import DenseMatrix
from dppca.mech import RngStream
from dppca.svtfilter import GRID_HI_EXP, GRID_LO_EXP, SvtConfig, threshold_search


def unit_rows(seed, n=200, d=5):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    return DenseMatrix(data)


class TestSvtConfig:
    def test_defaults(self):
        cfg = SvtConfig(epsilon=0.5)
        assert (cfg.beta, cfg.noiseless) == (0.05, False)
        assert (GRID_LO_EXP, GRID_HI_EXP) == (-40, 1)

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




class TestFilter:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
        st.sampled_from([0.05, 0.5, 5.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_kept_ax_is_masked_ax(self, seed, noiseless, epsilon):
        rng = np.random.default_rng(seed)
        a = DenseMatrix(unit_rows(seed % 100, n=60).data
                        * rng.uniform(0.0, 1.0, size=(60, 1)))
        x = rng.normal(size=a.d)
        res = threshold_search(
            a, x, SvtConfig(epsilon=epsilon, noiseless=noiseless),
            RngStream(seed, 2),
        )
        ax = a.data @ x
        q = a.row_norms() * np.abs(ax)
        assert np.array_equal(res.kept_ax, np.where(q <= res.theta, ax, 0.0))
        assert res.removed_count == int(np.sum(q > res.theta))

