"""Tests for the private threshold search and the row filter it returns."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppca import svtfilter
from dppca.errors import ContractViolationError, ParameterError
from dppca.matcore import DenseMatrix, _row_norms, gram
from dppca.mech import RngStream
from dppca.svtfilter import (
    _MAX_SCALE,
    _MIN_SCALE,
    _POW2,
    GRID_HI_EXP,
    GRID_LO_EXP,
    _grid_counts,
    lay_out_by_norm,
    threshold_search,
)
from oracles import reference_search


def unit_rows(seed, n=200, d=5):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    return DenseMatrix(data)


class TestSvtConfig:
    """The search's own parameters: epsilon and beta."""

    def test_defaults(self):
        a = unit_rows(0)
        x = np.random.default_rng(1).normal(size=a.d)
        r_default, r_explicit = RngStream(2), RngStream(2)
        got = threshold_search(a, x, 0.5, r_default)
        want = threshold_search(a, x, 0.5, r_explicit, beta=0.05)
        assert (got.theta, got.queries_issued, got.removed_count) == (
            want.theta, want.queries_issued, want.removed_count)
        assert r_default.uniform_open() == r_explicit.uniform_open()
        assert (GRID_LO_EXP, GRID_HI_EXP) == (-40, 1)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ParameterError):
            threshold_search(unit_rows(0), np.ones(5), 0.0, RngStream(0))

    def test_rejects_bad_beta(self):
        with pytest.raises(ParameterError):
            threshold_search(unit_rows(0), np.ones(5), 0.5, RngStream(0), beta=1.5)

    def test_rejects_epsilon_whose_noise_scale_overflows(self):
        with pytest.raises(ParameterError, match="overflows"):
            threshold_search(unit_rows(0), np.ones(5), 1e-309, RngStream(0))


class TestNoiselessSearch:
    """At epsilon 1e9 the noise is far below one row, so the search fires,
    as a search without noise would, on the first probe that removes no row."""

    def test_returns_smallest_covering_threshold(self):
        a = unit_rows(0)
        x = np.random.default_rng(1).normal(size=a.d)
        res = threshold_search(a, x, 1e9, RngStream(0))
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
            res = threshold_search(a, x, 1e9, RngStream(0))
            assert not res.fell_through

    def test_grid_scales_with_x_norm(self):
        a = unit_rows(2)
        x = np.random.default_rng(3).normal(size=a.d)
        t1 = threshold_search(a, x, 1e9, RngStream(0)).theta
        t2 = threshold_search(a, 8.0 * x, 1e9, RngStream(0)).theta
        assert t2 == 8.0 * t1

    def test_zero_x_rejected_in_scaled_mode(self):
        a = unit_rows(6)
        with pytest.raises(ContractViolationError):
            threshold_search(a, np.zeros(a.d), 1e9, RngStream(0))


class TestNoisySearch:
    def test_deterministic_for_fixed_stream(self):
        a = unit_rows(7)
        x = np.random.default_rng(8).normal(size=a.d)
        r1 = threshold_search(a, x, 0.5, RngStream(3, 1))
        r2 = threshold_search(a, x, 0.5, RngStream(3, 1))
        assert r1.theta == r2.theta
        assert r1.queries_issued == r2.queries_issued

    def test_large_epsilon_approaches_noiseless(self):
        # With eps huge the Laplace noise and the bar offset both vanish.
        a = unit_rows(9, n=500)
        x = np.random.default_rng(10).normal(size=a.d)
        noiseless = reference_search(a, x, 1.0, RngStream(0), noiseless=True).theta
        noisy = threshold_search(a, x, 1e9, RngStream(0)).theta
        assert noisy == pytest.approx(noiseless)

    def test_queries_counted(self):
        a = unit_rows(11)
        x = np.random.default_rng(12).normal(size=a.d)
        res = threshold_search(a, x, 0.5, RngStream(1))
        assert 1 <= res.queries_issued <= 42  # grid size for [-40, 1]

    @pytest.mark.parametrize("large_epsilon", [True, False])
    def test_reads_no_row_count(self, large_epsilon):
        # Under add/remove the row count is not public, so the search must
        # not read it: the same rows behind an n that raises search alike.
        class NoCount(DenseMatrix):
            @property
            def n(self):
                raise AssertionError("the search read n")

        plain = unit_rows(13, n=300)
        hidden = NoCount(plain.data)
        x = np.random.default_rng(14).normal(size=plain.d)
        epsilon = 1e9 if large_epsilon else 0.5
        got, want = (threshold_search(a, x, epsilon, RngStream(4)) for a in (hidden, plain))
        assert (got.theta, got.queries_issued, got.removed_count) == (
            want.theta, want.queries_issued, want.removed_count)
        assert np.array_equal(got.removed, want.removed)




def kept_ax(res, ax):
    """A x with the removed rows' entries set to +0.0: the masked vector
    whose A^T product is the filtered step."""
    kept = ax.copy()
    kept[res.removed] = 0.0
    return kept


class TestFilter:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.05, 0.5, 5.0, 1e9]),
    )
    @settings(max_examples=60, deadline=None)
    def test_kept_ax_is_masked_ax(self, seed, epsilon):
        rng = np.random.default_rng(seed)
        a = DenseMatrix(unit_rows(seed % 100, n=60).data
                        * rng.uniform(0.0, 1.0, size=(60, 1)))
        x = rng.normal(size=a.d)
        res = threshold_search(a, x, epsilon, RngStream(seed, 2))
        ax = a.data @ x
        q = a.row_norms() * np.abs(ax)
        assert res.ax_removed.tobytes() == ax[res.removed].tobytes()
        assert np.array_equal(res.removed, np.flatnonzero(q > res.theta))
        assert np.array_equal(kept_ax(res, ax), np.where(q <= res.theta, ax, 0.0))
        assert res.removed_count == int(np.sum(q > res.theta))


def assert_same_search(a, x, epsilon, seed, skew=0):
    """threshold_search and the reference agree on every result field and
    the stream's next draw, from a stream `skew` draws in; returns
    threshold_search's result."""
    r_new, r_ref = RngStream(seed, 5), RngStream(seed, 5)
    for rng in (r_new, r_ref):
        for _ in range(skew):
            rng.uniform_open()
    got = threshold_search(a, x, epsilon, r_new)
    want = reference_search(a, x, epsilon, r_ref)
    ax = a.data @ x
    assert (got.theta, got.queries_issued, got.fell_through, got.removed_count) == (
        want.theta, want.queries_issued, want.fell_through, want.removed_count)
    assert got.ax_removed.tobytes() == ax[got.removed].tobytes()
    assert np.array_equal(got.removed, want.removed)
    assert kept_ax(got, ax).tobytes() == kept_ax(want, ax).tobytes()
    assert r_new.uniform_open() == r_ref.uniform_open()
    return got


def spiky_rows(seed, n, d=5, heavy=20):
    """Unit rows shrunk to norm 0.01 but for `heavy` of them at random
    places: a search at epsilon 0.5 removes those."""
    a = unit_rows(seed, n=n, d=d)
    keep = np.random.default_rng(seed).choice(n, size=heavy, replace=False)
    scale = np.full((n, 1), 0.01)
    scale[keep] = 1.0
    return DenseMatrix(a.data * scale)


class TestScratch:
    """A x and the row statistics live in the thread's scratch block: a
    search makes no n-vector, and what it returns is its own."""

    def test_warm_search_allocates_under_two_bytes_per_row(self):
        n = 100_000
        a = unit_rows(40, n=n, d=20)
        x = np.random.default_rng(41).normal(size=a.d)
        threshold_search(a, x, 0.5, RngStream(0))  # row norms and scratch
        tracemalloc.start()
        try:
            threshold_search(a, x, 0.5, RngStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n

    def test_result_outlives_the_next_search(self):
        a = spiky_rows(42, n=2_000)
        x, y = np.random.default_rng(43).normal(size=(2, a.d))
        first = threshold_search(a, x, 0.5, RngStream(2))
        removed, ax_removed = first.removed.copy(), first.ax_removed.copy()
        assert removed.size == 20
        threshold_search(a, y, 0.5, RngStream(3))
        assert first.removed.tobytes() == removed.tobytes()
        assert first.ax_removed.tobytes() == ax_removed.tobytes()

    def test_two_threads_search_as_one(self):
        cases = [(spiky_rows(44 + k, n=50_000, d=8),
                  np.random.default_rng(46 + k).normal(size=(20, 8))) for k in range(2)]

        def searches(a, xs):
            return [threshold_search(a, x, 0.5, RngStream(i)) for i, x in enumerate(xs)]

        want = [searches(a, xs) for a, xs in cases]
        start = threading.Barrier(2)
        got = [None, None]

        def worker(k):
            start.wait()
            got[k] = searches(*cases[k])

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for g_run, w_run in zip(got, want):
            for g, w in zip(g_run, w_run):
                assert (g.theta, g.queries_issued, g.removed_count) == (
                    w.theta, w.queries_issued, w.removed_count)
                assert g.removed.tobytes() == w.removed.tobytes()
                assert g.ax_removed.tobytes() == w.ax_removed.tobytes()

    def test_scratch_grows_past_one_block(self):
        # 2n = 280,000 floats is more than one row block (2^18).
        a = spiky_rows(48, n=140_000, d=2)
        x = np.random.default_rng(49).normal(size=a.d)
        assert 2 * a.data.shape[0] > 2**18
        assert assert_same_search(a, x, 0.5, 50).removed_count == 20


class TestAgainstReference:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=400),
        d=st.integers(min_value=1, max_value=6),
        zero_frac=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        subnormal_frac=st.sampled_from([0.0, 0.1, 1.0]),
        log10_norm=st.floats(min_value=-250.0, max_value=250.0),
        epsilon=st.sampled_from([0.01, 0.5, 5.0, 1e9]),
        skew=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_probe_by_probe_search(
        self, seed, n, d, zero_frac, subnormal_frac, log10_norm, epsilon, skew,
    ):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, d))
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        data *= rng.uniform(0.0, 1.0, size=(n, 1))
        data[rng.uniform(size=n) < subnormal_frac] *= 1e-310
        data[rng.uniform(size=n) < zero_frac] = 0.0
        a = DenseMatrix(data)
        x = rng.normal(size=d)
        x *= 10.0**log10_norm / np.linalg.norm(x)

        with np.errstate(over="ignore", under="ignore"):
            scale = float(np.linalg.norm(x))
        if scale == 0.0 or not math.isfinite(2.0 * scale):
            # sqrt(x.x) under- or overflows: a zero or an infinite grid
            with np.errstate(over="ignore"), pytest.raises(ContractViolationError):
                threshold_search(a, x, epsilon, RngStream(seed, 5))
            return
        assert_same_search(a, x, epsilon, seed, skew)

    def test_overflowing_rows_are_removed_as_before(self):
        # Both big rows' norms overflow to inf.  The first's A x entry is
        # exactly 0, so its statistic is inf * 0, a NaN (x86 sets its sign
        # bit); the second's statistic is inf.
        a = DenseMatrix(
            np.array([[1e200, 0.0], [1e308, 1e308], [0.5, 0.1], [0.1, 0.2]])
        )
        for epsilon in (5.0, 1e9):
            with np.errstate(invalid="ignore", over="ignore"):
                res = assert_same_search(a, np.array([0.0, 10.0]), epsilon, 11)
            assert res.removed[:2].tolist() == [0, 1]


class TestGridCounts:
    def test_equal_sorted_counts_at_n_1e5(self):
        rng = np.random.default_rng(20)
        scale = 0.7
        grid = np.ldexp(scale, np.arange(GRID_LO_EXP, GRID_HI_EXP + 1))
        n = 100_000
        # statistics spread across and beyond the grid, with exact grid
        # points, their neighbours either side, zeros and subnormals
        q = scale * np.exp2(rng.uniform(GRID_LO_EXP - 5, GRID_HI_EXP + 3, size=n))
        edges = rng.choice(grid, size=300)
        q[:300] = edges
        q[300:600] = np.nextafter(edges, 0.0)
        q[600:900] = np.nextafter(edges, np.inf)
        q[900:1000] = 0.0
        q[1000:1100] = 1e-320
        q[1100:1110] = np.inf
        rng.shuffle(q)
        want = n - np.searchsorted(np.sort(q), grid, side="right")
        assert np.array_equal(_grid_counts(q, grid), want)

    def test_signed_statistics_count_by_magnitude(self):
        # The search passes A x times the row norms, signs and all, with
        # NaNs of either sign: the counts are those of the magnitudes.
        rng = np.random.default_rng(21)
        grid = np.ldexp(1.3, np.arange(GRID_LO_EXP, GRID_HI_EXP + 1))
        q = 1.3 * np.exp2(rng.uniform(GRID_LO_EXP - 5, GRID_HI_EXP + 3, size=5_000))
        q[:50], q[50:60], q[60:70] = grid[rng.integers(0, grid.size, 50)], np.nan, -np.nan
        q[70:80] = -np.inf
        q *= np.where(rng.uniform(size=q.size) < 0.5, -1.0, 1.0)
        mag = np.abs(q)
        want = [int(np.sum(~(mag <= g))) for g in grid]
        assert _grid_counts(q, grid).tolist() == want

    def test_grid_outside_normal_range_raises(self):
        # ||x|| overflows to inf, so the top of the grid is not finite.
        a = unit_rows(30, n=20, d=2)
        with np.errstate(over="ignore"), pytest.raises(
            ContractViolationError, match="normal doubles"
        ):
            threshold_search(a, np.array([1e200, 1e200]), 1.0, RngStream(0))


class TestNanStatistic:
    @pytest.mark.parametrize("large_epsilon", [True, False])
    def test_nan_rows_are_removed_as_plus_zero(self, large_epsilon):
        # Both big rows' norms overflow to inf.  The first's A x entry is
        # exactly 0, so its statistic is inf * 0, a NaN.  The second's is
        # 1e309 - 1e309: NaN or +-inf, by the BLAS kernel's summation order
        # (NaN for OpenBLAS 0.3.31's two-lane sum at d = 4).
        a = DenseMatrix(np.array([
            [0.0, 0.0, 1e200, 0.0], [1e308, -1e308, 0.0, 0.0],
            [0.5, 0.1, 0.2, 0.1], [0.1, 0.2, 0.0, 0.3], [0.01, 0.0, 0.0, 0.0],
        ]))
        x = np.array([10.0, 10.0, 0.0, 10.0])
        with np.errstate(invalid="ignore", over="ignore"):
            ax = a.data @ x
            q = a.row_norms() * np.abs(ax)
            res = threshold_search(a, x, 1e9 if large_epsilon else 5.0, RngStream(4))
        assert math.isnan(q[0]) and not math.isfinite(q[1])
        assert res.ax_removed.tobytes() == ax[res.removed].tobytes()
        assert res.removed[:2].tolist() == [0, 1]
        assert kept_ax(res, ax)[:2].tobytes() == np.zeros(2).tobytes()
        assert res.removed_count == 2 + int(np.sum(q[2:] > res.theta))
        assert np.array_equal(res.removed[2:], 2 + np.flatnonzero(q[2:] > res.theta))
        assert np.array_equal(kept_ax(res, ax)[2:], np.where(q[2:] <= res.theta, ax[2:], 0.0))


def old_scale_check(scale):
    """The grid check before the range constants: the ldexp grid's bottom
    is at least the smallest normal double and its top is finite."""
    with np.errstate(over="ignore"):
        grid = np.ldexp(scale, np.arange(GRID_LO_EXP, GRID_HI_EXP + 1))
    return bool(grid[0] >= np.finfo(np.float64).smallest_normal
                and np.isfinite(grid[-1]))


class TestScaleRange:
    """The norms of the range ends cannot come out of sqrt(x @ x), so the
    search is fed them through a stand-in for its square root."""

    def search_accepts(self, monkeypatch, scale):
        monkeypatch.setattr(svtfilter, "math", SimpleNamespace(
            sqrt=lambda _: scale, isfinite=math.isfinite, log=math.log))
        try:
            res = threshold_search(unit_rows(31, n=20, d=2), np.ones(2), 1.0,
                                   RngStream(0))
        except ContractViolationError as exc:
            assert "normal doubles" in str(exc)
            return False
        finally:
            monkeypatch.undo()
        with np.errstate(over="ignore"):
            grid = np.ldexp(scale, np.arange(GRID_LO_EXP, GRID_HI_EXP + 1))
        assert res.theta in grid
        return True

    @pytest.mark.parametrize("scale", [
        _MIN_SCALE, np.nextafter(_MIN_SCALE, np.inf),
        np.nextafter(_MAX_SCALE, 0.0), _MAX_SCALE, np.nextafter(_MAX_SCALE, np.inf),
        1.0, np.inf,
    ])
    def test_matches_the_ldexp_check(self, monkeypatch, scale):
        assert self.search_accepts(monkeypatch, scale) == old_scale_check(scale)

    def test_rejects_the_norm_below_the_range(self, monkeypatch):
        # The old check accepted this norm only because ldexp rounds its
        # bottom point up to 2^-1022: the grid is then not a power-of-two
        # ladder, which the bucket arithmetic needs.
        below = np.nextafter(_MIN_SCALE, 0.0)
        assert old_scale_check(below)
        grid = np.ldexp(below, np.arange(GRID_LO_EXP, GRID_HI_EXP + 1))
        assert grid[1] != 2.0 * grid[0]
        assert not self.search_accepts(monkeypatch, below)


def spread_rows(seed, n, d):
    """Rows whose norms spread log-uniformly over [2^-14, 1], one in five
    hundred zero: many norm octaves, so many codes."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    data *= np.exp2(rng.uniform(-14.0, 0.0, size=(n, 1))) / np.linalg.norm(
        data, axis=1, keepdims=True)
    data[rng.uniform(size=n) < 0.002] = 0.0
    return data


def edge_rows(d=20):
    """Squared norms exactly 2^k (rows along e1) and up to 11 ulps below it
    (rows along 100 directions, also returned): probed along the rows
    themselves, ||a_i|| |<a_i, x>| meets its bound ||a_i||^2 ||x|| up to
    rounding."""
    ws = np.random.default_rng(69).normal(size=(100, d))
    ws /= np.linalg.norm(ws, axis=1, keepdims=True)
    sq = np.ldexp(1.0 - np.arange(12) * 2.0**-52, np.arange(-20, 1)[:, None]).ravel()
    rows = [np.sqrt(sq)[:, None] * w for w in ws]
    rows.append(np.ldexp(1.0, np.arange(-10, 1))[:, None] * np.eye(d)[0])
    return np.concatenate(rows), ws


def laid_out(data, block_rows):
    """A matrix of `data` laid out by norm, with groups of at least
    `block_rows` rows (the row block shrunk, so small n has many groups)."""
    a = DenseMatrix(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(svtfilter, "_BLOCK_ELEMENTS", block_rows * a.d)
        lay_out_by_norm(a)
    return a


def codes_of(a):
    """Each row's code, from its norm, as the layout defines it: the first
    k with v <= 2^(GRID_LO_EXP + k), clipped to [0, K]."""
    v = a.row_norms() * a.row_norms() * (1.0 + (a.d + 2) * 2.0**-51)
    m, e = np.frexp(v)  # v = m 2^e, 1/2 <= m < 1, so ceil(log2 v) = e - (m == 1/2)
    return np.clip(np.where(v > 0.0, e - (m == 0.5), -2000) - GRID_LO_EXP, 0, _POW2.size)


def walk_and_pass(a, x, epsilon, seed):
    """The search over the layout's groups and one pass over the same rows
    agree byte for byte in every field and move the stream alike; returns
    the result and the rows the walk read."""
    r_walk, r_pass = RngStream(seed, 7), RngStream(seed, 7)
    got = threshold_search(a, x, epsilon, r_walk)
    layout, a._layout = a._layout, None
    try:
        want = threshold_search(a, x, epsilon, r_pass)
    finally:
        a._layout = layout
    assert (got.theta, got.queries_issued, got.fell_through, got.removed_count) == (
        want.theta, want.queries_issued, want.fell_through, want.removed_count)
    assert got.removed.tobytes() == want.removed.tobytes()
    assert got.ax_removed.tobytes() == want.ax_removed.tobytes()
    assert r_walk.uniform_open() == r_pass.uniform_open()
    fired = got.queries_issued - 1
    return got, next(end for end, past in layout if past <= fired)


def check_walks():
    """The walk against one pass: where a probe's bound cuts through a
    group, where every row is read, at a fall-through, at n % 4 != 0 and
    at the rows on their codes' edges."""
    for n, d in ((4003, 3), (6001, 7), (5002, 20)):
        a = laid_out(spread_rows(60 + d, n, d), block_rows=64)
        assert len(a._layout) > 5
        rng = np.random.default_rng(61)
        heavy = a.data[0] / np.linalg.norm(a.data[0])
        cut = read_all = stopped = 0
        for epsilon in (1e-3, 0.05, 0.5, 5.0, 1e9):
            for x in (*rng.normal(size=(4, d)), heavy, 1e-3 * heavy):
                res, read = walk_and_pass(a, x, epsilon, 62)
                assert res.removed.size == 0 or res.removed[-1] < read
                stopped += read < n
                read_all += read == n
                # The last group read holds rows above and below the firing
                # probe's bound on the squared norm.
                start = max([0] + [end for end, _ in a._layout if end < read])
                sq = a.row_norms()[start:read] ** 2
                bound = 2.0 ** (GRID_LO_EXP + res.queries_issued - 1)
                cut += bool(np.any(sq > bound) and np.any(sq <= bound))
        assert stopped and read_all and cut

    # Rows of norm 2 along x have statistic 4 ||x||, above the top grid
    # point 2 ||x||: at epsilon 1e9 no probe fires.
    data = spread_rows(63, 3001, 5)
    data[::500] = 2.0 * np.eye(5)[0]
    a = laid_out(data, block_rows=32)
    res, read = walk_and_pass(a, np.eye(5)[0], 1e9, 64)
    assert res.fell_through and res.removed_count == 7 and read < a.n

    data, ws = edge_rows()
    a = laid_out(data, block_rows=4)
    for x in (ws[0], ws[1], np.eye(20)[0]):
        for epsilon in (1e-3, 0.5, 1e9):
            walk_and_pass(a, x, epsilon, 70)


class TestNormLayout:
    """lay_out_by_norm groups the rows by the bound ||a_i||^2 ||x|| on their
    statistic, and the search reads only the groups that can decide it."""

    def test_walk_is_one_pass_on_one_blas_thread(self):
        # A threaded OpenBLAS splits A x by the slice's length, so a row's
        # bits can depend on the groups; on one thread they do not.
        if os.environ.get("OPENBLAS_NUM_THREADS") == "1":
            check_walks()
            return
        here = Path(__file__).resolve().parent
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
        child = subprocess.run(
            [sys.executable, "-c", "import test_svtfilter; test_svtfilter.check_walks()"],
            env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr[-4000:]

    def test_one_row_block_moves_nothing(self):
        data = spread_rows(65, 1001, 20)
        a = DenseMatrix(data.copy())
        lay_out_by_norm(a)
        assert a._layout == [(1001, 0)]
        assert a.data.tobytes() == data.tobytes()
        for epsilon in (0.05, 1e9):  # one group is the one pass itself
            walk_and_pass(a, np.random.default_rng(66).normal(size=20), epsilon, 67)

    def test_layout_invariants(self):
        data = spread_rows(68, 5003, 6)
        want_gram = gram(DenseMatrix(data.copy()))
        a = laid_out(data.copy(), block_rows=48)
        ends = [end for end, _ in a._layout]
        assert all(end % 4 == 0 for end in ends[:-1]) and ends[-1] == a.n
        assert np.all(np.diff([0] + ends) >= 48)
        assert np.array_equal(np.sort(a.data.view("V48").ravel()),
                              np.sort(data.view("V48").ravel()))
        assert a.row_norms().tobytes() == _row_norms(a.data).tobytes()
        codes = codes_of(a)
        assert np.all(np.diff(codes) <= 0)
        assert [past for _, past in a._layout] == [int(codes[e]) for e in ends[:-1]] + [0]
        assert gram(a).tobytes() == want_gram.tobytes()

    def test_no_row_exceeds_a_probe_its_code_excludes(self):
        # The slack covers the rounding of the statistic in any summation
        # order: without it about one edge row in 2,000 exceeds its bound.
        data, ws = edge_rows()
        a = laid_out(data, block_rows=4)
        codes = codes_of(a)
        for x in (*ws, np.eye(20)[0], 3.0 * np.eye(20)[0]):
            q = a.row_norms() * np.abs(a.data @ x)
            grid = math.sqrt(x @ x) * _POW2
            below = codes < _POW2.size
            assert np.all(q[below] <= grid[codes[below]])
            for end, past in a._layout[:-1]:
                assert np.all(q[end:] <= grid[past])

    def test_build_allocates_under_a_byte_per_row(self):
        n = 100_000
        a = DenseMatrix(spread_rows(71, n, 20))
        gram(a), a.row_norms()
        threshold_search(a, np.ones(20), 0.5, RngStream(0))  # the scratch block
        tracemalloc.start()
        try:
            lay_out_by_norm(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(a._layout) > 2
        assert peak < n
