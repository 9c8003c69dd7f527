"""Tests for the dense-matrix container and linear-algebra kernels.

The production eigensolver is LAPACK's symmetric `eigh`, so the oracles
here are independent routines: the general nonsymmetric eigenvalue solver
(`np.linalg.eigvals`, LAPACK `geev`) for eigenvalues and `np.linalg.svd`
(LAPACK `gesdd`) for singular values.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppca.errors import (
    ContractViolationError,
    RankZeroError,
)
from dppca.matcore import (
    DenseMatrix,
    compact_svd,
    gram,
    rayleigh_ratio,
    sin_sq,
    spectrum_stats,
    sym_eig,
)


def random_matrix(seed, n=30, d=6):
    return DenseMatrix(np.random.default_rng(seed).normal(size=(n, d)))


class TestDenseMatrix:
    def test_shape_properties(self):
        a = DenseMatrix(np.ones((4, 3)))
        assert (a.n, a.d) == (4, 3)

    def test_rejects_nan(self):
        with pytest.raises(ContractViolationError):
            DenseMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(ContractViolationError):
            DenseMatrix(np.array([[np.inf, 0.0]]))

    def test_rejects_1d(self):
        with pytest.raises(ContractViolationError):
            DenseMatrix(np.ones(5))

    def test_rejects_empty(self):
        with pytest.raises(ContractViolationError):
            DenseMatrix(np.ones((0, 3)))

    def test_row_norms(self):
        a = DenseMatrix(np.array([[3.0, 4.0], [0.0, 1.0]]))
        assert np.allclose(a.row_norms(), [5.0, 1.0])
        assert a.max_row_norm() == 5.0


class TestGram:
    def test_matches_direct_product(self):
        a = random_matrix(0)
        assert np.allclose(gram(a), a.data.T @ a.data)

    def test_exactly_symmetric(self):
        a = random_matrix(1, n=50, d=8)
        g = gram(a)
        assert np.array_equal(g, g.T)


class TestSymEig:
    def test_identity(self):
        s = sym_eig(np.eye(3))
        assert np.allclose(s.values, 1.0)

    def test_against_numpy_oracle(self):
        for seed in range(10):
            g = gram(random_matrix(seed, n=40, d=7))
            ours = sym_eig(g)
            w = np.sort(np.linalg.eigvals(g).real)[::-1]  # geev oracle
            assert np.allclose(ours.values, w, rtol=1e-10, atol=1e-9)

    def test_eigenvectors_diagonalize(self):
        g = gram(random_matrix(3))
        s = sym_eig(g)
        recon = s.vectors @ np.diag(s.values) @ s.vectors.T
        assert np.allclose(recon, g, atol=1e-9 * np.linalg.norm(g))

    def test_vectors_orthonormal(self):
        g = gram(random_matrix(4, d=9))
        s = sym_eig(g)
        assert np.allclose(s.vectors.T @ s.vectors, np.eye(9), atol=1e-10)

    def test_descending_order(self):
        g = gram(random_matrix(5))
        s = sym_eig(g)
        assert all(s.values[i] >= s.values[i + 1] for i in range(len(s.values) - 1))

    def test_sign_convention(self):
        g = gram(random_matrix(6))
        s = sym_eig(g)
        for j in range(g.shape[0]):
            col = s.vectors[:, j]
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0

    def test_tie_break_stable_index_order(self):
        # Two exactly equal eigenvalues: the tied columns span {e0, e1}, and
        # the basis chosen inside the eigenspace is the same on every call.
        m = np.diag([2.0, 2.0, 1.0])
        s = sym_eig(m)
        assert np.allclose(s.values, [2.0, 2.0, 1.0])
        tied = s.vectors[:, :2]
        assert np.allclose(tied[2], 0.0, atol=1e-12)
        assert np.allclose(tied.T @ tied, np.eye(2), atol=1e-12)
        again = sym_eig(m)
        assert again.values.tobytes() == s.values.tobytes()
        assert again.vectors.tobytes() == s.vectors.tobytes()

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolationError):
            sym_eig(np.array([[1.0, 2.0], [2.1, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ContractViolationError):
            sym_eig(np.ones((2, 3)))

    def test_1x1(self):
        s = sym_eig(np.array([[4.0]]))
        assert s.values[0] == 4.0

    def test_negative_eigenvalues(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = sym_eig(m)
        assert np.allclose(s.values, [1.0, -1.0])

    def test_threads_match_serial_at_wide_d(self):
        # The wide-d workload's size: d = 128.  Eight concurrent calls return
        # the bytes of a serial call.
        g = gram(random_matrix(15, n=512, d=128))
        ref = sym_eig(g)
        with ThreadPoolExecutor(max_workers=8) as pool:
            outs = list(pool.map(lambda _: sym_eig(g), range(8)))
        for out in outs:
            assert out.values.tobytes() == ref.values.tobytes()
            assert out.vectors.tobytes() == ref.vectors.tobytes()


class TestCompactSvd:
    def test_reconstruction(self):
        a = random_matrix(7, n=25, d=5)
        f = compact_svd(a)
        assert np.allclose(f.u @ np.diag(f.s) @ f.v.T, a.data, atol=1e-9)

    def test_against_numpy_oracle(self):
        a = random_matrix(8, n=60, d=6)
        f = compact_svd(a)
        s_oracle = np.linalg.svd(a.data, compute_uv=False)
        assert np.allclose(f.s, s_oracle, rtol=1e-9)

    def test_u_orthonormal_on_rank_columns(self):
        a = random_matrix(9)
        f = compact_svd(a)
        u = f.u[:, : f.rank]
        assert np.allclose(u.T @ u, np.eye(f.rank), atol=1e-8)

    def test_rank_deficient_gets_zero_column(self):
        data = np.zeros((6, 3))
        data[:, 0] = np.arange(1, 7)
        data[:, 1] = 2 * data[:, 0]
        f = compact_svd(DenseMatrix(data))
        assert f.rank == 1
        assert np.all(f.u[:, 1:] == 0.0)


def _svd_oracle(data):
    """sigma1, sigma2, upsilon, u_inf, v_inf from `np.linalg.svd`."""
    u, s, vt = np.linalg.svd(data, full_matrices=False)
    rank = int(np.count_nonzero(s > 1e-12 * s[0]))
    sigma2 = s[1] if s.size > 1 else 0.0
    return (s[0], sigma2, np.abs(u[:, 0]).max(), np.abs(u[:, :rank]).max(),
            np.abs(vt).max())


class TestSpectrumStatsOracle:
    @pytest.mark.parametrize("seed,n,d", [(7, 25, 5), (8, 60, 6), (9, 30, 6), (10, 200, 1)])
    def test_against_numpy_svd(self, seed, n, d):
        a = random_matrix(seed, n=n, d=d)
        st_ = spectrum_stats(a)
        got = (st_.sigma1, st_.sigma2, st_.upsilon, st_.u_inf, st_.v_inf)
        assert got == pytest.approx(_svd_oracle(a.data), rel=1e-9)

    def test_rank_one_ignores_the_null_columns(self):
        data = np.zeros((6, 3))
        data[:, 0] = np.arange(1, 7)
        data[:, 1] = 2 * data[:, 0]
        st_ = spectrum_stats(DenseMatrix(data))
        sigma1, _, upsilon, u_inf, v_inf = _svd_oracle(data)
        assert st_.sigma1 == pytest.approx(sigma1, rel=1e-12)
        assert st_.sigma2 == pytest.approx(0.0, abs=1e-6 * sigma1)
        assert st_.upsilon == pytest.approx(upsilon, rel=1e-12)
        assert st_.u_inf == st_.upsilon == pytest.approx(u_inf, rel=1e-12)
        assert st_.v_inf == pytest.approx(v_inf, rel=1e-12)

    def test_rank_deficient_against_numpy_svd(self):
        rng = np.random.default_rng(16)
        data = rng.normal(size=(40, 2)) @ rng.normal(size=(2, 5))
        st_ = spectrum_stats(DenseMatrix(data))
        sigma1, _, upsilon, u_inf, _ = _svd_oracle(data)
        assert (st_.sigma1, st_.upsilon, st_.u_inf) == pytest.approx(
            (sigma1, upsilon, u_inf), rel=1e-9)


class TestSpectrumStats:
    def test_diag_case(self):
        data = np.zeros((5, 2))
        data[0, 0] = 1.0
        data[1, 1] = 0.5
        st_ = spectrum_stats(DenseMatrix(data))
        assert st_.sigma1 == pytest.approx(1.0)
        assert st_.sigma2 == pytest.approx(0.5)
        assert st_.kappa == pytest.approx(0.75)
        assert st_.upsilon == pytest.approx(1.0)
        assert st_.mu == pytest.approx(5.0)

    def test_u_inf_floor(self):
        # max entry of a unit n-vector is at least 1/sqrt(n)
        for seed in range(5):
            a = random_matrix(seed, n=40, d=4)
            st_ = spectrum_stats(a)
            assert st_.u_inf >= 1.0 / np.sqrt(a.n) - 1e-12

    def test_zero_matrix_raises(self):
        with pytest.raises(RankZeroError):
            spectrum_stats(DenseMatrix(np.zeros((4, 2))))

    def test_sigma1_upsilon_bounded_for_unit_rows(self):
        # sigma1 * upsilon <= max row norm <= 1 for row-normalized data
        rng = np.random.default_rng(11)
        data = rng.normal(size=(30, 5))
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        st_ = spectrum_stats(DenseMatrix(data))
        assert st_.sigma1 * st_.upsilon <= 1.0 + 1e-9


unit_vec = st.integers(min_value=0, max_value=2**32 - 1)


class TestSinSq:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert sin_sq(v, v) == 0.0
        assert sin_sq(v, -2 * v) == 0.0

    def test_orthogonal(self):
        assert sin_sq(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ContractViolationError):
            sin_sq(np.zeros(3), np.ones(3))

    @given(unit_vec)
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=4), rng.normal(size=4)
        v = sin_sq(x, y)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(sin_sq(y, x), abs=1e-12)


class TestRayleighRatio:
    def test_top_eigenvector_gives_one(self):
        a = random_matrix(12)
        st_ = spectrum_stats(a)
        r = rayleigh_ratio(a, st_.top_vector, st_.sigma1)
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_scale_invariant_in_x(self):
        a = random_matrix(13)
        s1 = spectrum_stats(a).sigma1
        x = np.random.default_rng(0).normal(size=a.d)
        assert rayleigh_ratio(a, x, s1) == pytest.approx(rayleigh_ratio(a, 7.5 * x, s1))

    def test_bounded_by_one(self):
        a = random_matrix(14)
        s1 = spectrum_stats(a).sigma1
        for seed in range(10):
            x = np.random.default_rng(seed).normal(size=a.d)
            assert rayleigh_ratio(a, x, s1) <= 1.0 + 1e-9

