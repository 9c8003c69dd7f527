"""Tests for the synthetic generators and the privacy row scaling."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dppca.bench import build_instance
from dppca.datagen import (
    GaussSpec,
    gen_gaussian_iid,
    gen_high_coherence,
    gen_low_coherence,
    random_orthogonal,
    scale_for_privacy,
)
from dppca.errors import ParameterError
from dppca.matcore import _BLOCK_ELEMENTS, DenseMatrix, _row_blocks, gram, spectrum_stats
from dppca.mech import RngStream
from dppca.theory import gaussian_bounds


class TestGaussSpec:
    def test_valid(self):
        s = GaussSpec((0.5, 0.3, 0.2))
        assert s.d == 3
        assert s.kappabar == pytest.approx(0.4)

    def test_rejects_bad_sum(self):
        with pytest.raises(ParameterError):
            GaussSpec((0.5, 0.4))

    def test_rejects_increasing(self):
        with pytest.raises(ParameterError):
            GaussSpec((0.3, 0.7))

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            GaussSpec((1.5, -0.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            GaussSpec((bad, 0.5))

    @pytest.mark.parametrize("build, match", [
        (lambda: GaussSpec(()), "at least one entry"),
        (lambda: GaussSpec.spiked(1, 0.5, 0.5), "needs d >= 2"),
        (lambda: GaussSpec.spiked(4, 0.8, 0.5), "mass exceeds 1"),
        (lambda: GaussSpec.spiked(4, 0.3, 0.9), "flat tail would exceed"),
        # At d = 2 there is no tail to take the mass sigma1_sq + sigma2_sq leaves.
        (lambda: GaussSpec.spiked(2, 0.5, 0.5), "at d = 2"),
    ], ids=["empty", "spiked-d1", "spiked-mass", "spiked-tail", "spiked-d2-leftover"])
    def test_rejects_bad_spectrum(self, build, match):
        with pytest.raises(ParameterError, match=match):
            build()

    def test_spiked_d2_keeps_its_gap(self):
        s = GaussSpec.spiked(2, 2.0 / 3.0, 0.5)
        assert s.kappabar == pytest.approx(0.5, abs=1e-15)
        assert s.sigmabar_sq[1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_spiked_builder(self):
        s = GaussSpec.spiked(20, 0.5, 0.5)
        assert s.sigmabar_sq[0] == pytest.approx(0.5)
        assert s.sigmabar_sq[1] == pytest.approx(0.25)
        assert s.kappabar == pytest.approx(0.5)
        assert sum(s.sigmabar_sq) == pytest.approx(1.0, abs=1e-15)


class TestRandomOrthogonal:
    def test_orthogonal(self):
        q = random_orthogonal(6, RngStream(0))
        assert np.allclose(q.T @ q, np.eye(6), atol=1e-12)

    def test_deterministic(self):
        assert np.array_equal(
            random_orthogonal(4, RngStream(1)), random_orthogonal(4, RngStream(1))
        )


class TestGenGaussianIid:
    def test_rank1_spec_rows_along_e1(self):
        spec = GaussSpec((1.0, 0.0, 0.0))
        a, vbar1 = gen_gaussian_iid(50, spec, RngStream(2), rotate=False)
        assert np.allclose(vbar1, [1.0, 0.0, 0.0])
        assert np.all(a.data[:, 1:] == 0.0)

    def test_covariance_concentration(self):
        # ||(1/n) gram - diag(spec)||_F <= 5 sqrt(d/n) for iid rows
        n, d = 20_000, 8
        spec = GaussSpec((0.125,) * 8)
        a, _ = gen_gaussian_iid(n, spec, RngStream(3), rotate=False)
        emp = gram(a) / n
        err = np.linalg.norm(emp - np.diag(spec.sigmabar_sq))
        assert err <= 5 * np.sqrt(d / n)

    def test_per_coordinate_variance_unrotated(self):
        n = 100_000
        spec = GaussSpec((0.6, 0.3, 0.1))
        a, _ = gen_gaussian_iid(n, spec, RngStream(4), rotate=False)
        var = a.data.var(axis=0)
        for j, s2 in enumerate(spec.sigmabar_sq):
            se = s2 * np.sqrt(2.0 / n)  # sd of a chi^2 variance estimate
            assert abs(var[j] - s2) <= 3 * se

    def test_vbar1_is_population_top_direction(self):
        spec = GaussSpec.spiked(6, 0.6, 0.7)
        a, vbar1 = gen_gaussian_iid(60_000, spec, RngStream(5))
        emp_cov = gram(a) / a.n
        w, v = np.linalg.eigh(emp_cov)  # oracle
        top = v[:, -1]
        assert abs(top @ vbar1) > 0.99

    def test_deterministic(self):
        spec = GaussSpec.spiked(4, 0.5, 0.5)
        a1, v1 = gen_gaussian_iid(10, spec, RngStream(6))
        a2, v2 = gen_gaussian_iid(10, spec, RngStream(6))
        assert np.array_equal(a1.data, a2.data)
        assert np.array_equal(v1, v2)


class TestScaleForPrivacy:
    def test_scale_matches_formula(self):
        a = DenseMatrix(np.ones((100, 2)))
        assert scale_for_privacy(a, 0.05) == 0
        assert 1.0 / a.data == pytest.approx(1.0 + np.sqrt(2 * np.log(100 / 0.05)))

    def test_row_norms_bounded_after(self):
        spec = GaussSpec.spiked(10, 0.5, 0.5)
        a, _ = gen_gaussian_iid(5000, spec, RngStream(7))
        scale_for_privacy(a, 0.05)
        assert a.max_row_norm() <= 1.0 + 1e-12

    def test_clip_count(self):
        data = np.zeros((10, 2))
        data[0, 0] = 1000.0  # this row survives scaling above norm 1
        data[1:, 0] = 0.001
        a = DenseMatrix(data)
        assert scale_for_privacy(a, 0.05) == 1
        assert np.linalg.norm(a.data[0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [7, 20, 128])
    def test_rescales_in_place_and_keeps_exact_row_norms(self, d):
        raw, _ = gen_gaussian_iid(3000, GaussSpec.spiked(d, 0.5, 0.5), RngStream(9, d))
        raw.data[::97] *= 40.0  # rows that stay above norm 1 after scaling
        gram(raw)
        el = 1.0 + np.sqrt(2.0 * np.log(raw.n / 0.05))
        ref = raw.data / el
        over = np.sqrt(np.einsum("ij,ij->i", ref, ref)) > 1.0
        ref[over] /= np.sqrt(np.einsum("ij,ij->i", ref[over], ref[over]))[:, None]
        assert scale_for_privacy(raw, 0.05) == over.sum() > 0
        assert raw._gram is None
        assert raw.data.tobytes() == ref.tobytes()
        fresh = DenseMatrix(raw.data.copy()).row_norms()
        assert raw.row_norms().tobytes() == fresh.tobytes()
        assert not raw.row_norms().flags.writeable

    def test_clipping_rare_for_gaussian_rows(self):
        # The row-length bound holds with probability >= 1 - beta.
        spec = GaussSpec.spiked(10, 0.5, 0.5)
        total_rows, clipped = 0, 0
        for seed in range(10):
            a, _ = gen_gaussian_iid(2000, spec, RngStream(8, seed))
            clipped += scale_for_privacy(a, 0.05)
            total_rows += a.n
        assert clipped / total_rows <= 0.05


class TestGenLowCoherence:
    def test_base_case_diag(self):
        a = gen_low_coherence(5, 2, sigma1_frac=1.0 / 5, gap=0.75,
                              rng=RngStream(9), rotate=False)
        # sigma1 = 1, sigma2 = 0.5: diag core padded with zero rows
        assert a.data[0, 0] == pytest.approx(1.0)
        assert a.data[1, 1] == pytest.approx(0.5)
        assert np.allclose(a.data[2:], 0.0)

    def test_max_row_norm_exactly_one(self):
        for seed in range(5):
            a = gen_low_coherence(200, 8, 0.3, 0.5, RngStream(10, seed))
            assert a.max_row_norm() == pytest.approx(1.0, abs=1e-9)

    def test_gap_response(self):
        a = gen_low_coherence(300, 6, 0.3, 0.75, RngStream(11))
        st = spectrum_stats(a)
        assert st.kappa == pytest.approx(0.75, rel=1e-6)

    def test_low_upsilon(self):
        # Upsilon <= 6 sqrt(ln n / n) over seeds (conjugation spreads mass)
        n = 4096
        bound = 6 * np.sqrt(np.log(n) / n)
        for seed in range(20):
            a = gen_low_coherence(n, 16, 0.3, 0.5, RngStream(12, seed))
            assert spectrum_stats(a).upsilon <= bound

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            gen_low_coherence(10, 20, 0.3, 0.5, RngStream(0))
        with pytest.raises(ParameterError):
            gen_low_coherence(20, 4, 1.5, 0.5, RngStream(0))
        with pytest.raises(ParameterError):
            gen_low_coherence(20, 4, 0.3, 0.0, RngStream(0))


def householder_low_coherence(n, d, sigma1_frac, gap, rng):
    """The Householder construction of the rotated low-coherence matrix:
    the tall factor is the sign-fixed Q of qr(g), read from the same draws."""
    g = rng.standard_normal((n, d))
    q, r = np.linalg.qr(g)
    left = q * np.sign(np.diag(r))
    right = random_orthogonal(d, rng)
    s1_sq = sigma1_frac * n
    sq = np.full(d, 0.01 * (1.0 - gap) * s1_sq)
    sq[0] = s1_sq
    sq[1] = (1.0 - gap) * s1_sq
    a = (left * np.sqrt(sq)) @ right.T
    return a / np.sqrt(np.einsum("ij,ij->i", a, a)).max()


class TestLowCoherenceCholeskyFactor:
    @pytest.mark.parametrize("n, d", [(4096, 16), (2048, 128), (300, 6), (64, 32),
                                      (40, 2)])
    def test_matches_householder_reference(self, n, d):
        ref = householder_low_coherence(n, d, 0.05, 0.5, RngStream(21, n))
        a = gen_low_coherence(n, d, 0.05, 0.5, RngStream(21, n)).data
        assert np.abs(a - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("d", [8, 64])
    def test_square_draw_matches_householder_reference(self, d):
        ref = householder_low_coherence(d, d, 0.3, 0.5, RngStream(22, d))
        a = gen_low_coherence(d, d, 0.3, 0.5, RngStream(22, d)).data
        assert np.abs(a - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_consumes_the_reference_draws(self):
        ref_rng, rng = RngStream(23), RngStream(23)
        householder_low_coherence(500, 12, 0.05, 0.5, ref_rng)
        gen_low_coherence(500, 12, 0.05, 0.5, rng)
        assert np.array_equal(rng.standard_normal(8), ref_rng.standard_normal(8))

    def test_unrotated_bytes(self):
        # rotate=False: the diagonal core over zero rows, scaled by sigma1.
        n, d = 50, 4
        s1_sq = 0.3 * n
        sq = np.array([s1_sq, 0.5 * s1_sq, 0.005 * s1_sq, 0.005 * s1_sq])
        left = np.zeros((n, d))
        left[:d, :d] = np.eye(d)
        ref = (left * np.sqrt(sq)) @ np.eye(d).T
        ref = ref / np.sqrt(np.einsum("ij,ij->i", ref, ref)).max()
        a = gen_low_coherence(n, d, 0.3, 0.5, RngStream(24), rotate=False)
        assert a.data.tobytes() == ref.tobytes()


def edge_rows(d):
    """Row counts at and around the edges of the row blocks at width d."""
    step = _BLOCK_ELEMENTS // d
    return [1, step - 1, step, step + 1, 2 * step + 1]


def harmonic(d):
    """The trace-1 spectrum with weights 1/k, k = 1..d."""
    w = 1.0 / np.arange(1, d + 1)
    return tuple(w / w.sum())


def one_shot_gaussian(n, spec, rng, rotate):
    """gen_gaussian_iid as one product of a separate scaled draw."""
    q = random_orthogonal(spec.d, rng) if rotate else np.eye(spec.d)
    z = rng.standard_normal((n, spec.d))
    return (z * np.sqrt(spec.sigmabar_sq)) @ q.T


def one_shot_low_coherence(n, d, sigma1_frac, gap, rng):
    """gen_low_coherence's Cholesky construction as one n x d product."""
    g = rng.standard_normal((n, d))
    right = random_orthogonal(d, rng)
    s1_sq = sigma1_frac * n
    sq = np.full(d, 0.01 * (1.0 - gap) * s1_sq)
    sq[0] = s1_sq
    if d > 1:
        sq[1] = (1.0 - gap) * s1_sq
    r = np.linalg.cholesky(g.T @ g).T
    a = g @ np.linalg.solve(r, np.sqrt(sq)[:, None] * right.T)
    return a / np.sqrt(np.einsum("ij,ij->i", a, a)).max()


def two_pass_gaussian(n, spec, rng, rotate):
    """gen_gaussian_iid with the scaling as its own pass over the draw,
    before the blocked rotation: the bytes the per-block scaling keeps."""
    q = random_orthogonal(spec.d, rng) if rotate else np.eye(spec.d)
    a = rng.standard_normal((n, spec.d))
    a *= np.sqrt(np.array(spec.sigmabar_sq))
    if rotate:
        for rows in _row_blocks(n, spec.d):
            a[rows] = a[rows] @ q.T
    return a + 0.0


class TestBlockedGenerators:
    """The generators scale and rotate their draw in place, one row block at
    a time; at and around the block edges they match a one-shot product of
    the same draws and leave the stream where it leaves it."""

    @pytest.mark.parametrize("rotate", [True, False])
    @pytest.mark.parametrize(
        "spectrum",
        [harmonic(d) for d in (1, 2, 20, 128)] + [(0.5, 0.5, 0.0)],
        ids=["1", "2", "20", "128", "zero-entry"],  # a zero entry: signed zeros
    )
    def test_gaussian_matches_one_shot(self, spectrum, rotate):
        spec = GaussSpec(spectrum)
        for n in edge_rows(spec.d):
            ref_rng, rng = RngStream(31, n), RngStream(31, n)
            ref = one_shot_gaussian(n, spec, ref_rng, rotate)
            a, _ = gen_gaussian_iid(n, spec, rng, rotate)
            assert np.abs(a.data - ref).max() <= 1e-14 * np.abs(ref).max()
            assert np.array_equal(rng.standard_normal(4), ref_rng.standard_normal(4))
            # The per-block scaling gives the bits of one scaling pass.
            two_pass = two_pass_gaussian(n, spec, RngStream(31, n), rotate)
            assert a.data.tobytes() == two_pass.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 20, 128])
    def test_low_coherence_matches_one_shot(self, d):
        for n in edge_rows(d):
            if n < d:
                continue
            ref_rng, rng = RngStream(32, n), RngStream(32, n)
            ref = one_shot_low_coherence(n, d, 0.05, 0.5, ref_rng)
            a = gen_low_coherence(n, d, 0.05, 0.5, rng).data
            assert np.abs(a - ref).max() <= 1e-14 * np.abs(ref).max()
            assert np.array_equal(rng.standard_normal(4), ref_rng.standard_normal(4))


class TestPeakMemory:
    """A trial holds one n x d array: building an instance and its ground
    truth allocate at most a few row blocks beyond A (about 20 MiB here)."""

    N, D = 40_960, 64

    @pytest.mark.parametrize("gen", [
        {"kind": "gaussian", "sigma1_sq": 0.5, "kappabar": 0.5},
        {"kind": "gaussian", "sigma1_sq": 0.5, "kappabar": 0.5, "rotate": False},
        {"kind": "low-coh", "sigma1_frac": 0.05, "gap": 0.5},
    ], ids=["gaussian", "gaussian-unrotated", "low-coh"])
    def test_build_instance_and_spectrum_stats(self, gen):
        bound = 8 * self.N * self.D + 4 * 8 * _BLOCK_ELEMENTS
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            a, _, _ = build_instance(
                {**gen, "n": self.N, "d": self.D}, RngStream(41), 0.05
            )
            built = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            spectrum_stats(a)
            stats = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert built <= bound
        assert stats <= bound


def traced_peak(fn) -> int:
    """Peak bytes traced while fn() runs, above what was traced before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestScratchBlock:
    """The blocked products run through one scratch block per thread: once
    a thread has made it, they allocate no row block of their own."""

    N, D = 16_000, 20  # two row blocks of 1.28 MB each
    SPEC = GaussSpec.spiked(D, 0.5, 0.5)

    def test_spectrum_stats_allocates_no_block(self):
        def draw(seed):
            return DenseMatrix(np.random.default_rng(seed).normal(size=(self.N, self.D)))

        spectrum_stats(draw(51))  # warm-up
        a = draw(52)
        assert traced_peak(lambda: spectrum_stats(a)) < 2**20

    def test_gaussian_rotation_allocates_no_block(self):
        gen_gaussian_iid(self.N, self.SPEC, RngStream(53))  # warm-up
        peak = traced_peak(lambda: gen_gaussian_iid(self.N, self.SPEC, RngStream(54)))
        assert peak <= 8 * self.N * self.D + 2**20

    def test_low_coherence_core_product_allocates_no_block(self):
        gen_low_coherence(self.N, self.D, 0.05, 0.5, RngStream(55))  # warm-up
        peak = traced_peak(
            lambda: gen_low_coherence(self.N, self.D, 0.05, 0.5, RngStream(56)))
        assert peak <= 8 * self.N * self.D + 2**20

    def test_threads_get_the_serial_bytes(self):
        def kernels(seed):
            a, _ = gen_gaussian_iid(self.N, self.SPEC, RngStream(seed))
            stats = spectrum_stats(a)
            low = gen_low_coherence(self.N, self.D, 0.05, 0.5, RngStream(seed))
            return (a.data.tobytes(), low.data.tobytes(), stats.upsilon,
                    stats.u_inf, stats.mu, stats.top_vector.tobytes())

        seeds = [60 + i % 4 for i in range(8)]
        want = {seed: kernels(seed) for seed in set(seeds)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the block loops
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(kernels, seeds, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for seed, out in zip(seeds, got):
            assert out == want[seed]


class TestGenHighCoherence:
    def test_single_spike_rest_zero(self):
        a = gen_high_coherence(50, 4, RngStream(13), spikes=1, noise_norm=0.0)
        st = spectrum_stats(a)
        assert st.upsilon == pytest.approx(1.0)
        assert st.mu == pytest.approx(50.0)

    def test_k_spikes_upsilon(self):
        for k in (2, 4, 9):
            a = gen_high_coherence(100, 5, RngStream(14), spikes=k)
            assert spectrum_stats(a).upsilon == pytest.approx(
                1.0 / np.sqrt(k), abs=1e-9
            )

    def test_mu_at_least_quarter_n(self):
        for seed in range(20):
            a = gen_high_coherence(400, 8, RngStream(15, seed))
            assert spectrum_stats(a).mu >= 400 / 4

    def test_rows_bounded(self):
        a = gen_high_coherence(60, 6, RngStream(16))
        assert a.max_row_norm() <= 1.0 + 1e-9


@pytest.mark.parametrize("call, match", [
    (lambda: gen_gaussian_iid(0, GaussSpec((1.0,)), RngStream(0)), "n must be >= 1"),
    (lambda: scale_for_privacy(DenseMatrix(np.ones((4, 2))), 1.5), "beta must lie"),
    (lambda: gen_high_coherence(10, 3, RngStream(0), spikes=0), "spikes must lie"),
    (lambda: gen_high_coherence(10, 3, RngStream(0), noise_norm=1.5), "noise_norm must lie"),
], ids=["gaussian-n0", "scale-beta", "high-coh-spikes", "high-coh-noise"])
def test_generators_reject_bad_params(call, match):
    with pytest.raises(ParameterError, match=match):
        call()


class TestBernsteinEnvelope:
    def test_spectral_concentration_within_G(self):
        # ||A^T A - n Sigma^2||_2 <= G in >= 95% of 40 seeds
        n, d = 4096, 16
        spec = GaussSpec.spiked(d, 0.5, 0.5)
        g_bound = gaussian_bounds(spec, n, 0.05)
        sigma2 = np.diag(spec.sigmabar_sq)
        hits = 0
        for seed in range(40):
            a, _ = gen_gaussian_iid(n, spec, RngStream(17, seed), rotate=False)
            dev = np.linalg.norm(gram(a) - n * sigma2, ord=2)
            hits += dev <= g_bound
        assert hits >= 38
