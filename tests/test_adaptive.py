"""Tests for the adaptive iteration, the kappa sweep, and the noisy-iterate check."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import dppca
from dppca import adaptive, svtfilter
from dppca.adaptive import (
    check_private_input,
    corollary_iterations,
    run_adaptive_power,
    run_kappa_sweep,
)
from dppca.datagen import (
    GaussSpec,
    gen_gaussian_iid,
    gen_high_coherence,
    gen_low_coherence,
    scale_for_privacy,
)
from dppca.errors import ContractViolationError, ParameterError
from dppca.matcore import DenseMatrix, gram, sin_sq, spectrum_stats
from dppca.mech import (
    PrivacyBudget,
    RngStream,
    gaussian_sigma,
    sample_gaussian_vec,
    split_budget,
)
from dppca.svtfilter import threshold_search


@pytest.fixture
def instance():
    return gen_low_coherence(150, 8, 0.3, 0.6, RngStream(1))


def power_iteration_oracle(a, x0, iters):
    """Independent plain power iteration on A^T A with normalization."""
    g = a.data.T @ a.data
    x = x0.copy()
    for _ in range(iters):
        x = g @ x
        x = x / np.linalg.norm(x)
    return x


class TestParams:
    def test_rejects_bad_accountant(self, instance):
        # The accountant rides on the per-iteration budget; an unknown name
        # is rejected before the run can start.
        with pytest.raises(ParameterError, match="accountant must be one of"):
            run_adaptive_power(
                instance, 1, split_budget(PrivacyBudget(0.1, 1e-6, "rdp"), 2),
                RngStream(0),
            )

    def test_rejects_zero_iterations(self, instance):
        with pytest.raises(ParameterError):
            run_adaptive_power(instance, 0, PrivacyBudget(0.1, 1e-6), RngStream(0))

    def test_rejects_bad_beta(self, instance):
        with pytest.raises(ParameterError):
            run_adaptive_power(
                instance, 1, PrivacyBudget(0.1, 1e-6), RngStream(0), beta=0.0
            )


class TestInputContract:
    def test_accepts_wide_matrix(self):
        # Unit rows, more columns than rows: only the row norms are checked.
        check_private_input(DenseMatrix(np.eye(3, 5)))

    def test_rejects_long_rows(self):
        with pytest.raises(ContractViolationError):
            check_private_input(DenseMatrix(2.0 * np.eye(4)))


class TestNoiselessReduction:
    def test_matches_power_iteration_oracle(self, instance, noiseless):
        x_hat, trace = run_adaptive_power(
            instance, 30, PrivacyBudget(0.5, 1e-6), RngStream(5, 2)
        )
        x0 = RngStream(5, 2).standard_normal(instance.d)
        oracle = power_iteration_oracle(instance, x0, 30)
        assert np.abs(x_hat - oracle).max() <= 1e-12
        assert sum(trace.removed) == 0
        assert all(s == 0.0 for s in trace.noise_sigma)


class TestNoisyRun:
    def test_output_unit_norm(self, instance):
        x_hat, _ = run_adaptive_power(instance, 5, PrivacyBudget(0.5, 1e-6), RngStream(2))
        assert np.linalg.norm(x_hat) == pytest.approx(1.0, abs=1e-12)

    def test_trace_lengths(self, instance):
        _, trace = run_adaptive_power(instance, 7, PrivacyBudget(0.5, 1e-6), RngStream(3))
        for lst in (trace.theta, trace.removed, trace.noise_sigma, trace.queries_issued):
            assert len(lst) == 7

    def test_deterministic(self, instance):
        per_iter = PrivacyBudget(0.5, 1e-6)
        x1, _ = run_adaptive_power(instance, 5, per_iter, RngStream(4, 9))
        x2, _ = run_adaptive_power(instance, 5, per_iter, RngStream(4, 9))
        assert np.array_equal(x1, x2)

    def test_noise_sigma_tracks_theta(self, instance):
        _, trace = run_adaptive_power(instance, 5, PrivacyBudget(0.5, 1e-6), RngStream(6))
        factor = np.sqrt(2 * np.log(2 / 1e-6)) / 0.5
        for theta, sigma in zip(trace.theta, trace.noise_sigma):
            assert sigma == pytest.approx(theta * factor)

    def test_converges_with_generous_budget(self, instance):
        x_hat, _ = run_adaptive_power(instance, 20, PrivacyBudget(50.0, 1e-6), RngStream(7))
        v1 = spectrum_stats(instance).top_vector
        assert sin_sq(x_hat, v1) < 0.05

    def test_default_accountant_draws_unchanged(self, instance):
        # Reference values from the paper-accounting iteration as it was
        # before the accountant option existed.
        rng = RngStream(11)
        x_hat, trace = run_adaptive_power(instance, 5, PrivacyBudget(0.5, 1e-6), rng)
        assert rng.uniform_open() == 0.033828046659899025  # the stream's next draw
        assert trace.noise_sigma[0] == pytest.approx(0.990369439057216, rel=1e-12)
        assert x_hat[:3] == pytest.approx(
            [0.36719045965363173, 0.48457222203870187, 0.5633134636047399],
            rel=1e-9,
        )
        again, _ = run_adaptive_power(
            instance, 5, PrivacyBudget(0.5, 1e-6, "paper"), RngStream(11)
        )
        assert np.array_equal(x_hat, again)

    def test_step_matches_kept_gram_reference(self, instance):
        # The step A^T (mask * A x) against the kept-row Gram step it
        # replaced, kept.T @ kept @ x + noise, on the same stream.
        per_iter = PrivacyBudget(0.5, 1e-6)
        x_hat, trace = run_adaptive_power(instance, 5, per_iter, RngStream(11))
        assert sum(trace.removed) > 0
        rng = RngStream(11)
        x = rng.standard_normal(instance.d)
        for _ in range(5):
            theta = threshold_search(instance, x, per_iter.epsilon, rng).theta
            q = instance.row_norms() * np.abs(instance.data @ x)
            kept = instance.data[q <= theta]
            sigma = gaussian_sigma(theta, per_iter)
            x = kept.T @ kept @ x + sample_gaussian_vec(instance.d, sigma, rng)
            x /= np.linalg.norm(x)
        assert np.linalg.norm(x_hat - x) <= 1e-12 * np.linalg.norm(x)

    def test_zcdp_step_sigma_is_theta_over_epsilon(self, instance):
        per_iter = split_budget(PrivacyBudget(1.0, 1e-5, "zcdp"), 2 * 5)
        _, trace = run_adaptive_power(instance, 5, per_iter, RngStream(6))
        for theta, sigma in zip(trace.theta, trace.noise_sigma):
            assert sigma == pytest.approx(theta / per_iter.epsilon, rel=1e-12)


class TestCorollaryIterations:
    def test_formula(self):
        n, beta, delta, eps, kappa = 1000, 0.05, 1e-5, 1.0, 0.5
        expect = int(np.ceil(np.log(n / (beta * delta * eps)) / kappa))
        assert corollary_iterations(n, beta, delta, eps, kappa) == expect

    def test_const_scales(self):
        t1 = corollary_iterations(1000, 0.05, 1e-5, 1.0, 0.5, const=1.0)
        t2 = corollary_iterations(1000, 0.05, 1e-5, 1.0, 0.5, const=0.5)
        assert t2 == int(np.ceil(t1 / 2)) or t2 <= t1
        for const in (0.0, -1.0, float("nan"), float("inf")):  # not T = 1
            with pytest.raises(ParameterError, match="t_const must be positive"):
                corollary_iterations(1000, 0.05, 1e-5, 1.0, 0.5, const=const)

    def test_bad_kappa(self):
        with pytest.raises(ParameterError):
            corollary_iterations(1000, 0.05, 1e-5, 1.0, 0.0)

    def test_clamped_at_one_for_huge_epsilon(self):
        assert corollary_iterations(100, 0.05, 0.5, 1e9, 1.0) == 1

    @pytest.mark.parametrize("eps", [1e-300, 1e-320])  # n / (beta delta eps) overflows
    def test_tiny_epsilon_gets_its_t(self, eps):
        log_arg = np.log(1000 / (0.05 * 1e-5)) - np.log(eps)
        assert corollary_iterations(1000, 0.05, 1e-5, eps, 0.5) == np.ceil(log_arg / 0.5)


class TestKappaSweep:
    def test_structure(self, instance):
        res = run_kappa_sweep(
            instance, PrivacyBudget(4.0, 1e-5), RngStream(11), num_guesses=3
        )
        assert len(res.candidates) == 3
        assert 0 <= res.selected < 3
        assert res.selection_epsilon == pytest.approx(2.0)
        # guesses halve, iteration counts double (ceil effects aside)
        kappas = [c.kappa_guess for c in res.candidates]
        assert kappas == [1.0, 0.5, 0.25]
        iters = [c.iterations for c in res.candidates]
        assert iters[0] <= iters[1] <= iters[2]
        assert all(len(c.trace.theta) == c.iterations for c in res.candidates)
        assert res.run_budget == PrivacyBudget(4.0 / 6, 1e-5 / 3)

    def test_deterministic(self, instance):
        a = run_kappa_sweep(
            instance, PrivacyBudget(4.0, 1e-5), RngStream(12), num_guesses=2
        )
        b = run_kappa_sweep(
            instance, PrivacyBudget(4.0, 1e-5), RngStream(12), num_guesses=2
        )
        assert np.array_equal(a.estimate, b.estimate)
        assert a.selected == b.selected

    def test_noiseless_selects_best_rayleigh(self, instance, noiseless):
        # Degenerate selection epsilon: the argmax candidate must win.
        g = gram(instance)
        res = run_kappa_sweep(
            instance, PrivacyBudget(1e6, 0.5), RngStream(13), num_guesses=3,
        )
        best = max(
            range(3), key=lambda j: res.candidates[j].estimate
            @ (g @ res.candidates[j].estimate)
        )
        assert res.selected == best

    def test_rejects_zero_guesses(self, instance):
        with pytest.raises(ParameterError):
            run_kappa_sweep(instance, PrivacyBudget(1.0, 1e-5), RngStream(0), 0)


class TestNoisyIterateCheck:
    """A noisy iterate whose norm is 0 or not finite has no unit direction:
    the loop raises ParameterError naming the noise scale, with and without
    the threshold search."""

    @pytest.mark.parametrize("search", [True, False], ids=["adaptive", "naive-power"])
    def test_budget_too_small_to_noise(self, instance, search):
        # sigma is about 1e303: the noisy iterate's norm overflows to inf.
        per_iter = split_budget(PrivacyBudget(1e-300, 1e-5), 6)
        with np.errstate(over="ignore"), pytest.raises(
            ParameterError, match=r"norm inf at noise scale \d"
        ):
            run_adaptive_power(instance, 3, per_iter, RngStream(17), search=search)

    @pytest.mark.parametrize("search", [True, False], ids=["adaptive", "naive-power"])
    def test_zero_step_without_noise(self, noiseless, search):
        per_iter = split_budget(PrivacyBudget(1.0, 1e-5), 10)
        with pytest.raises(ParameterError, match="norm 0.0 at noise scale 0"):
            run_adaptive_power(DenseMatrix(np.zeros((8, 3))), 5, per_iter, RngStream(17, 3),
                               search=search)


def test_no_public_function_takes_noiseless():
    # A run without noise is a test-side patch (the `noiseless` fixture),
    # never a switch of the package.
    for info in pkgutil.iter_modules(dppca.__path__):
        module = importlib.import_module(f"dppca.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                funcs = [f for _, f in inspect.getmembers(obj, inspect.isfunction)]
            else:
                funcs = [obj] if inspect.isfunction(obj) else []
            for func in funcs:
                assert "noiseless" not in inspect.signature(func).parameters, (
                    f"{module.__name__}.{name}")


def record_steps(monkeypatch):
    """Run-time record of the loop: each threshold search's probe vector and
    result, and each step's noise, in call order."""
    searches, noises = [], []

    def search_and_record(a, x, *args, **kwargs):
        found = threshold_search(a, x, *args, **kwargs)
        searches.append((x.copy(), found))
        return found

    def noise_and_record(dim, sigma, rng):
        noise = sample_gaussian_vec(dim, sigma, rng)
        noises.append(noise)
        return noise

    monkeypatch.setattr(adaptive, "threshold_search", search_and_record)
    monkeypatch.setattr(adaptive, "sample_gaussian_vec", noise_and_record)
    return searches, noises


def masked_step(a, x, theta):
    """The filtered step as the paper writes it: A^T (mask * A x)."""
    ax = a.data @ x
    q = a.row_norms() * np.abs(ax)
    return np.dot(a.data.T, np.where(q <= theta, ax, 0.0))


class TestGramStep:
    """The loop steps to G x - A_R^T (A x)_R, with G = A^T A and R the rows
    the search removed: the masked product A^T (mask * A x) in exact
    arithmetic."""

    @pytest.mark.parametrize("kind", ["gaussian", "low-coh", "high-coh"])
    def test_matches_the_masked_product(self, monkeypatch, kind):
        rng = RngStream(31)
        if kind == "gaussian":
            a = gen_gaussian_iid(3000, GaussSpec.spiked(12, 0.5, 0.5), rng)[0]
            scale_for_privacy(a, 0.05)
        elif kind == "low-coh":
            a = gen_low_coherence(3000, 12, 0.3, 0.6, rng)
        else:
            a = gen_high_coherence(3000, 12, rng)
        searches, noises = record_steps(monkeypatch)
        x_hat, trace = run_adaptive_power(a, 6, PrivacyBudget(0.5, 1e-6), RngStream(32))
        assert sum(trace.removed) > 0
        if kind == "high-coh":  # the spikes e1 carry the top direction
            assert any(found.removed[:4].tolist() == [0, 1, 2, 3] for _, found in searches)
        nexts = [x for x, _ in searches[1:]] + [x_hat]
        for (x, found), noise, got in zip(searches, noises, nexts, strict=True):
            want = masked_step(a, x, found.theta) + noise
            want /= np.linalg.norm(want)
            assert np.linalg.norm(got - want) <= 1e-12

    def test_every_row_removed_is_an_exact_zero_step(self, monkeypatch):
        # A tiny epsilon sinks the bar, so the first probe fires and every
        # row is above theta; each step is then exactly zero (not G x less
        # its own rounding), so each iterate is exactly the normalised noise.
        a = gen_low_coherence(200, 6, 0.3, 0.6, RngStream(33))
        noise = np.array([0.3, -1.7, 0.2, 2.9, -0.4, 1.1])
        monkeypatch.setattr(adaptive, "sample_gaussian_vec",
                            lambda dim, sigma, rng: noise.copy())
        x_hat, trace = run_adaptive_power(a, 4, PrivacyBudget(1e-4, 1e-6), RngStream(34))
        assert trace.removed == [a.n] * 4
        unit = noise / np.linalg.norm(noise)
        assert x_hat.tobytes() == (unit / np.linalg.norm(unit)).tobytes()

    def test_naive_step_is_gram_times_x_plus_noise(self, monkeypatch, instance):
        # The unsearched step reads no A: with G and the row norms cached,
        # A's entries are overwritten with NaN and the run is unchanged.
        per_iter = split_budget(PrivacyBudget(1.0, 1e-5), 5)
        want, _ = run_adaptive_power(instance, 5, per_iter, RngStream(35), search=False)
        g = gram(instance)
        instance.row_norms()
        instance.data = np.full_like(instance.data, np.nan)
        _, noises = record_steps(monkeypatch)
        got, _ = run_adaptive_power(instance, 5, per_iter, RngStream(35), search=False)
        assert np.array_equal(got, want)
        x = RngStream(35).standard_normal(instance.d)
        for noise in noises:
            x = g @ x + noise
            x /= np.linalg.norm(x)
        assert np.array_equal(got, x / np.linalg.norm(x))


class TestNormLayout:
    """A run of at least `_LAYOUT_SEARCHES` searches lays A out by norm
    first; a shorter one leaves A as it is."""

    @pytest.fixture
    def spiked(self, monkeypatch):
        a = gen_gaussian_iid(3001, GaussSpec.spiked(12, 0.5, 0.5), RngStream(36))[0]
        scale_for_privacy(a, 0.05)
        monkeypatch.setattr(svtfilter, "_BLOCK_ELEMENTS", 64 * a.d)  # groups of 64 rows
        return a

    def test_short_run_leaves_the_rows(self, spiked):
        rows = spiked.data.copy()
        run_adaptive_power(spiked, adaptive._LAYOUT_SEARCHES - 1, PrivacyBudget(0.5, 1e-6),
                           RngStream(37))
        assert spiked._layout is None
        assert spiked.data.tobytes() == rows.tobytes()

    def test_long_run_matches_the_run_without_layout(self, spiked, monkeypatch):
        t, per_iter = 3 * adaptive._LAYOUT_SEARCHES, split_budget(PrivacyBudget(1.0, 1e-5), 60)
        plain = DenseMatrix(spiked.data.copy())
        got, got_trace = run_adaptive_power(spiked, t, per_iter, RngStream(38))
        assert len(spiked._layout) >= 5
        monkeypatch.setattr(adaptive, "_LAYOUT_SEARCHES", t + 1)
        want, want_trace = run_adaptive_power(plain, t, per_iter, RngStream(38))
        assert plain._layout is None
        # Theta is 2^k ||x||, so it moves with x's rounding; k does not.
        assert (got_trace.removed, got_trace.queries_issued) == (
            want_trace.removed, want_trace.queries_issued)
        np.testing.assert_allclose(got_trace.theta, want_trace.theta, rtol=1e-12)
        assert np.linalg.norm(got - want) <= 1e-12  # both unit vectors
