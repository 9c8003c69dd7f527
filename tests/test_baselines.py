"""Tests for the analyze-Gauss baseline and the naive noisy power iteration
(naive-power, run through `run_algorithm`)."""

import numpy as np
import pytest

from dppca.adaptive import run_adaptive_power
from dppca.baselines import analyze_gauss
from dppca.bench import run_algorithm
from dppca.datagen import gen_low_coherence
from dppca.errors import ContractViolationError, ParameterError
from dppca.matcore import DenseMatrix, sin_sq, spectrum_stats
from dppca.mech import PrivacyBudget, RngStream, gaussian_sigma, split_budget, zcdp_rho


@pytest.fixture
def instance():
    return gen_low_coherence(120, 6, 0.3, 0.7, RngStream(2))


class TestAnalyzeGauss:
    def test_noiseless_is_exact_top_eigenvector(self, instance, noiseless):
        v = analyze_gauss(instance, PrivacyBudget(1.0, 1e-5), RngStream(0))
        v1 = spectrum_stats(instance).top_vector
        assert sin_sq(v, v1) <= 1e-18

    def test_unit_output(self, instance):
        v = analyze_gauss(instance, PrivacyBudget(1.0, 1e-5), RngStream(1))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)

    def test_deterministic(self, instance):
        a = analyze_gauss(instance, PrivacyBudget(1.0, 1e-5), RngStream(3))
        b = analyze_gauss(instance, PrivacyBudget(1.0, 1e-5), RngStream(3))
        assert np.array_equal(a, b)

    def test_more_budget_less_error(self, instance):
        v1 = spectrum_stats(instance).top_vector
        errs = {}
        for eps in (0.5, 50.0):
            vals = [
                sin_sq(
                    analyze_gauss(instance, PrivacyBudget(eps, 1e-5), RngStream(s)),
                    v1,
                )
                for s in range(30)
            ]
            errs[eps] = np.median(vals)
        assert errs[50.0] <= errs[0.5]

    def test_default_accountant_draws_unchanged(self, instance):
        # Reference values from the paper-accounting baseline as it was
        # before the accountant option existed.
        rng = RngStream(12)
        v = analyze_gauss(instance, PrivacyBudget(1.0, 1e-5), rng)
        assert rng.uniform_open() == 0.7202864694681583  # the stream's next draw
        assert v[:3] == pytest.approx(
            [0.04171840610998693, 0.5249877869140879, -0.32274018881488375],
            rel=1e-9,
        )
        paper = PrivacyBudget(1.0, 1e-5, "paper")
        again = analyze_gauss(instance, paper, RngStream(12))
        assert np.array_equal(v, again)

    def test_zcdp_sigma(self, instance):
        # Rebuild the zCDP release from the same draw with sigma =
        # 1 / sqrt(2 rho); numpy's eigensolver serves as the oracle.
        budget = PrivacyBudget(1.0, 1e-5, "zcdp")
        sigma = 1.0 / np.sqrt(2.0 * zcdp_rho(budget))
        assert sigma == pytest.approx(4.9006, rel=1e-4)
        g = instance.data.T @ instance.data
        noise = sigma * RngStream(13).standard_normal((instance.d, instance.d))
        noisy = g + np.triu(noise) + np.triu(noise, 1).T
        expect = np.linalg.eigh(noisy)[1][:, -1]
        got = analyze_gauss(instance, budget, RngStream(13))
        assert sin_sq(got, expect) <= 1e-12

    def test_unknown_accountant(self, instance):
        with pytest.raises(ParameterError, match="accountant must be one of"):
            analyze_gauss(instance, PrivacyBudget(1.0, 1e-5, "rdp"), RngStream(0))

    def test_rejects_long_rows(self):
        bad = DenseMatrix(3.0 * np.eye(4))
        with pytest.raises(ContractViolationError):
            analyze_gauss(bad, PrivacyBudget(1.0, 1e-5), RngStream(0))


def naive_power(a, t, eps, delta, rng, accountant="paper"):
    cell = {"algo": "naive-power", "eps_total": eps, "delta_total": delta, "T": t,
            "accountant": accountant}
    return run_algorithm(cell, a, rng).x_hat


class TestNoisyPowerNaive:
    def test_noiseless_matches_power_iteration(self, instance, noiseless):
        x, _ = run_adaptive_power(instance, 40, PrivacyBudget(1.0, 1e-5), RngStream(7, 1),
                                  search=False)
        g = instance.data.T @ instance.data
        y = RngStream(7, 1).standard_normal(instance.d)
        for _ in range(40):
            y = g @ y
            y = y / np.linalg.norm(y)
        assert np.abs(x - y).max() <= 1e-12

    def test_unit_output(self, instance):
        x = naive_power(instance, 5, 0.2, 1e-6, RngStream(8))
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self, instance):
        a = naive_power(instance, 5, 0.2, 1e-6, RngStream(9))
        b = naive_power(instance, 5, 0.2, 1e-6, RngStream(9))
        assert np.array_equal(a, b)

    def test_rejects_zero_iterations(self, instance):
        with pytest.raises(ParameterError):
            naive_power(instance, 0, 0.2, 1e-6, RngStream(0))

    @pytest.mark.parametrize("accountant", ["paper", "zcdp"])
    def test_each_step_is_calibrated_to_the_iterate_norm(self, instance, accountant):
        # The noisy power method written out: one row of norm <= 1 moves
        # A^T A x by at most ||x||, so step k draws sigma_k =
        # gaussian_sigma(||x_k||, per_iter) from the unnormalised start on.
        t, total = 4, PrivacyBudget(0.05, 1e-6, accountant)
        x_hat = naive_power(instance, t, total.epsilon, total.delta, RngStream(21),
                            accountant=accountant)
        per_iter = split_budget(total, t)
        g = instance.data.T @ instance.data
        ref = RngStream(21)
        x = ref.standard_normal(instance.d)
        assert np.linalg.norm(x) > 1.5  # the start is far from unit
        for _ in range(t):
            sigma = gaussian_sigma(float(np.linalg.norm(x)), per_iter)
            y = g @ x + sigma * ref.standard_normal(instance.d)
            x = y / np.linalg.norm(y)
        np.testing.assert_allclose(x_hat, x, rtol=1e-12)
