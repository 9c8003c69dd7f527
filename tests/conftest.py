"""Shared fixtures."""

import pytest

from dppca import adaptive, baselines
from oracles import reference_search


@pytest.fixture
def noiseless(monkeypatch):
    """Every mechanism off: the power loop's threshold search is the
    reference search without noise, and every Gaussian scale is 0, so
    `sample_gaussian_vec` returns zeros and draws nothing and analyze_gauss
    perturbs by an exact zero.  The loop then reduces to plain power
    iteration on A^T A from its Gaussian start."""

    def search(a, x, epsilon, rng, *, beta):
        return reference_search(a, x, epsilon, rng, beta=beta, noiseless=True)

    monkeypatch.setattr(adaptive, "threshold_search", search)
    for module in (adaptive, baselines):
        monkeypatch.setattr(module, "gaussian_sigma", lambda sensitivity, budget: 0.0)
