"""An independent check that each run's Gaussian noise spends no more than
the requested (epsilon, delta).

Nothing here calls dppca.mech's calibration.  The guarantees are restated
with `math` alone:
- the analytic privacy profile of one Gaussian release (Balle & Wang 2018):
  a release of sensitivity D and noise sigma, mu = D / sigma, is
  (eps, delta)-DP exactly when
  delta >= Phi(mu / 2 - eps / mu) - e^eps Phi(-mu / 2 - eps / mu);
- advanced composition (Dwork, Rothblum & Vadhan 2010): k mechanisms, each
  (eps_m, delta_m)-DP, are (sqrt(2 k ln(1/d')) eps_m + k eps_m (e^eps_m - 1),
  k delta_m + d')-DP for every d' > 0;
- zCDP (Bun & Steinke 2016): a pure eps_m-DP mechanism is (eps_m^2 / 2)-zCDP,
  a Gaussian release is (mu^2 / 2)-zCDP, rho adds over mechanisms, and
  rho-zCDP is (rho + 2 sqrt(rho ln(1/delta)), delta)-DP.

Each run goes through `bench.run_algorithm`, the path of `dppca bench` and
`dppca run`.  The noisy loop's releases are read from its trace
(sensitivity theta, noise sigma); analyze-gauss's sigma is measured from
the noise matrix it adds, with sensitivity 1.  A threshold search counts
as the pure eps_m-DP mechanism the run's accounting names.  The budgets
are the acceptance grid's cells (corollary T), the same epsilons at
`dppca run`'s default T = 10, and analyze-gauss at each epsilon.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from dppca import baselines, bench
from dppca.datagen import gen_gaussian_iid, scale_for_privacy
from dppca.mech import RngStream

GRID = json.loads((Path(__file__).parent / "data" / "acceptance_bench.json").read_text())["grid"]
SEED, D = 7, 20
ROUNDING = 1.0 + 1e-12  # a budget split exactly at the total may round one ulp over


def phi(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gaussian_delta(eps, mu):
    """The least delta for which a Gaussian release with sensitivity /
    sigma = mu is (eps, delta)-DP."""
    return phi(mu / 2.0 - eps / mu) - math.exp(eps) * phi(-mu / 2.0 - eps / mu)


def advanced_epsilon(k, eps_m, slack):
    """The epsilon of k (eps_m, delta_m) mechanisms at total delta
    k delta_m + slack."""
    return (math.sqrt(2.0 * k * math.log(1.0 / slack)) * eps_m
            + k * eps_m * math.expm1(eps_m))


def zcdp_epsilon(rho, delta):
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def budget_cells():
    cells = []
    for cell in GRID:
        if cell["algo"] == "adaptive":
            cells += [(f"{cell['cell']}-{algo}", dict(cell, algo=algo))
                      for algo in ("adaptive", "naive-power")]
    for eps in sorted({cell["eps_total"] for cell in GRID}):
        budget = {"eps_total": eps, "delta_total": 1e-5}
        cells += [(f"T10-eps{eps:g}-{algo}", dict(budget, algo=algo, T=10))
                  for algo in ("adaptive", "naive-power")]
        cells.append((f"eps{eps:g}-analyze-gauss", dict(budget, algo="analyze-gauss")))
    return cells


CELLS = budget_cells()


def test_the_grid_spans_the_shipped_budgets():
    assert {cell["eps_total"] for cell in GRID} == {0.25, 1.0, 4.0}
    assert {cell["delta_total"] for cell in GRID} == {1e-5}
    assert {cell.get("T") for cell in GRID if cell["algo"] == "adaptive"} == {"corollary"}


def test_profile_known_values():
    # eps = 0: the total variation between N(0, 1) and N(mu, 1).
    assert gaussian_delta(0.0, 1.0) == pytest.approx(math.erf(0.5 / math.sqrt(2.0)), rel=1e-14)
    # The classical calibration sigma = sqrt(2 ln(1.25 / delta)) / eps
    # (Dwork & Roth 2014, Thm A.1, eps < 1) is valid, and loose.
    for eps in (0.1, 0.5, 0.9):
        sigma = math.sqrt(2.0 * math.log(1.25 / 1e-5)) / eps
        assert 0.0 < gaussian_delta(eps, 1.0 / sigma) <= 1e-5
    # More noise, less delta.
    assert gaussian_delta(1.0, 0.5) < gaussian_delta(1.0, 1.0)


def releases(cell, monkeypatch):
    """Run `cell` on a scaled Gaussian instance; return (run, [mu = D / sigma
    of each Gaussian release])."""
    a, _ = gen_gaussian_iid(2000, D, 0.5, 0.5, RngStream(SEED, 1))
    scale_for_privacy(a, 0.05)
    mus, noise = [], []
    loop, mirror = bench.run_adaptive_power, baselines._mirror_upper

    def traced_loop(*args, **kwargs):
        x, trace = loop(*args, **kwargs)
        mus.extend(theta / sigma for theta, sigma in zip(trace.theta, trace.noise_sigma))
        return x, trace

    def kept_noise(upper):
        noise.append(upper.copy())
        return mirror(upper)

    monkeypatch.setattr(bench, "run_adaptive_power", traced_loop)
    monkeypatch.setattr(baselines, "_mirror_upper", kept_noise)
    run = bench.run_algorithm(cell, a, RngStream(SEED))
    if noise:  # sigma * z for z the stream's first draw; the least ratio is the safe side
        (upper,) = noise
        ratio = upper / RngStream(SEED).standard_normal((D, D))
        assert np.ptp(ratio) <= 1e-12 * np.max(ratio)  # the noise is that draw, scaled
        mus.append(1.0 / float(np.min(ratio)))
    return run, mus


@pytest.mark.parametrize("accountant", ["paper", "zcdp"])
@pytest.mark.parametrize("cell", [c for _, c in CELLS], ids=[name for name, _ in CELLS])
def test_releases_compose_within_the_requested_budget(cell, accountant, monkeypatch):
    cell = dict(cell, accountant=accountant)
    eps, delta = cell["eps_total"], cell["delta_total"]
    run, mus = releases(cell, monkeypatch)
    k = run.accounting["mechanisms"]

    if cell["algo"] == "analyze-gauss":  # one release spends the whole budget
        (mu,) = mus
        assert k == 1
        assert gaussian_delta(eps, mu) <= delta
        if accountant == "zcdp":
            assert zcdp_epsilon(mu * mu / 2.0, delta) <= eps * ROUNDING
        return

    searches = k - len(mus)
    assert len(mus) == run.t and searches == (run.t if cell["algo"] == "adaptive" else 0)
    eps_m, delta_m = run.accounting["per_mechanism_epsilon"], run.accounting["per_mechanism_delta"]
    if accountant == "paper":
        for mu in mus:
            assert gaussian_delta(eps_m, mu) <= delta_m
        slack = delta - k * delta_m
        assert slack > 0.0
        assert advanced_epsilon(k, eps_m, slack) <= eps * ROUNDING
    else:
        for mu in mus:  # each release is at most (eps_m^2 / 2)-zCDP, as a search is
            assert mu * mu <= eps_m * eps_m * ROUNDING
        rho = searches * eps_m * eps_m / 2.0 + sum(mu * mu / 2.0 for mu in mus)
        assert zcdp_epsilon(rho, delta) <= eps * ROUNDING
