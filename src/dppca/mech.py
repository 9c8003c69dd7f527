"""Privacy budgets, noise mechanisms, and counter-based random streams.

Randomness policy: every consumer draws from an `RngStream`, which wraps a
Philox counter-based generator keyed by (master_seed, stream_id).  A
stream's output is a pure function of those two fields and the order of
draws, so any run is reproducible from its seed regardless of scheduling.
Laplace noise is sampled through the explicit inverse CDF; Gaussian noise
uses the generator's standard_normal (ziggurat).

Accountants: a `PrivacyBudget` carries one, e.g. `PrivacyBudget(1.0, 1e-5,
"zcdp")`, and `split_budget` and `gaussian_sigma` apply its rules.  "paper"
is the paper's advanced composition (`compose`, `invert_budget`) and the
default everywhere.  "zcdp" is zero-concentrated DP (Bun & Steinke 2016):
the total (epsilon, delta) becomes a zCDP budget rho, and each of t
mechanisms gets a per-mechanism epsilon_m with epsilon_m^2 / 2 = rho / t.
A pure epsilon_m-DP mechanism (a threshold search, the exponential
mechanism) is (epsilon_m^2 / 2)-zCDP, and so is a Gaussian release with
sigma = sensitivity / epsilon_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ParameterError

_CHILD_MIX = 0x9E3779B97F4A7C15  # odd multiplier for child stream ids

ACCOUNTANTS = ("paper", "zcdp")


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) pair, both strictly positive with delta < 1, and
    the accountant (one of ACCOUNTANTS) that splits and calibrates it."""

    epsilon: float
    delta: float
    accountant: str = "paper"

    def __post_init__(self) -> None:
        eps, delta = self.epsilon, self.delta
        if not (math.isfinite(eps) and eps > 0.0):
            raise BudgetError(f"epsilon must be positive and finite, got {eps}")
        if not (math.isfinite(delta) and 0.0 < delta < 1.0):
            raise BudgetError(f"delta must lie in (0, 1), got {delta}")
        if self.accountant not in ACCOUNTANTS:
            raise ParameterError(
                f"accountant must be one of {ACCOUNTANTS}, got {self.accountant!r}"
            )


@dataclass
class RngStream:
    """A deterministic Philox stream identified by (master_seed, stream_id).

    `counter` tracks how many draw calls have been issued; it exists for
    tracing and is not consulted when generating.
    """

    master_seed: int
    stream_id: int = 0
    counter: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise ParameterError("master_seed must fit in 64 unsigned bits")
        if not 0 <= self.stream_id < 2**64:
            raise ParameterError("stream_id must fit in 64 unsigned bits")
        key = (self.master_seed << 64) | self.stream_id
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derive an independent downstream stream (e.g. one per sweep run)."""
        mixed = ((self.stream_id * _CHILD_MIX) + index + 1) % 2**64
        return RngStream(self.master_seed, mixed)

    def standard_normal(self, size: int | tuple[int, ...]) -> np.ndarray:
        self.counter += 1
        return self._gen.standard_normal(size)

    def uniform_open(self, size: int | None = None) -> np.ndarray | float:
        """Uniform on the open interval (0, 1)."""
        self.counter += 1
        u = self._gen.random(size)
        # random() covers [0, 1); nudge exact zeros up one ulp.
        tiny = np.nextafter(0.0, 1.0)
        if size is None:
            return float(u) if u > 0.0 else tiny
        u[u == 0.0] = tiny
        return u


def sample_laplace(scale: float, rng: RngStream, size: int | None = None):
    """Laplace(0, scale) via the inverse CDF applied to uniform(0,1) draws.

    x = -scale * sign(u - 1/2) * ln(1 - 2|u - 1/2|)
    """
    if not (math.isfinite(scale) and scale >= 0.0):
        raise ParameterError(f"laplace scale must be >= 0, got {scale}")
    if scale == 0.0:
        return 0.0 if size is None else np.zeros(size)
    u = rng.uniform_open(size)
    centered = u - 0.5
    inner = 1.0 - 2.0 * np.abs(centered)
    # u <= 2**-55, uniform_open's nudged zero (5e-324) among them, rounds
    # u - 1/2 to -1/2, so inner == 0 and log(inner) = -inf; the clamp keeps
    # those draws finite, at -scale * 744.4.
    inner = np.maximum(inner, np.nextafter(0.0, 1.0))
    out = -scale * np.sign(centered) * np.log(inner)
    return float(out) if size is None else out


def gaussian_sigma(sensitivity: float, budget: PrivacyBudget) -> float:
    """Gaussian-mechanism noise scale for a given L2 sensitivity k, by the
    budget's accountant.

    "paper": sigma = k * sqrt(2 ln(2/delta)) / epsilon (Algorithm line 9)
    "zcdp":  sigma = k / epsilon, an (epsilon^2 / 2)-zCDP release (delta is
             not used)
    """
    if not (math.isfinite(sensitivity) and sensitivity >= 0.0):
        raise ParameterError(f"sensitivity must be >= 0, got {sensitivity}")
    if budget.accountant == "zcdp":
        return sensitivity / budget.epsilon
    root = math.sqrt(math.log(2.0 / budget.delta))
    return sensitivity * math.sqrt(2.0) * root / budget.epsilon


def sample_gaussian_vec(dim: int, sigma: float, rng: RngStream) -> np.ndarray:
    if dim < 1:
        raise ParameterError(f"dimension must be >= 1, got {dim}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return np.zeros(dim)
    return sigma * rng.standard_normal(dim)


def compose(per_mechanism: PrivacyBudget, t: int) -> PrivacyBudget:
    """Advanced composition of t adaptive (eps, delta) mechanisms.

    eps' = 2 (t eps^2 + sqrt(2 ln(1/delta) t) eps),  delta' = (t + 1) delta.
    Raises BudgetError if the composed delta reaches 1.
    """
    if t < 1:
        raise ParameterError(f"mechanism count must be >= 1, got {t}")
    eps, delta = per_mechanism.epsilon, per_mechanism.delta
    eps_total = 2.0 * (t * eps * eps + math.sqrt(2.0 * math.log(1.0 / delta) * t) * eps)
    delta_total = (t + 1) * delta
    if delta_total >= 1.0:
        raise BudgetError(
            f"composed delta {(t + 1)} * {delta} = {delta_total} reaches 1"
        )
    return PrivacyBudget(eps_total, delta_total)


def invert_budget(total: PrivacyBudget, t: int) -> PrivacyBudget:
    """Per-mechanism budget whose t-fold composition equals `total`.

    Solves 2 t eps^2 + 2 sqrt(2 ln(1/delta) t) eps - eps_total = 0 for the
    positive root, with delta = delta_total / (t + 1).  Round-trips with
    `compose` up to floating point.
    """
    if t < 1:
        raise ParameterError(f"mechanism count must be >= 1, got {t}")
    delta = total.delta / (t + 1)
    if not 0.0 < delta < 1.0:
        raise BudgetError(f"per-mechanism delta {delta} out of range")
    b = 2.0 * math.sqrt(2.0 * math.log(1.0 / delta) * t)
    # Numerically stable positive root of 2t e^2 + b e - eps_total = 0.
    eps = 2.0 * total.epsilon / (b + math.sqrt(b * b + 8.0 * t * total.epsilon))
    return PrivacyBudget(eps, delta)


def zcdp_rho(total: PrivacyBudget) -> float:
    """Largest rho whose rho-zCDP guarantee implies (epsilon, delta)-DP.

    rho = (sqrt(ln(1/delta) + epsilon) - sqrt(ln(1/delta)))^2, the inverse
    of `zcdp_epsilon` (Bun & Steinke 2016, Prop. 1.3).
    """
    log_term = math.log(1.0 / total.delta)
    return (math.sqrt(log_term + total.epsilon) - math.sqrt(log_term)) ** 2


def zcdp_epsilon(rho: float, delta: float) -> float:
    """The epsilon at which rho-zCDP implies (epsilon, delta)-DP.

    epsilon = rho + 2 sqrt(rho ln(1/delta)).
    """
    if not (math.isfinite(rho) and rho > 0.0):
        raise BudgetError(f"rho must be positive and finite, got {rho}")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def split_budget(total: PrivacyBudget, t: int) -> PrivacyBudget:
    """Per-mechanism budget for t mechanisms composed to `total`, by its
    accountant; the result carries the same accountant.

    "paper": `invert_budget(total, t)`.
    "zcdp":  epsilon_m = sqrt(2 zcdp_rho(total) / t), so the t mechanisms
             compose to zcdp_rho(total); delta stays delta_total, because
             zCDP spends delta only once, in the final conversion.
    """
    if total.accountant == "paper":
        return invert_budget(total, t)
    if t < 1:
        raise ParameterError(f"mechanism count must be >= 1, got {t}")
    return PrivacyBudget(math.sqrt(2.0 * zcdp_rho(total) / t), total.delta, "zcdp")


def exp_mech_select(
    qualities: np.ndarray, sensitivity: float, epsilon: float, rng: RngStream
) -> int:
    """Exponential mechanism: sample index j with P(j) ~ exp(eps q_j / (2 s)).

    Logits are max-shifted before exponentiation.  If the scaled logits are
    not finite (the degenerate epsilon -> infinity path) the highest-quality
    index wins, ties broken by lowest index.
    """
    q = np.asarray(qualities, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise ParameterError("qualities must be a non-empty 1-d array")
    if not np.isfinite(q).all():
        raise ParameterError("qualities must be finite")
    if not (math.isfinite(sensitivity) and sensitivity > 0.0):
        raise ParameterError(f"sensitivity must be positive, got {sensitivity}")
    if not epsilon > 0.0:
        raise BudgetError(f"epsilon must be positive, got {epsilon}")

    with np.errstate(over="ignore"):
        logits = (epsilon / (2.0 * sensitivity)) * q
    if not np.isfinite(logits).all():
        return int(np.argmax(q))
    weights = np.exp(logits - logits.max())
    tot = float(weights.sum())
    if not math.isfinite(tot) or tot <= 0.0:
        return int(np.argmax(q))
    u = rng.uniform_open() * tot
    return int(np.searchsorted(np.cumsum(weights), u, side="left").clip(0, q.size - 1))
