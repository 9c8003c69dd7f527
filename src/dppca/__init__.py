"""Differentially private top-eigenvector estimation.

Core entry points:

- matcore: dense matrices, the symmetric eigensolver (LAPACK eigh, fixed
  order and signs), coherence statistics
- mech: privacy budgets, composition, Gaussian/Laplace/exponential mechanisms,
  seeded counter-based RNG streams
- svtfilter: private threshold search and leverage-based row filtering
- adaptive: the coherence-adaptive noisy power iteration and its kappa sweep
- baselines: analyze-Gauss input perturbation and naive noisy power iteration
- datagen: synthetic generators across coherence regimes
- theory: closed-form constants and error bounds
- bench: deterministic experiment grid runner
"""

from .adaptive import AdaptiveParams, run_adaptive_power, run_kappa_sweep
from .baselines import analyze_gauss, noisy_power_naive
from .matcore import DenseMatrix, sin_sq, spectrum_stats, sym_eig
from .mech import PrivacyBudget, RngStream, compose, invert_budget

__all__ = [
    "AdaptiveParams",
    "DenseMatrix",
    "PrivacyBudget",
    "RngStream",
    "analyze_gauss",
    "compose",
    "invert_budget",
    "noisy_power_naive",
    "run_adaptive_power",
    "run_kappa_sweep",
    "sin_sq",
    "spectrum_stats",
    "sym_eig",
]

__version__ = "0.1.0"
