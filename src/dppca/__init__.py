"""Differentially private top-eigenvector estimation.

Core entry points:

- matcore: dense matrices, the symmetric eigensolver (LAPACK eigh, fixed
  order and signs), coherence statistics
- mech: privacy budgets, composition, Gaussian/Laplace/exponential mechanisms,
  seeded counter-based RNG streams
- svtfilter: private threshold search and leverage-based row filtering
- adaptive: the coherence-adaptive noisy power iteration and its kappa sweep
- baselines: analyze-Gauss input perturbation
- datagen: synthetic generators across coherence regimes
- theory: the analysis constants the acceptance criteria check (the rate
  lemma, the SVT count constant c2 and the Gaussian concentration bound G)
- bench: deterministic experiment grid runner
"""

from .adaptive import run_adaptive_power, run_kappa_sweep
from .baselines import analyze_gauss
from .matcore import DenseMatrix, sin_sq, spectrum_stats, sym_eig
from .mech import PrivacyBudget, RngStream, compose, invert_budget

__all__ = [
    "DenseMatrix",
    "PrivacyBudget",
    "RngStream",
    "analyze_gauss",
    "compose",
    "invert_budget",
    "run_adaptive_power",
    "run_kappa_sweep",
    "sin_sq",
    "spectrum_stats",
    "sym_eig",
]

__version__ = "0.1.0"
