"""The benchmark's workloads: grids run through dppca.bench.run_experiment.

Each workload is a fixed grid whose master seed is the benchmark's --seed,
so the same seed gives the same instances, noise and CSV.  `smoke=True`
shrinks every cell to a tiny instance of the same kind, so the benchmark's
own tests can run every code path in seconds.  Why each workload was chosen
is said once, in BENCHMARK.json.

The predictions record, before any optimisation lands, which per-layer
metrics should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 2026  # master_seed of the shipped acceptance grid
ACCEPTANCE_GRID = Path("tests") / "data" / "acceptance_bench.json"
REGRESSION_LOCK = Path("tests") / "data" / "regression_lock.json"

_BUDGET = {"eps_total": 1.0, "delta_total": 1e-5, "beta": 0.05}
_SPIKED = {"sigma1_sq": 0.5, "kappabar": 0.5}

_MATCORE = ("matcore.sym_eig.*, compact_svd.self_s, rayleigh_ratio.s, "
            "spectrum_stats.s, gram.*")
_PRIVATE = "svtfilter.*, adaptive.*, mech.sample_laplace.*"
_COMMON = (
    "datagen.* -> trials_per_s: moves by a small share",
    "theory.s -> nothing: negligible, recorded so growth shows",
)


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    cells: tuple = ()  # empty: the shipped acceptance grid, with its own trials
    trials: int = 0  # trials per cell of `cells`
    predictions: tuple = ()  # "per-layer metrics -> end-to-end metric: effect"

    def config_doc(self, root: Path, seed: int, smoke: bool = False) -> dict:
        """The grid as the JSON document bench.ExperimentConfig reads."""
        if self.cells:
            doc = {"trials": self.trials, "grid": copy.deepcopy(list(self.cells))}
        else:
            doc = json.loads((root / ACCEPTANCE_GRID).read_text())
        doc["master_seed"] = seed
        doc["threads"] = self.workers
        if smoke:
            doc["trials"] = 2
            for cell in doc["grid"]:
                _shrink(cell)
        return doc


def _shrink(cell: dict) -> None:
    gen = cell["gen"]
    gen["n"] = max(120, gen["n"] // 100)
    gen["d"] = 6
    if cell.get("T") not in (None, "corollary"):
        cell["T"] = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="accept-grid",
            workers=1,
            predictions=(
                f"{_MATCORE} -> trials_per_s: moves (about 80% of trial time)",
                f"{_PRIVATE} -> trials_per_s: no move (under 10%)",
                "bench.busy_frac -> trials_per_s: no move (one worker)",
            ) + _COMMON,
        ),
        Workload(
            name="accept-grid-w2",
            workers=2,
            predictions=(
                "bench.trial_s.*, bench.busy_frac -> trials_per_s: moves here "
                "only (scheduling)",
                f"{_MATCORE} -> trials_per_s: moves as on accept-grid",
                f"{_PRIVATE} -> trials_per_s: no move",
            ) + _COMMON,
        ),
        Workload(
            name="sweep-tall",
            workers=1,
            trials=2,
            cells=(
                {"cell": "sweep-J3-n100000", "algo": "adaptive-sweep",
                 "sweep_J": 3, "t_const": 1.0,
                 "gen": {"kind": "gaussian", "n": 100_000, "d": 20, **_SPIKED},
                 **_BUDGET},
            ),
            predictions=(
                f"{_PRIVATE} -> trials_per_s: moves (about 95% of trial time)",
                "svtfilter.apply_filter.* (row copies) -> peak_rss_mb: moves",
                f"{_MATCORE} -> trials_per_s: no move (about 3%)",
            ) + _COMMON,
        ),
        Workload(
            name="wide-d",
            workers=1,
            trials=1,
            cells=(
                {"cell": "wide-adaptive-T10", "algo": "adaptive", "T": 10,
                 "gen": {"kind": "gaussian", "n": 32_768, "d": 128, **_SPIKED},
                 **_BUDGET},
                {"cell": "wide-analyze-gauss", "algo": "analyze-gauss",
                 "gen": {"kind": "gaussian", "n": 32_768, "d": 128, **_SPIKED},
                 **_BUDGET},
                {"cell": "wide-low-coh-T10", "algo": "adaptive", "T": 10,
                 "gen": {"kind": "low-coh", "n": 32_768, "d": 128,
                         "sigma1_frac": 0.05, "gap": 0.5},
                 **_BUDGET},
            ),
            predictions=(
                f"{_MATCORE} -> trials_per_s: moves (large-d Jacobi and Gram)",
                "svtfilter.apply_filter.* (kept Gram) -> trials_per_s: moves",
                "baselines.analyze_gauss.self_s -> trials_per_s: moves",
                "a gain at d=20 that costs at large d (or the reverse) shows "
                "here against accept-grid",
            ) + _COMMON,
        ),
    )
}
