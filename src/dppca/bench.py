"""Experiment grid runner with deterministic, thread-count-independent CSV.

A config is a JSON document:

    {
      "master_seed": 7,
      "trials": 20,
      "threads": 4,                # optional; CLI flag / DPPCA_THREADS win
      "out": "results.csv",        # optional; CLI flag wins
      "record_walltime": false,    # optional; true trades determinism for timing
      "grid": [ {cell}, ... ]
    }

Each cell names a generator and an algorithm:

    {
      "cell": "adaptive-n16000",          # optional id; defaults to the index
      "gen": {"kind": "gaussian", "n": 16000, "d": 20,
              "sigma1_sq": 0.5, "kappabar": 0.5, "rotate": true}
            | {"kind": "gaussian", "n": ..., "spec": [s1, s2, ...]}
            | {"kind": "low-coh", "n": ..., "d": ..., "sigma1_frac": ..., "gap": ...}
            | {"kind": "high-coh", "n": ..., "d": ..., "spikes": 4, "noise_norm": 0.05},
      "algo": "adaptive" | "adaptive-sweep" | "analyze-gauss" | "naive-power",
      "eps_total": 1.0, "delta_total": 1e-5, "beta": 0.05,
      "T": 10 | "corollary",              # adaptive / naive-power
      "t_const": 1.0,                     # multiplier for the corollary rule
      "kappa": 0.5,                       # gap guess for the corollary rule
      "sweep_J": 6,                       # adaptive-sweep only
      "accountant": "paper" | "zcdp"      # optional, default "paper"
    }

A gaussian gen given both d and spec needs d == len(spec).  A cell's
eps_total, delta_total and accountant make the one PrivacyBudget that
`run_algorithm` splits.  Cells are checked when the config is built (a
malformed one, or one with a key not shown here, raises a ParameterError
or BudgetError naming grid[i]); a
trial that fails at run time becomes a record whose error column starts
with the error's reason code.
`build_instance` and `run_algorithm`, which `dppca gen` and `dppca run`
also call, are the only places that map a generator kind or an algorithm
name to code.

Every (cell, trial) pair owns the RngStream (master_seed, cell_index *
trials + trial), so records do not depend on scheduling; they are sorted
by (cell id, trial) before writing.  Wall-clock times are recorded only
when record_walltime is on, because the determinism contract promises
byte-identical CSV output across runs and thread counts.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import theory
from .adaptive import (
    AdaptiveParams,
    IterationTrace,
    SweepResult,
    corollary_iterations,
    run_adaptive_power,
    run_kappa_sweep,
    run_with_restarts,
)
from .baselines import analyze_gauss, noisy_power_naive
from .datagen import (
    GaussSpec,
    ScaledMatrix,
    gen_gaussian_iid,
    gen_high_coherence,
    gen_low_coherence,
    scale_for_privacy,
)
from .errors import BudgetError, ContractViolationError, DppcaError, ParameterError
from .matcore import DenseMatrix, rayleigh_ratio, sin_sq, spectrum_stats
from .mech import PrivacyBudget, RngStream, compose, split_budget

CSV_HEADER = (
    "cell,trial,algo,n,d,eps_total,delta_total,T,gen,sin2_emp,sin2_pop,"
    "rayleigh,kappa,upsilon,u_inf,removed,clipped,theory_B,wall_ms,error"
)

_ALGOS = ("adaptive", "adaptive-sweep", "analyze-gauss", "naive-power")
# Keys each kind of gen needs (a gaussian one without "spec" also needs
# _GAUSS_SPIKED), the other keys a gen may carry, the keys of a cell, and
# the numeric keys of cells and gens.
_GEN_KEYS = {
    "gaussian": ("n",),
    "low-coh": ("n", "d", "sigma1_frac", "gap"),
    "high-coh": ("n", "d"),
}
_GAUSS_SPIKED = ("d", "sigma1_sq", "kappabar")
_GEN_EXTRA = ("kind", "spec", "rotate", "spikes", "noise_norm")
_CELL_KEYS = ("cell", "gen", "algo", "eps_total", "delta_total", "beta", "T",
              "t_const", "kappa", "sweep_J", "accountant")
_INT_KEYS = ("n", "d", "spikes", "sweep_J")
_FLOAT_KEYS = ("sigma1_sq", "kappabar", "sigma1_frac", "gap", "noise_norm",
               "eps_total", "delta_total", "beta", "kappa", "t_const")


@dataclass
class ResultRecord:
    cell: str
    trial: int
    algo: str
    n: int
    d: int
    eps_total: float
    delta_total: float
    t: int | None
    gen: str
    sin2_emp: float | None = None
    sin2_pop: float | None = None
    rayleigh: float | None = None
    kappa: float | None = None
    upsilon: float | None = None
    u_inf: float | None = None
    removed: int | None = None
    clipped: int | None = None
    theory_b: float | None = None
    wall_ms: float | None = None
    error: str = ""


@dataclass
class ExperimentConfig:
    master_seed: int
    trials: int
    grid: list[dict]
    threads: int = 1
    out: str | None = None
    record_walltime: bool = False

    def __post_init__(self) -> None:
        for key in ("master_seed", "trials", "threads"):
            if not _number(getattr(self, key), int):
                raise ParameterError(
                    f"{key} must be an integer, got {getattr(self, key)!r}"
                )
        if not 0 <= self.master_seed < 2**64:
            raise ParameterError(
                f"master_seed must lie in [0, 2**64), got {self.master_seed}"
            )
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if self.threads < 1:
            raise ParameterError(f"threads must be >= 1, got {self.threads}")
        if not isinstance(self.record_walltime, bool):
            raise ParameterError(
                f"record_walltime must be true or false, got {self.record_walltime!r}"
            )
        if not isinstance(self.out, (str, type(None))):
            raise ParameterError(f"out must be a path or null, got {self.out!r}")
        if not self.grid:
            raise ParameterError("grid must contain at least one cell")
        for i, cell in enumerate(self.grid):
            try:
                _check_cell(cell)
            except (ParameterError, BudgetError) as exc:
                raise type(exc)(f"grid[{i}]: {exc}") from None

    @staticmethod
    def from_json(path: str | Path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except ValueError as exc:  # invalid JSON or text encoding
            raise ParameterError(f"{path}: not a JSON config: {exc}") from None
        if not isinstance(doc, dict):
            raise ParameterError(f"{path}: a config must be a JSON object")
        _check_keys(doc, [f.name for f in fields(ExperimentConfig)], f"{path}: config")
        missing = [k for k in ("master_seed", "trials", "grid") if k not in doc]
        if missing:
            raise ParameterError(f"{path}: config lacks {', '.join(missing)}")
        return ExperimentConfig(
            master_seed=doc["master_seed"],
            trials=doc["trials"],
            grid=doc["grid"],
            threads=doc.get("threads", 1),
            out=doc.get("out"),
            record_walltime=doc.get("record_walltime", False),
        )


def _number(value, kinds=(int, float)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _check_keys(doc: dict, known, what: str) -> None:
    unknown = [k for k in doc if k not in known]
    if unknown:
        raise ParameterError(f"{what} has unknown key(s) {', '.join(map(repr, unknown))}")


def _check_numbers(doc: dict) -> None:
    for key, value in doc.items():
        if key in _INT_KEYS and not _number(value, int):
            raise ParameterError(f"{key} must be an integer, got {value!r}")
        if key in _FLOAT_KEYS and not _number(value):
            raise ParameterError(f"{key} must be a number, got {value!r}")


def _check_gen(gen) -> None:
    """Raise ParameterError unless `gen` names a kind, carries its keys and
    no unknown ones, and a d it gives matches its spec."""
    if not isinstance(gen, dict) or gen.get("kind") not in _GEN_KEYS:
        raise ParameterError(f"gen.kind must be one of {tuple(_GEN_KEYS)}")
    _check_keys(gen, _GEN_EXTRA + _GAUSS_SPIKED + sum(_GEN_KEYS.values(), ()), "gen")
    need = _GEN_KEYS[gen["kind"]]
    if gen["kind"] == "gaussian" and "spec" not in gen:
        need += _GAUSS_SPIKED
    missing = [k for k in need if k not in gen]
    if missing:
        raise ParameterError(f"{gen['kind']} gen lacks {', '.join(missing)}")
    _check_numbers(gen)
    if not isinstance(gen.get("rotate", True), bool):
        raise ParameterError(f"rotate must be true or false, got {gen['rotate']!r}")
    spec = gen.get("spec", [])
    if not isinstance(spec, list) or not all(map(_number, spec)):
        raise ParameterError(f"spec must be a list of numbers, got {spec!r}")
    if "spec" in gen and gen.get("d", len(spec)) != len(spec):
        raise ParameterError(f"gen has d={gen['d']} but a spec of {len(spec)} entries")


def _check_cell(cell) -> None:
    if not isinstance(cell, dict):
        raise ParameterError("a cell must be a JSON object")
    _check_keys(cell, _CELL_KEYS, "cell")
    _check_gen(cell.get("gen"))
    algo = cell.get("algo")
    if algo not in _ALGOS:
        raise ParameterError(f"algo must be one of {_ALGOS}")
    missing = [k for k in ("eps_total", "delta_total") if k not in cell]
    if missing:
        raise ParameterError(f"cell lacks {', '.join(missing)}")
    _check_numbers(cell)
    # Budget values validate here; generator values validate at run time.
    _cell_budget(cell)
    beta = cell.get("beta", 0.05)
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    if algo == "adaptive-sweep":
        if cell.get("sweep_J", 0) < 1:
            raise ParameterError("adaptive-sweep needs sweep_J >= 1")
    elif algo in ("adaptive", "naive-power"):
        t = cell.get("T")
        if t == "corollary":
            if not 0.0 < cell.get("kappa", 0.0) <= 1.0:
                raise ParameterError("T='corollary' needs a kappa guess in (0, 1]")
        elif not (_number(t, int) and t >= 1):
            raise ParameterError("T must be an int >= 1 or 'corollary'")


def _cell_budget(cell: dict) -> PrivacyBudget:
    return PrivacyBudget(
        cell["eps_total"], cell["delta_total"], cell.get("accountant", "paper")
    )


def build_instance(
    gen: dict, rng: RngStream, beta: float
) -> tuple[ScaledMatrix, np.ndarray | None]:
    """Generate the instance a `gen` spec describes (see the module
    docstring) with rows of norm <= 1; returns (scaled matrix, population
    top direction vbar1 or None).  Gaussian rows go through
    scale_for_privacy(beta); the other kinds come out unscaled (L = 1)."""
    _check_gen(gen)
    kind = gen["kind"]
    if kind == "gaussian":
        if "spec" in gen:
            spectrum = tuple(gen["spec"])
        else:
            spiked = GaussSpec.spiked(gen["d"], gen["sigma1_sq"], gen["kappabar"])
            spectrum = spiked.sigmabar_sq
        spec = GaussSpec(spectrum, rotate=gen.get("rotate", True))
        raw, vbar1 = gen_gaussian_iid(gen["n"], spec, rng)
        return scale_for_privacy(raw, beta), vbar1
    if kind == "low-coh":
        a = gen_low_coherence(
            gen["n"], gen["d"], gen["sigma1_frac"], gen["gap"], rng,
            rotate=gen.get("rotate", True),
        )
    else:
        a = gen_high_coherence(
            gen["n"], gen["d"], rng,
            spikes=gen.get("spikes", 4), noise_norm=gen.get("noise_norm", 0.05),
        )
    return ScaledMatrix(a, 1.0, 0), None


@dataclass
class RunResult:
    """One run of a named algorithm."""

    x_hat: np.ndarray
    t: int  # iterations behind x_hat; 0 for the one-shot analyze-gauss
    accounting: dict  # the budget split, as `dppca run` reports it
    trace: IterationTrace | list[IterationTrace] | None = None
    removed: int | None = None
    kappa_guess: float | None = None  # adaptive-sweep: the selected guess
    per_iter: PrivacyBudget | None = None  # paper-accounted adaptive: for bound_B


def _per_mechanism(count: int, per_iter: PrivacyBudget) -> dict:
    return {
        "mechanisms": count,
        "per_mechanism_epsilon": per_iter.epsilon,
        "per_mechanism_delta": per_iter.delta,
    }


def _best_of_result(best: SweepResult, runs: dict, trace: object) -> RunResult:
    chosen = best.candidates[best.selected]
    accounting = {
        **runs,
        "selection_epsilon": best.selection_epsilon,
        "per_run_epsilon": best.run_budget.epsilon,
        "per_run_delta": best.run_budget.delta,
    }
    return RunResult(
        best.estimate, chosen.iterations, accounting, trace,
        chosen.trace.total_removed, chosen.kappa_guess,
    )


def run_algorithm(
    algo: str,
    a: DenseMatrix,
    total: PrivacyBudget,
    rng: RngStream,
    *,
    iterations: int | str | None = None,
    kappa: float | None = None,
    t_const: float = 1.0,
    beta: float = 0.05,
    sweep_j: int | None = None,
    restarts: int = 1,
    noiseless: bool = False,
) -> RunResult:
    """Run `algo` (one of _ALGOS) on `a` under the total budget `total`,
    split by its accountant.

    iterations is T: an int, or "corollary" for the corollary rule at the
    gap guess kappa scaled by t_const (adaptive and naive-power).  sweep_j
    is the number of gap guesses of adaptive-sweep, which picks each run's T
    itself.  restarts > 1 runs best-of-R adaptive runs.
    """
    if algo not in _ALGOS:
        raise ParameterError(f"algo must be one of {_ALGOS}, got {algo!r}")
    if restarts < 1:
        raise ParameterError(f"restarts must be >= 1, got {restarts}")
    if restarts > 1 and algo != "adaptive":
        raise ParameterError(f"restarts apply to the adaptive algorithm, not {algo}")

    if algo == "analyze-gauss":
        x_hat = analyze_gauss(a, total, rng, noiseless=noiseless)
        return RunResult(x_hat, 0, {"mechanisms": 1})
    if algo == "adaptive-sweep":
        best = run_kappa_sweep(a, total, rng, sweep_j, beta, t_const, noiseless)
        trace = best.candidates[best.selected].trace
        return _best_of_result(best, {"runs": sweep_j}, trace)
    if iterations == "corollary":
        t = corollary_iterations(a.n, beta, total.delta, total.epsilon, kappa, t_const)
    else:
        t = int(iterations)
    if algo == "naive-power":
        per_iter = split_budget(total, t)
        x_hat = noisy_power_naive(a, t, per_iter, rng, noiseless=noiseless)
        return RunResult(x_hat, t, _per_mechanism(t, per_iter))
    if restarts > 1:
        best = run_with_restarts(a, total, t, restarts, rng, beta, noiseless)
        traces = [c.trace for c in best.candidates]
        return _best_of_result(best, {"restarts": restarts}, traces)

    per_iter = split_budget(total, 2 * t)
    params = AdaptiveParams(t, per_iter, beta, noiseless)
    x_hat, trace = run_adaptive_power(a, params, rng)
    accounting = _per_mechanism(2 * t, per_iter)
    if total.accountant != "paper":  # bound_B and compose assume the paper's split
        return RunResult(x_hat, t, accounting, trace, trace.total_removed)
    composed = compose(per_iter, 2 * t)
    accounting.update(composed_epsilon=composed.epsilon, composed_delta=composed.delta)
    return RunResult(x_hat, t, accounting, trace, trace.total_removed, per_iter=per_iter)


def _theory_b(
    a: DenseMatrix, stats, t: int, beta: float, per_iter: PrivacyBudget
) -> float | None:
    """The bound B, or None where it is undefined (T < 2, no gap, ...)."""
    try:
        _, _, k = theory.constants_K(t, a.n, beta, per_iter.delta)
        return theory.bound_B(
            stats.sigma1, stats.sigma2, stats.upsilon, per_iter.epsilon, t, k,
            a.d, a.n,
        )[1]
    except DppcaError:
        return None


def _run_one(cfg: ExperimentConfig, cell_idx: int, trial: int) -> ResultRecord:
    cell = cfg.grid[cell_idx]
    gen = cell["gen"]
    beta = cell.get("beta", 0.05)
    total = _cell_budget(cell)
    rec = ResultRecord(
        cell=str(cell.get("cell", cell_idx)),
        trial=trial,
        algo=cell["algo"],
        n=gen["n"],
        d=gen.get("d", len(gen.get("spec", []))),
        eps_total=total.epsilon,
        delta_total=total.delta,
        t=None,
        gen=gen["kind"],
    )
    stream = RngStream(cfg.master_seed, cell_idx * cfg.trials + trial)
    start = time.perf_counter()
    try:
        scaled, vbar1 = build_instance(gen, stream, beta)
        a = scaled.matrix
        rec.n, rec.d, rec.clipped = a.n, a.d, scaled.clip_count
        stats = spectrum_stats(a)
        run = run_algorithm(
            cell["algo"], a, total, stream,
            iterations=cell.get("T"), kappa=cell.get("kappa"),
            t_const=cell.get("t_const", 1.0), beta=beta, sweep_j=cell.get("sweep_J"),
        )
        rec.t, rec.removed = run.t, run.removed
        if run.per_iter is not None:
            rec.theory_b = _theory_b(a, stats, run.t, beta, run.per_iter)

        rec.sin2_emp = sin_sq(run.x_hat, stats.top_vector)
        if vbar1 is not None:
            rec.sin2_pop = sin_sq(run.x_hat, vbar1)
        rec.rayleigh = rayleigh_ratio(a, run.x_hat, stats.sigma1)
        rec.kappa, rec.upsilon, rec.u_inf = stats.kappa, stats.upsilon, stats.u_inf
    except DppcaError as exc:
        rec.error = f"{exc.reason}:{exc}"
    if cfg.record_walltime:
        rec.wall_ms = (time.perf_counter() - start) * 1000.0
    return rec


def run_experiment(cfg: ExperimentConfig, threads: int | None = None) -> list[ResultRecord]:
    """Execute every (cell, trial) pair; records sorted by (cell, trial).

    Thread count: explicit argument, else cfg.threads.  Output is
    independent of the thread count because each trial's randomness is a
    pure function of (master_seed, cell index, trial index).
    """
    workers = threads if threads is not None else cfg.threads
    jobs = [
        (ci, tr) for ci in range(len(cfg.grid)) for tr in range(cfg.trials)
    ]
    if workers <= 1:
        records = [_run_one(cfg, ci, tr) for ci, tr in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda j: _run_one(cfg, *j), jobs))
    records.sort(key=lambda r: (r.cell, r.trial))
    return records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def records_to_csv(records: list[ResultRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    r.cell, r.trial, r.algo, r.n, r.d, r.eps_total,
                    r.delta_total, r.t, r.gen, r.sin2_emp, r.sin2_pop,
                    r.rayleigh, r.kappa, r.upsilon, r.u_inf, r.removed,
                    r.clipped, r.theory_b, r.wall_ms,
                    r.error.replace(",", ";").replace("\n", " "),
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_csv(records: list[ResultRecord], path: str | Path) -> None:
    Path(path).write_text(records_to_csv(records))


_METRICS = ("sin2_emp", "sin2_pop", "rayleigh", "kappa", "upsilon", "u_inf",
            "removed", "theory_b", "wall_ms")


def _order_stats(values: list[float]) -> dict:
    v = sorted(values)
    c = len(v)
    return {
        "median": v[(c - 1) // 2],
        "q25": v[(c - 1) // 4],
        "q75": v[(3 * (c - 1)) // 4],
        "mean": sum(v) / c,
        "count": c,
    }


def summarize(records: list[ResultRecord]) -> dict:
    """Per-cell order statistics (lower-median / lower-quartile convention).

    Error rows are excluded from the statistics and counted under
    "errors".  Raises on an empty record list.
    """
    if not records:
        raise ContractViolationError("summarize of an empty record list")
    cells: dict[str, dict] = {}
    for r in records:
        bucket = cells.setdefault(r.cell, {"errors": 0, "metrics": {}})
        if r.error:
            bucket["errors"] += 1
            continue
        for m in _METRICS:
            val = getattr(r, m)
            if val is not None:
                bucket["metrics"].setdefault(m, []).append(float(val))
    return {
        cell: {
            "errors": bucket["errors"],
            **{m: _order_stats(vals) for m, vals in bucket["metrics"].items()},
        }
        for cell, bucket in cells.items()
    }


def threads_from_env(default: int = 1) -> int:
    raw = os.environ.get("DPPCA_THREADS")
    if raw is None:
        return default
    try:
        val = int(raw)
    except ValueError as exc:
        raise ParameterError(f"DPPCA_THREADS={raw!r} is not an integer") from exc
    if val < 1:
        raise ParameterError(f"DPPCA_THREADS must be >= 1, got {val}")
    return val
