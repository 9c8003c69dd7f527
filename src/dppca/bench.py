"""Experiment grid runner with deterministic, thread-count-independent CSV.

A config is a JSON document:

    {
      "master_seed": 7,
      "trials": 20,
      "threads": 4,                # optional; CLI flag wins
      "grid": [ {cell}, ... ]
    }

Each cell names a generator and an algorithm:

    {
      "cell": "adaptive-n16000",          # optional unique id; defaults to the index
      "gen": {"kind": "gaussian", "n": 16000, "d": 20, "sigma1_sq": 0.5, "kappabar": 0.5}
            | {"kind": "low-coh", "n": ..., "d": ..., "sigma1_frac": ..., "gap": ...}
            | {"kind": "high-coh", "n": ..., "d": ..., "spikes": 4},
      "algo": "adaptive" | "adaptive-sweep" | "analyze-gauss" | "naive-power",
      "eps_total": 1.0, "delta_total": 1e-5, "beta": 0.05,
      "T": 10 | "corollary",              # adaptive / naive-power; "corollary" reads gen.n
      "t_const": 1.0,                     # corollary multiplier (T "corollary", sweep)
      "kappa": 0.5,                       # corollary gap guess (T "corollary" only)
      "sweep_J": 6,                       # adaptive-sweep only
      "accountant": "paper" | "zcdp"      # optional, default "paper"
    }

"spikes" is optional, with datagen's default.  A gen
or a cell carries only the keys its kind or algorithm reads; beta is
read by a gaussian gen's scaling, by the threshold search (adaptive and
adaptive-sweep) and by T "corollary".  Float keys must be finite (JSON's
NaN and Infinity are rejected) and t_const positive.  Cell ids are
unique strings without commas or newlines.
Cells are checked when the config is built (a malformed one raises a
ParameterError or BudgetError naming grid[i]); a trial that fails at run
time becomes a record whose error column starts with the error's reason
code.  `build_instance(gen, ...)` and `run_algorithm(cell, ...)`, which
`dppca gen` and `dppca run` also call with a gen and a cell built from
their flags, are the only places that map a generator kind or an
algorithm name to code.  The checks name kinds and algorithms only
through the key tables below and `_reads_beta`.  A cell's eps_total,
delta_total and accountant make the one PrivacyBudget that
`run_algorithm` splits.

Neighbouring data sets differ by one row, so their n is not public: T
"corollary" and adaptive-sweep's T_j read the gen's declared n, not the
matrix's, and need a gen.

Every (cell, trial) pair owns the RngStream (master_seed, cell_index *
trials + trial), so records do not depend on scheduling; they are sorted
by (cell id, trial) before writing.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .adaptive import IterationTrace, corollary_iterations, run_adaptive_power
from .baselines import analyze_gauss
from .datagen import (
    GaussSpec,
    gen_gaussian_iid,
    gen_high_coherence,
    gen_low_coherence,
    scale_for_privacy,
)
from .errors import (
    BudgetError,
    ContractViolationError,
    DppcaError,
    ParameterError,
    SizingError,
)
from .matcore import DenseMatrix, _check_sizing, gram, rayleigh_ratio, sin_sq, spectrum_stats
from .mech import PrivacyBudget, RngStream, compose, exp_mech_select, split_budget
from .svtfilter import DEFAULT_BETA

# Keys each kind of gen needs, high-coh's optional generator keyword arguments,
# the keys of every cell and of each algorithm, and the type of each typed key
# at every config level (top level, cell and gen).  `dppca gen`'s flags are
# built from these.
_GEN_KEYS = {
    "gaussian": ("n", "d", "sigma1_sq", "kappabar"),
    "low-coh": ("n", "d", "sigma1_frac", "gap"),
    "high-coh": ("n", "d"),
}
_HIGH_COH_OPTIONAL = ("spikes",)
_CELL_KEYS = ("cell", "gen", "algo", "eps_total", "delta_total", "beta", "accountant")
_CELL_NEED = ("eps_total", "delta_total")
_ALGO_KEYS = {
    "adaptive": ("T", "kappa", "t_const"),
    "adaptive-sweep": ("sweep_J", "t_const"),
    "analyze-gauss": (),
    "naive-power": ("T", "kappa", "t_const"),
}
_ALGOS = tuple(_ALGO_KEYS)
_SEARCHING = ("adaptive", "adaptive-sweep")  # the algorithms that run the search
_INTS = (int, np.integer)  # a numpy integer passes wherever an int does
_INT_KEYS = ("master_seed", "trials", "threads", "n", "d", "spikes", "sweep_J")
_FLOAT_KEYS = ("sigma1_sq", "kappabar", "sigma1_frac", "gap", "eps_total",
               "delta_total", "beta", "kappa", "t_const")  # and finite
# Every key a gen may carry besides kind.
_GEN_ALL = tuple(dict.fromkeys(sum(_GEN_KEYS.values(), ()) + _HIGH_COH_OPTIONAL))


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
    error: str = ""


CSV_HEADER = ",".join(
    "T" if f.name == "t" else f.name for f in fields(ResultRecord)
)


@dataclass
class ExperimentConfig:
    master_seed: int
    trials: int
    grid: list[dict]
    threads: int = 1

    def __post_init__(self) -> None:
        _check_types(vars(self))
        if not 0 <= self.master_seed < 2**64:
            raise ParameterError(
                f"master_seed must lie in [0, 2**64), got {self.master_seed}"
            )
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if self.threads < 1:
            raise ParameterError(f"threads must be >= 1, got {self.threads}")
        if not self.grid:
            raise ParameterError("grid must contain at least one cell")
        first: dict[str, int] = {}  # cell id -> index of the first cell with it
        for i, cell in enumerate(self.grid):
            try:
                _check_cell(cell)
                cell_id = _cell_id(cell, i)
                j = first.setdefault(cell_id, i)
                if j != i:
                    raise ParameterError(f"cell id {cell_id!r} repeats grid[{j}]'s")
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
        known = fields(ExperimentConfig)
        need = [f.name for f in known if f.default is MISSING]
        _check_keys(doc, [f.name for f in known], f"{path}: config", need)
        return ExperimentConfig(**doc)


def _number(value, kinds=_INTS + (float,)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _finite(value) -> bool:
    return _number(value) and abs(value) <= sys.float_info.max


def _check_keys(doc: dict, known, what: str, need=()) -> None:
    """Raise ParameterError if `doc` has a key outside `known` or lacks one of `need`."""
    unknown = [k for k in doc if k not in known]
    if unknown:
        raise ParameterError(f"{what} has unknown key(s) {', '.join(map(repr, unknown))}")
    missing = [k for k in need if k not in doc]
    if missing:
        raise ParameterError(f"{what} lacks {', '.join(missing)}")


def _check_types(doc: dict) -> None:
    """Raise ParameterError for a key of a config, cell or gen of the wrong type."""
    for key, value in doc.items():
        if key in _INT_KEYS and not _number(value, _INTS):
            raise ParameterError(f"{key} must be an integer, got {value!r}")
        if key in _FLOAT_KEYS and not _finite(value):
            raise ParameterError(f"{key} must be a finite number, got {value!r}")


def _check_gen(gen) -> tuple[int, int]:
    """Raise ParameterError unless `gen` names a kind, carries its keys and
    no key its kind does not read; return its (n, d)."""
    if not isinstance(gen, dict) or gen.get("kind") not in _GEN_KEYS:
        raise ParameterError(f"gen.kind must be one of {tuple(_GEN_KEYS)}")
    kind = gen["kind"]
    need = _GEN_KEYS[kind]
    optional = _HIGH_COH_OPTIONAL if kind == "high-coh" else ()
    _check_keys(gen, ("kind",) + need + optional, f"{kind} gen", need)
    _check_types(gen)
    return gen["n"], gen["d"]


def _check_cell(cell) -> None:
    if not isinstance(cell, dict):
        raise ParameterError("a cell must be a JSON object")
    cell_id = cell.get("cell", "")
    if not isinstance(cell_id, str) or "," in cell_id or "\n" in cell_id:
        raise ParameterError(f"cell id must be a string without ',' or '\\n': {cell_id!r}")
    _check_gen(cell.get("gen"))
    algo = _check_algo(cell)
    if "beta" in cell and not _reads_beta(cell):
        kind = cell["gen"]["kind"]
        raise ParameterError(f"{algo} cell with a {kind} gen does not read beta")


def _reads_beta(cell: dict) -> bool:
    """Whether a checked cell reads beta (see the module docstring); one
    without a gen, as `dppca run` builds, has an int T, so only the
    threshold search reads its beta."""
    return (cell.get("gen", {}).get("kind") == "gaussian"
            or cell["algo"] in _SEARCHING
            or cell.get("T") == "corollary")


def _check_algo(cell: dict) -> str:
    """Check a cell's algo, key types, keys, budget and algorithm keys and
    return its algo.  Its gen is checked apart; gen values validate at run time."""
    algo = cell.get("algo")
    if algo not in _ALGOS:
        raise ParameterError(f"algo must be one of {_ALGOS}, got {algo!r}")
    _check_types(cell)
    _check_keys(cell, _CELL_KEYS + _ALGO_KEYS[algo], f"{algo} cell", _CELL_NEED)
    _cell_budget(cell)
    if cell.get("t_const", 1.0) <= 0.0:
        raise ParameterError(f"t_const must be positive, got {cell['t_const']}")
    if "sweep_J" in _ALGO_KEYS[algo]:
        if cell.get("sweep_J", 0) < 1:
            raise ParameterError(f"{algo} needs sweep_J >= 1")
        if "gen" not in cell:
            raise ParameterError(f"{algo} computes each T_j from the public n of a gen; "
                                 "give the cell a gen")
    if "T" in _ALGO_KEYS[algo]:
        t, kappa = cell.get("T"), cell.get("kappa")
        if t == "corollary":
            if not (kappa is not None and 0.0 < kappa <= 1.0):
                raise ParameterError("T='corollary' needs a kappa guess: "
                                     f"kappa must lie in (0, 1], got {kappa}")
            if "gen" not in cell:
                raise ParameterError("T='corollary' reads the public n of a gen; "
                                     "give an int T")
        elif not (_number(t, _INTS) and t >= 1):
            raise ParameterError(f"T must be an int >= 1 or 'corollary', got {t!r}")
        elif "kappa" in cell or "t_const" in cell:
            raise ParameterError("kappa and t_const are read only with T='corollary'")
    return algo


def _cell_budget(cell: dict) -> tuple[PrivacyBudget, float]:
    """The cell's total budget and failure probability beta, both checked."""
    total = PrivacyBudget(
        cell["eps_total"], cell["delta_total"], cell.get("accountant", "paper")
    )
    beta = cell.get("beta", DEFAULT_BETA)
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    return total, beta


def _cell_id(cell: dict, index: int) -> str:
    return cell.get("cell", str(index))


def _gauss_spec(gen: dict) -> GaussSpec:
    """A checked gaussian gen's spiked population spectrum."""
    return GaussSpec.spiked(gen["d"], gen["sigma1_sq"], gen["kappabar"])


def build_instance(
    gen: dict, rng: RngStream, beta: float
) -> tuple[DenseMatrix, np.ndarray | None, int]:
    """Generate the instance a `gen` spec describes (see the module
    docstring) with rows of norm <= 1; returns (matrix, population top
    direction vbar1, rows clipped).  Gaussian rows go through
    scale_for_privacy(beta), which rescales the draw in place; the other
    kinds come out unscaled, with (None, 0).  An n x d that `matcore`'s
    sizing rule refuses, or that cannot be allocated, is a SizingError."""
    n, d = _check_gen(gen)
    _check_sizing(n, d)
    kind = gen["kind"]
    try:
        if kind == "gaussian":
            a, vbar1 = gen_gaussian_iid(n, _gauss_spec(gen), rng)
            return a, vbar1, scale_for_privacy(a, beta)
        if kind == "low-coh":
            a = gen_low_coherence(n, d, gen["sigma1_frac"], gen["gap"], rng)
        else:
            options = {k: gen[k] for k in _HIGH_COH_OPTIONAL if k in gen}
            a = gen_high_coherence(n, d, rng, **options)
    except MemoryError:
        raise SizingError(f"a {n} x {d} instance does not fit in memory") from None
    return a, None, 0


@dataclass
class RunResult:
    """One run of a named algorithm."""

    x_hat: np.ndarray
    t: int  # iterations behind x_hat; 0 for the one-shot analyze-gauss
    accounting: dict  # the budget split, as `dppca run` reports it
    trace: IterationTrace | None = None


def run_algorithm(cell: dict, a: DenseMatrix, rng: RngStream) -> RunResult:
    """Run a cell's algorithm on `a`, reading the cell's keys under their
    config names; of its gen, only T "corollary" and adaptive-sweep read
    the declared n."""
    algo = _check_algo(cell)
    total, beta = _cell_budget(cell)
    t_const = cell.get("t_const", 1.0)

    if algo == "analyze-gauss":
        x_hat = analyze_gauss(a, total, rng)
        return RunResult(x_hat, 0, {"mechanisms": 1})
    if algo == "adaptive-sweep":
        # Run j guesses the gap kappa_j = 2^-j and takes its corollary T_j
        # at the gen's n, on rng.child(j) with (epsilon / 2J, delta / J);
        # the exponential mechanism on rng.child(J) spends the other
        # epsilon / 2 to pick a run by x^T G x = ||A x||^2 (sensitivity 1).
        n, _ = _check_gen(cell["gen"])
        runs = cell["sweep_J"]
        run_budget = PrivacyBudget(total.epsilon / (2.0 * runs), total.delta / runs,
                                   total.accountant)
        found = []
        for j in range(runs):
            t_j = corollary_iterations(n, beta, total.delta, total.epsilon, 2.0**-j, t_const)
            x_j, trace_j = run_adaptive_power(a, t_j, split_budget(run_budget, 2 * t_j),
                                              rng.child(j), beta=beta)
            found.append((float(x_j @ np.dot(gram(a), x_j)), x_j, trace_j))
        sel_eps = total.epsilon / 2.0
        pick = exp_mech_select(np.array([q for q, _, _ in found]), 1.0, sel_eps, rng.child(runs))
        _, x_hat, trace = found[pick]
        accounting = {"runs": runs, "selection_epsilon": sel_eps,
                      "per_run_epsilon": run_budget.epsilon, "per_run_delta": run_budget.delta}
        return RunResult(x_hat, len(trace.theta), accounting, trace)

    # One run: T Gaussian steps, or T (threshold search, Gaussian step) pairs.
    t = cell.get("T")
    if t == "corollary":
        n, _ = _check_gen(cell["gen"])
        t = corollary_iterations(n, beta, total.delta, total.epsilon, cell["kappa"], t_const)
    t, search = int(t), algo in _SEARCHING
    count = 2 * t if search else t
    per_iter = split_budget(total, count)
    accounting = {"mechanisms": count, "per_mechanism_epsilon": per_iter.epsilon,
                  "per_mechanism_delta": per_iter.delta}
    x_hat, trace = run_adaptive_power(a, t, per_iter, rng, search=search, beta=beta)
    if search and total.accountant == "paper":  # compose assumes the paper's split
        composed = compose(per_iter, count)
        accounting.update(composed_epsilon=composed.epsilon,
                          composed_delta=composed.delta)
    return RunResult(x_hat, t, accounting, trace if search else None)  # naive: no trace


def _run_one(cfg: ExperimentConfig, cell_idx: int, trial: int) -> ResultRecord:
    cell = cfg.grid[cell_idx]
    gen = cell["gen"]
    total, beta = _cell_budget(cell)
    n, d = _check_gen(gen)
    rec = ResultRecord(
        cell=_cell_id(cell, cell_idx),
        trial=trial,
        algo=cell["algo"],
        n=n,
        d=d,
        eps_total=total.epsilon,
        delta_total=total.delta,
        t=None,
        gen=gen["kind"],
    )
    stream = RngStream(cfg.master_seed, cell_idx * cfg.trials + trial)
    try:
        a, vbar1, rec.clipped = build_instance(gen, stream, beta)
        stats = spectrum_stats(a)
        run = run_algorithm(cell, a, stream)
        rec.t, rec.removed = run.t, sum(run.trace.removed) if run.trace else None

        rec.sin2_emp = sin_sq(run.x_hat, stats.top_vector)
        if vbar1 is not None:
            rec.sin2_pop = sin_sq(run.x_hat, vbar1)
        rec.rayleigh = rayleigh_ratio(a, run.x_hat, stats.sigma1)
        rec.kappa, rec.upsilon, rec.u_inf = stats.kappa, stats.upsilon, stats.u_inf
    except DppcaError as exc:
        rec.error = f"{exc.reason}:{exc}"
    return rec


def run_experiment(cfg: ExperimentConfig, threads: int | None = None) -> list[ResultRecord]:
    """Execute every (cell, trial) pair; records sorted by (cell, trial).

    Thread count: explicit argument (the command line's --threads, an int
    >= 1), else cfg.threads.  Output is independent of the thread count
    because each trial's randomness is a pure function of (master_seed,
    cell index, trial index).
    """
    workers = _workers(cfg, threads)
    jobs = [
        (ci, tr) for ci in range(len(cfg.grid)) for tr in range(cfg.trials)
    ]
    if workers <= 1:
        records = [_run_one(cfg, ci, tr) for ci, tr in jobs]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a pooled run imports it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda j: _run_one(cfg, *j), jobs))
    records.sort(key=lambda r: (r.cell, r.trial))
    return records


def _workers(cfg: ExperimentConfig, threads: int | None) -> int:
    if threads is not None and not (_number(threads, _INTS) and threads >= 1):
        raise ParameterError(f"--threads must be >= 1, got {threads!r}")
    return threads if threads is not None else cfg.threads


def run_to_csv(cfg: ExperimentConfig, path: str | Path,
               threads: int | None = None) -> list[ResultRecord]:
    """run_experiment(cfg, threads), written to `path` as CSV.  A bad threads
    or an unwritable path fails before the grid runs and leaves no file."""
    workers = _workers(cfg, threads)
    with open(path, "w") as out:
        records = run_experiment(cfg, workers)
        out.write(records_to_csv(records))
    return records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(float(value))  # a numpy float's repr names its type
    if isinstance(value, str):
        return value.replace(",", ";").replace("\n", " ")
    return str(value)


def records_to_csv(records: list[ResultRecord]) -> str:
    lines = [CSV_HEADER] + [",".join(map(_fmt, astuple(r))) for r in records]
    return "\n".join(lines) + "\n"


_METRICS = [f.name for f in fields(ResultRecord) if f.default is None]  # measured columns


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
