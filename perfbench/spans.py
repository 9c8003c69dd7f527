"""Layer spans for the traced pass, recorded from outside dppca.

While a `Tracer` is active it replaces every public function binding that a
dppca module holds in its namespace (its own functions and the ones it
imported from other modules) with a wrapper that records a span.  Callers
look those names up at call time, so `dppca.bench.spectrum_stats`,
`dppca.matcore.compact_svd` and `dppca.adaptive.threshold_search` each
record a span without any change to `src/`.  Private helpers (a leading
underscore, such as `_jacobi_rotate`) are never wrapped: they run per element
and would swamp the trace.

Layers are the modules.  `bench` is the caller: its trial span starts when
`bench` builds a trial's root `RngStream` and ends with the trial's last
layer span.  Every span of a trial carries that stream's
(master_seed, stream_id).  Self time is a span's duration minus the time its
child spans cover; the part of a trial no layer span covers is bench's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
import time
from collections import defaultdict

PACKAGE = "dppca"
LAYERS = ("bench", "datagen", "matcore", "svtfilter", "adaptive", "mech",
          "baselines", "theory")
_CALLEE_LAYERS = frozenset(LAYERS[1:])


class Span:
    __slots__ = ("layer", "func", "trial", "parent", "start", "end", "child_s",
                 "rows", "cols", "extra")

    def __init__(self, layer, func, trial, parent, args):
        self.layer, self.func, self.trial, self.parent = layer, func, trial, parent
        self.child_s = 0.0
        self.rows = self.cols = self.extra = None
        first = args[0] if args else None
        if hasattr(first, "data") and hasattr(first, "n"):  # a DenseMatrix
            self.rows, self.cols = first.n, first.d
        elif layer == "datagen" and isinstance(first, int):  # generators take n
            self.rows = first

    @property
    def dur(self) -> float:
        return self.end - self.start


def _boundary_counts(func: str, out):
    """Counts read from a layer's results where they cross its boundary.

    Read with defaults, so a result type that changes shape loses the count
    rather than breaking the traced program.  A call that raised keeps None.
    """
    if func == "threshold_search":
        return getattr(out, "queries_issued", 0), bool(getattr(out, "fell_through", False))
    if func == "apply_filter":
        return getattr(out, "removed_count", 0)
    if func == "run_adaptive_power":
        trace = out[1] if isinstance(out, tuple) and len(out) > 1 else None
        return len(getattr(trace, "theta", ())), getattr(trace, "restarts", 0)
    return ()


class Tracer:
    """Context manager: spans are recorded while it is active."""

    def __init__(self):
        self._local = threading.local()
        self.spans: list[Span] = []
        self.trial_starts: dict[tuple[int, int], float] = {}
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                home, _, owner = obj.__module__.rpartition(".")
                if home == PACKAGE and owner in _CALLEE_LAYERS:
                    self._patch(module, name, self._wrap(obj, owner))
        bench = importlib.import_module(f"{PACKAGE}.bench")
        self._patch(bench, "RngStream", self._trial_stream(bench.RngStream))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            module, name, original = self._restore.pop()
            setattr(module, name, original)

    def _patch(self, module, name: str, replacement) -> None:
        self._restore.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def _wrap(self, fn, layer: str):
        local, spans, clock, func = self._local, self.spans, time.perf_counter, fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(layer, func, getattr(local, "trial", None),
                        stack[-1] if stack else None, args)
            stack.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.end - span.start
                spans.append(span)
            span.extra = _boundary_counts(func, out)
            return out

        return traced

    def _trial_stream(self, base):
        local, starts = self._local, self.trial_starts

        class TrialStream(base):
            """Root stream of one (cell, trial): marks the trial's start."""

            def __post_init__(self):
                key = (self.master_seed, self.stream_id)
                local.trial = key
                starts[key] = time.perf_counter()
                super().__post_init__()

        return TrialStream


def _p(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); 0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class LayerReport:
    """Per-layer metrics and the self-time table of one traced pass."""

    def __init__(self, tracer: Tracer, wall_s: float, workers: int):
        spans = tracer.spans
        trial_end: dict = {}
        covered: dict = defaultdict(float)
        by_func: dict = defaultdict(list)
        for s in spans:
            by_func[(s.layer, s.func)].append(s)
            if s.trial is not None:
                trial_end[s.trial] = max(trial_end.get(s.trial, s.end), s.end)
                if s.parent is None:
                    covered[s.trial] += s.dur
        self.trial_s = [trial_end.get(k, t0) - t0 for k, t0 in tracer.trial_starts.items()]
        self.total_trial_s = sum(self.trial_s)
        self.uncovered_s = self.total_trial_s - sum(covered.values())
        self.by_func = by_func
        self.wall_s, self.workers = wall_s, workers

    def calls(self, layer: str, func: str) -> int:
        return len(self.by_func.get((layer, func), ()))

    def incl(self, layer: str, func: str) -> float:
        return sum(s.dur for s in self.by_func.get((layer, func), ()))

    def self_s(self, layer: str, func: str) -> float:
        return sum(s.dur - s.child_s for s in self.by_func.get((layer, func), ()))

    def rows_per_s(self, layer: str, func: str) -> float:
        spans = self.by_func.get((layer, func), ())
        busy = sum(s.dur for s in spans)
        return sum(s.rows or 0 for s in spans) / busy if busy else 0.0

    def _layer_spans(self, layer: str):
        return [s for (lay, _), ss in self.by_func.items() if lay == layer for s in ss]

    def _iteration_ms(self) -> list[float]:
        """Per-iteration times: from one threshold search to the next, the
        last iteration ending with its run_adaptive_power span."""
        starts = defaultdict(list)
        for s in self.by_func.get(("svtfilter", "threshold_search"), ()):
            if s.parent is not None and s.parent.func == "run_adaptive_power":
                starts[s.parent].append(s.start)
        out = []
        for run, ts in starts.items():
            ts.sort()
            ends = ts[1:] + [run.end]
            out.extend((e - t) * 1e3 for t, e in zip(ts, ends))
        return out

    def returned(self, layer: str, func: str) -> list[Span]:
        """Spans of calls that returned, so that their counts were read."""
        return [s for s in self.by_func.get((layer, func), ()) if s.extra is not None]

    def metrics(self) -> dict[str, tuple[float, str]]:
        search = self.returned("svtfilter", "threshold_search")
        filt = self.returned("svtfilter", "apply_filter")
        runs = self.returned("adaptive", "run_adaptive_power")
        gens = [s for s in self._layer_spans("datagen") if s.func.startswith("gen_")]
        gen_s = sum(s.dur for s in gens)
        filt_rows = sum(s.rows or 0 for s in filt)
        eig_ms = [s.dur * 1e3 for s in self.by_func.get(("matcore", "sym_eig"), ())]
        theory_s = sum(s.dur for s in self._layer_spans("theory")
                       if s.parent is None or s.parent.layer != "theory")
        total = self.total_trial_s
        return {
            "matcore.sym_eig.s": (self.incl("matcore", "sym_eig"), "s"),
            "matcore.sym_eig.calls": (self.calls("matcore", "sym_eig"), "count"),
            "matcore.sym_eig.ms_p50": (_p(eig_ms, 50), "ms"),
            "matcore.compact_svd.self_s": (self.self_s("matcore", "compact_svd"), "s"),
            "matcore.rayleigh_ratio.s": (self.incl("matcore", "rayleigh_ratio"), "s"),
            "matcore.spectrum_stats.s": (self.incl("matcore", "spectrum_stats"), "s"),
            "matcore.gram.s": (self.incl("matcore", "gram"), "s"),
            "matcore.gram.calls": (self.calls("matcore", "gram"), "count"),
            "svtfilter.threshold_search.s": (self.incl("svtfilter", "threshold_search"), "s"),
            "svtfilter.threshold_search.calls": (
                self.calls("svtfilter", "threshold_search"), "count"),
            "svtfilter.threshold_search.probes_mean": (
                statistics.fmean(s.extra[0] for s in search) if search else 0.0, "count"),
            "svtfilter.threshold_search.fell_through_frac": (
                sum(s.extra[1] for s in search) / len(search) if search else 0.0, "ratio"),
            "svtfilter.threshold_search.rows_per_s": (
                self.rows_per_s("svtfilter", "threshold_search"), "rows/s"),
            "svtfilter.apply_filter.s": (self.incl("svtfilter", "apply_filter"), "s"),
            "svtfilter.apply_filter.removed_frac": (
                sum(s.extra for s in filt) / filt_rows if filt_rows else 0.0, "ratio"),
            "svtfilter.apply_filter.rows_per_s": (
                self.rows_per_s("svtfilter", "apply_filter"), "rows/s"),
            "adaptive.run_adaptive_power.self_s": (
                self.self_s("adaptive", "run_adaptive_power"), "s"),
            "adaptive.iterations": (sum(s.extra[0] for s in runs), "count"),
            "adaptive.restarts": (sum(s.extra[1] for s in runs), "count"),
            "adaptive.iter_ms_p50": (_p(self._iteration_ms(), 50), "ms"),
            "adaptive.run_kappa_sweep.self_s": (self.self_s("adaptive", "run_kappa_sweep"), "s"),
            "mech.sample_laplace.calls": (self.calls("mech", "sample_laplace"), "count"),
            "mech.sample_laplace.s": (self.incl("mech", "sample_laplace"), "s"),
            "bench.trial_s.p50": (_p(self.trial_s, 50), "s"),
            "bench.trial_s.p90": (_p(self.trial_s, 90), "s"),
            "bench.busy_frac": (total / (self.workers * self.wall_s), "ratio"),
            "bench.uncovered_frac": (self.uncovered_s / total if total else 0.0, "ratio"),
            "datagen.gen.s": (gen_s, "s"),
            "datagen.scale_for_privacy.s": (self.incl("datagen", "scale_for_privacy"), "s"),
            "datagen.rows_per_s": (sum(s.rows or 0 for s in gens) / gen_s if gen_s else 0.0,
                                   "rows/s"),
            "baselines.analyze_gauss.self_s": (self.self_s("baselines", "analyze_gauss"), "s"),
            "theory.s": (theory_s, "s"),
        }

    def table(self) -> list[tuple[str, str, float, float, int]]:
        """(module, function, self s, share of trial time, calls), by self time."""
        total = self.total_trial_s or 1.0
        rows = [(lay, func, self.self_s(lay, func), self.self_s(lay, func) / total,
                 len(ss)) for (lay, func), ss in self.by_func.items()]
        rows.append(("bench", "(trial, uncovered)", self.uncovered_s,
                     self.uncovered_s / total, len(self.trial_s)))
        return sorted(rows, key=lambda r: -r[2])
