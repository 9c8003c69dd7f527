#!/usr/bin/env python3
"""dppca benchmark: experiment grids through dppca.bench.run_experiment.

Run from the repository root:

    python3 perfbench/run.py --workload accept-grid --seed 2026 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
one untraced and one traced pass and reports the per-layer metrics (see
spans.py) and the tracing overhead.  Each run checks the outputs; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics, and the exit code is 1 when a check fails.  A full record
(environment, checks, per-layer table, computed kernel counts) is written to
perfbench/out/<workload>-seed<seed>-trace<t>.json.

All load comes from this one process.  BLAS is pinned to one thread before
numpy loads, so a workload with W workers uses W threads.  --smoke runs
every workload at tiny sizes, both traced and untraced, and checks that
every metric named in BENCHMARK.json is reported with its unit.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import kernels
from spans import LayerReport, Tracer
from workloads import DEFAULT_SEED, REGRESSION_LOCK, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
# Bounded end-to-end metrics (BENCHMARK.json).  Times in them are scaled to
# nominal host speed (hostspeed.py); the wall-clock trials_per_s and
# setup_wall_s, sin2_emp_median and error_rate are reported beside them.
# sin2_emp_median varies across seeds by more than any allowed bound at
# these trial counts, and error_rate is 0.
END_TO_END = ("trials_per_nominal_s", "peak_rss_mb", "setup_s")
LOCK_TOLERANCE = 0.20  # the regression lock's own +/-20%
TOL = 1e-9  # float slack on bounds that hold exactly in real arithmetic


class Fail(Exception):
    """The program's outputs failed a correctness check."""


def blas_info(np) -> dict:
    """OpenBLAS name and version as numpy was built, and its live thread count."""
    info = {"blas": None, "blas_version": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                info["blas_threads"] = int(getter())
                return info
    return info


def environment(seed: int) -> dict:
    import numpy as np

    src = ROOT / "src" / "dppca"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_dppca_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py")),
    }


def setup_seconds(name: str, seed: int, smoke: bool,
                  repeats: int) -> list[tuple[float, float]]:
    """(set-up seconds, host slowdown), each from a fresh interpreter
    (see setup_probe.py)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    if smoke:
        cmd.append("--smoke")
    out = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        setup_s, slowdown = proc.stdout.split()
        out.append((float(setup_s), float(slowdown)))
    return out


def timed_pass(bench, cfg, workers: int):
    """Records, wall seconds without the probes' own time, host slowdown."""
    with hostspeed.Sampler() as host:
        start = time.perf_counter()
        records = bench.run_experiment(cfg, threads=workers)
        wall = time.perf_counter() - start - host.handler_s
    return records, wall, host.slowdown


def check_records(records, cfg) -> None:
    """Bounds every successful record must meet, whatever the seed.

    For a unit estimate x = c v1 + s w (w orthogonal to v1) the Rayleigh
    ratio is c^2 + s^2 w'Gw / s1^2, so it lies in [1 - sin2_emp, 1]; this ties
    the estimate, the ground-truth vector and sigma1 to one another.
    """
    expected = len(cfg.grid) * cfg.trials
    if len(records) != expected:
        raise Fail(f"{len(records)} records, expected {expected}")
    for r in records:
        if r.error:
            continue
        where = f"{r.cell}/{r.trial}"
        if not 0.0 <= r.sin2_emp <= 1.0:
            raise Fail(f"{where}: sin2_emp {r.sin2_emp} outside [0, 1]")
        if not 1.0 - r.sin2_emp - TOL <= r.rayleigh <= 1.0 + TOL:
            raise Fail(f"{where}: rayleigh {r.rayleigh} outside "
                       f"[1 - sin2_emp, 1] = [{1.0 - r.sin2_emp}, 1]")
        if not 0.0 < r.kappa <= 1.0 + TOL:
            raise Fail(f"{where}: kappa {r.kappa} outside (0, 1]")
        if not 0.0 < r.upsilon <= r.u_inf <= 1.0 + TOL:
            raise Fail(f"{where}: need 0 < upsilon <= u_inf <= 1, got "
                       f"{r.upsilon}, {r.u_inf}")
        if r.sin2_pop is not None and not 0.0 <= r.sin2_pop <= 1.0:
            raise Fail(f"{where}: sin2_pop {r.sin2_pop} outside [0, 1]")


def same_csv(bench, ref, records, what: str) -> None:
    if bench.records_to_csv(records) != bench.records_to_csv(ref):
        raise Fail(f"CSV differs: {what}")


def cell_medians(bench, records) -> dict[str, float]:
    return {cell: stats["sin2_emp"]["median"]
            for cell, stats in bench.summarize(records).items() if "sin2_emp" in stats}


def lock_check(medians: dict[str, float]) -> str:
    """At the default seed the shipped grid must stay inside the lock's +/-20%."""
    lock = json.loads((ROOT / REGRESSION_LOCK).read_text())["medians"]
    for cell, ref in sorted(lock.items()):
        got = medians.get(cell)
        if got is None or abs(got - ref) > LOCK_TOLERANCE * ref:
            raise Fail(f"regression lock: {cell} median sin2_emp {got} outside "
                       f"{ref} +/-{LOCK_TOLERANCE:.0%}")
    return f"regression lock: all {len(lock)} cell medians within +/-20%"


def criterion_10b(medians: dict[str, float]) -> str | None:
    """Reported as measured; known to fail on this implementation, never gated."""
    if "n-sweep-16000" not in medians or "ag-16000" not in medians:
        return None
    ada, ag = medians["n-sweep-16000"], medians["ag-16000"]
    return (f"criterion 10b (reported, not gated): adaptive n=16000 median "
            f"{ada:.4f} vs analyze-gauss {ag:.4f}: "
            f"{'PASS' if ada < ag else 'FAIL'}")


def workload_why(name: str) -> str:
    """Why the workload was chosen, as BENCHMARK.json says it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == name)


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    from dppca import bench

    wl = WORKLOADS[name]
    doc = wl.config_doc(ROOT, seed, smoke)
    cfg = bench.ExperimentConfig(master_seed=doc["master_seed"], trials=doc["trials"],
                                 grid=doc["grid"], threads=doc["threads"])
    notes: list[str] = []
    rec: dict = {"workload": name, "why": workload_why(name),
                 "predictions": list(wl.predictions), "smoke": smoke,
                 "environment": environment(seed), "notes": notes}
    # Set-up is probed before and after the passes, so that a slow spell of
    # the machine does not set the median alone.
    probes = 1 if smoke else SETUP_PROBES
    setup = [] if trace else setup_seconds(name, seed, smoke, probes // 2)

    # Measured passes of the whole grid: at least one, then more while the
    # next (timed as the last) still ends within --seconds.  The traced run
    # needs one untraced pass to compare against.
    walls, slowdowns, first = [], [], None
    start = time.perf_counter()
    while not walls or (not trace and time.perf_counter() - start + walls[-1] <= seconds):
        records, wall, slowdown = timed_pass(bench, cfg, wl.workers)
        walls.append(wall)
        slowdowns.append(slowdown)
        if first is None:
            first = records
            check_records(records, cfg)
        else:
            same_csv(bench, first, records, "repeated pass of the same seed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec["pass_s"], rec["pass_host_slowdown"] = walls, slowdowns
    errors = sum(1 for r in first if r.error)  # every pass has the same CSV
    ok = len(first) - errors
    attempted, failed = len(first) * len(walls), errors * len(walls)
    rates = [ok / w for w in walls]
    nominal_rates = [r * k for r, k in zip(rates, slowdowns)]
    medians = cell_medians(bench, first)
    rec["cell_sin2_emp_median"] = medians

    if not trace:
        setup += setup_seconds(name, seed, smoke, probes - probes // 2)
        rec["setup_s_and_slowdown_samples"] = setup
        rec["end_to_end"] = {
            "setup_s": (statistics.median(s / k for s, k in setup), "s"),
            "trials_per_nominal_s": (statistics.median(nominal_rates), "1/s"),
            "trials_per_s": (statistics.median(rates), "1/s"),
            "setup_wall_s": (statistics.median(s for s, _ in setup), "s"),
            "host_slowdown": (statistics.median(slowdowns), "x"),
            "sin2_emp_median": (statistics.fmean(medians.values()) if medians
                                else float("nan"), "1"),
            "error_rate": (errors / len(first), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        metrics = {k: rec["end_to_end"][k] for k in END_TO_END}
    else:
        with Tracer() as tracer:
            traced, traced_wall, traced_slowdown = timed_pass(bench, cfg, wl.workers)
        attempted += len(traced)
        failed += sum(1 for r in traced if r.error)
        same_csv(bench, first, traced, "traced vs untraced pass")
        notes.append("CSV byte-identical traced and untraced")
        layers = LayerReport(tracer, traced_wall, wl.workers)
        metrics = layers.metrics()
        traced_nominal = ok / traced_wall * traced_slowdown
        metrics["trace.overhead_frac"] = (nominal_rates[0] / traced_nominal - 1.0, "ratio")
        rec["trials_per_nominal_s"] = {"untraced": nominal_rates[0], "traced": traced_nominal}
        rec["table"] = layers.table()
        rec["rows_per_s"] = {f"{lay}.{func}": layers.rows_per_s(lay, func)
                             for (lay, func), ss in layers.by_func.items()
                             if any(s.rows for s in ss)}
        rec["kernels"] = kernels.report(cfg.grid, layers)

    # Checks that need passes of their own run after everything is measured.
    if wl.workers > 1:
        same_csv(bench, first, bench.run_experiment(cfg, threads=1),
                 f"{wl.workers} workers vs 1 worker")
        notes.append(f"CSV byte-identical at {wl.workers} workers and at 1 worker "
                     f"(1-worker pass not measured)")
    if not wl.cells and not smoke and seed == DEFAULT_SEED:
        notes.append(lock_check(medians))
    elif not wl.cells and not smoke and wl.workers == 1:
        lock_cfg = dataclasses.replace(cfg, master_seed=DEFAULT_SEED)
        notes.append(lock_check(cell_medians(bench, bench.run_experiment(lock_cfg)))
                     + f" (seed {DEFAULT_SEED} pass, not measured)")
    line = criterion_10b(medians)
    if line:
        notes.append(line)
    rec["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    rec["attempted"], rec["failed"] = attempted, failed
    return rec


def print_report(rec: dict) -> None:
    env = rec["environment"]
    print(f"workload {rec['workload']}: {rec['why']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("passes: " + ", ".join(f"{w:.3f} s (host {k:.3f}x nominal time)"
                                 for w, k in zip(rec["pass_s"], rec["pass_host_slowdown"])))
    if "end_to_end" in rec:
        print(f"end-to-end, tracing off ({rec['failed']} of {rec['attempted']} "
              f"trials failed):")
        for name, (value, unit) in rec["end_to_end"].items():
            bounded = "" if name in END_TO_END else "  (reported, not bounded)"
            print(f"  {name:<16} {value:.6g} {unit}{bounded}")
    else:
        tp = rec["trials_per_nominal_s"]
        print(f"tracing overhead: trials_per_nominal_s untraced {tp['untraced']:.4f}, "
              f"traced {tp['traced']:.4f}")
        print("per-layer, traced pass:")
        for name, m in rec["metrics"].items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
        print(f"{'module':<10} {'function':<22} {'self_s':>9} {'share':>7} "
              f"{'calls':>8} {'rows/s':>12}")
        for lay, func, self_s, share, calls in rec["table"]:
            rps = rec["rows_per_s"].get(f"{lay}.{func}")
            print(f"{lay:<10} {func:<22} {self_s:>9.4f} {share:>7.2%} {calls:>8} "
                  f"{'' if rps is None else f'{rps:>12.4g}'}")
        llc = rec["kernels"]["caches_bytes"]["llc"]
        for cell in {(c["n"], c["d"]): c for c in rec["kernels"]["cells"]}.values():
            print(f"computed kernels (n={cell['n']}, d={cell['d']}): "
                  + ", ".join(f"{k} {cell[k]['flops']:.3g} flop / {cell[k]['bytes']:.3g} B"
                              for k in ("gram", "apply_filter_all_kept",
                                        "threshold_search_products"))
                  + f"; working set {cell['working_set_bytes'] / 2**20:.1f} MiB vs "
                  f"LLC {'unknown' if llc is None else f'{llc / 2**20:.0f} MiB'}")
        for kernel, a in rec["kernels"]["achieved_from_computed_counts"].items():
            print(f"achieved (computed counts / traced time) {kernel}: "
                  f"{a['gflop_per_s']:.3g} GFLOP/s, {a['gbyte_per_s']:.3g} GB/s, "
                  f"{a['rows_per_s']:.4g} rows/s over {a['calls']} calls")
    for note in rec["notes"]:
        print(note)
    for line in rec["predictions"]:
        print(f"prediction: {line}")


def save(rec: dict, tag: str) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{tag}.json").write_text(json.dumps(rec, indent=1, default=str) + "\n")


def smoke() -> int:
    """Every workload at tiny size, untraced and traced: all metrics present."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = sorted(w["name"] for w in spec["workloads"])
    if declared != sorted(WORKLOADS):
        raise Fail(f"workloads in BENCHMARK.json {declared} differ from "
                   f"workloads.py {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            rec = run(name, DEFAULT_SEED, 0.0, trace, smoke=True)
            got = rec["metrics"]
            for m in wanted:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    raise Fail(f"smoke {name}: metric {m['name']} [{m['unit']}] "
                               f"missing or with another unit")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                raise Fail(f"smoke {name}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"smoke {name} trace={int(trace)}: {len(got)} metrics, "
                  f"{rec['attempted']} trials, {rec['failed']} failed")
    print("smoke: ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    src = ROOT / "src" / "dppca"
    if not (src / "__init__.py").is_file():
        print(f"perfbench: no dppca sources at {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Before numpy loads: one BLAS thread, so W workers use W threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src.parent))
    import dppca

    if Path(dppca.__file__).resolve().parent != src.resolve():
        print(f"perfbench: imported dppca from {dppca.__file__}, not {src}",
              file=sys.stderr)
        return 2

    try:
        if args.smoke:
            return smoke()
        rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
        correct = True
    except Fail as exc:
        print(f"CHECK FAILED: {exc}")
        rec, correct = None, False
    if rec is not None:
        print_report(rec)
        save(rec, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    print(json.dumps({
        "correct": correct,
        "attempted": rec["attempted"] if rec else 1,
        "failed": rec["failed"] if rec else 0,
        "metrics": rec["metrics"] if rec else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
