#!/usr/bin/env python3
"""Run a benchmark grid from a JSON config and print per-cell medians.

Usage:
    python3 scripts/run_grid.py [--config PATH] [--out PATH] [--threads N]

Defaults to the acceptance grid shipped with the test suite.  The CSV is
byte-identical for a fixed master seed regardless of the thread count.
BLAS runs on one thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS is already set, so the CSV does not depend on the host's
default BLAS threading.
"""

import argparse
import os
import sys
from pathlib import Path

# Before numpy loads: one BLAS thread, so W bench workers use W threads.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dppca import bench  # noqa: E402

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "tests" / "data" / "acceptance_bench.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(DEFAULT_CONFIG))
    ap.add_argument("--out", default="results.csv")
    ap.add_argument("--threads", type=int, default=None)
    args = ap.parse_args()

    cfg = bench.ExperimentConfig.from_json(args.config)
    threads = args.threads if args.threads is not None else bench.threads_from_env(cfg.threads)
    records = bench.run_experiment(cfg, threads=threads)
    bench.write_csv(records, args.out)

    summary = bench.summarize(records)
    width = max(len(c) for c in summary)
    print(f"{'cell':<{width}}  median_sin2  q25        q75        errors")
    for cell in sorted(summary):
        s = summary[cell]
        if "sin2_emp" in s:
            m = s["sin2_emp"]
            print(f"{cell:<{width}}  {m['median']:<11.5f}  {m['q25']:<9.5f}  "
                  f"{m['q75']:<9.5f}  {s['errors']}")
        else:
            print(f"{cell:<{width}}  (no successful trials)        {s['errors']}")
    errors = sum(1 for r in records if r.error)
    print(f"\nwrote {len(records)} records ({errors} errors) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
