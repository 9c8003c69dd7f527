#!/usr/bin/env python3
"""Regenerate tests/data/regression_lock.json from the acceptance grid.

Run this only after a deliberate, justified change to the numerics; the
regression test holds future builds within 20% of the values written here.
BLAS runs on one thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS is already set.
"""

import json
import os
import sys
from pathlib import Path

# Before numpy loads: one BLAS thread, so W bench workers use W threads.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dppca import bench  # noqa: E402

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"


def main() -> int:
    cfg = bench.ExperimentConfig.from_json(DATA / "acceptance_bench.json")
    records = bench.run_experiment(cfg, threads=bench.threads_from_env(4))
    summary = bench.summarize(records)
    lock = {
        "config": "acceptance_bench.json",
        "metric": "sin2_emp",
        "statistic": "median (lower-median convention)",
        "tolerance": "+/-20% relative",
        "medians": {cell: summary[cell]["sin2_emp"]["median"] for cell in summary},
    }
    out = DATA / "regression_lock.json"
    out.write_text(json.dumps(lock, indent=2) + "\n")
    print(f"wrote {out}")
    for cell, med in sorted(lock["medians"].items()):
        print(f"  {cell}: {med!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
