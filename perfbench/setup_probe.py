"""Time one benchmark set-up in a fresh interpreter.

Set-up is importing dppca (numpy included) plus building and validating the
workload's ExperimentConfig.  run.py starts this script several times and
reports the median, because an import is only cold once per process.  Prints
the set-up seconds and, from host-speed probes run right after it, the
host's slowdown against nominal speed (see hostspeed.py).

    python3 perfbench/setup_probe.py <workload> <seed> [--smoke]
"""

import statistics
import sys
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PROBES = 25  # about 50 ms of probes, next to a set-up of about 0.1 s


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    doc = WORKLOADS[name].config_doc(ROOT, seed, smoke="--smoke" in sys.argv[3:])
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    from dppca import bench

    bench.ExperimentConfig(
        master_seed=doc["master_seed"], trials=doc["trials"], grid=doc["grid"],
        threads=doc["threads"],
    )
    setup_s = time.perf_counter() - start
    host = statistics.fmean(hostspeed.probe() for _ in range(PROBES))
    print(repr(setup_s), repr(host))
    return 0


if __name__ == "__main__":
    sys.exit(main())
