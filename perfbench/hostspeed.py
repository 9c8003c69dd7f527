"""Host speed, measured while the benchmark runs.

The 2-vCPU virtual machines this benchmark was tuned on share their cores
with other tenants, and their speed drifts by 20-35% over seconds to
minutes: ten runs of the same grid on ten seeds read up to 0.30 apart
between quartiles (IQR / median) in wall-clock trials per second, and most
of that is the host, not the seed.  A fixed probe timed during the same pass
tracks that drift (correlation 0.75-0.97 with the pass's speed), and scaling
the pass by it left 0.04-0.05 on the acceptance grid at 1 and at 2 workers
where the wall clock read 0.13 and 0.09.

The probe sums range(100_000): one C call, so that the GIL never changes
hands inside it, timed in thread CPU time, so that a wait for the GIL before
it starts is not counted.  (A probe of many small numpy calls tracked a
1-worker pass better, but stopped tracking at 2 workers, where the GIL
changes hands inside it, and tracked the sweep-tall grid worse.)  The probe
uses no dppca code, so a change to dppca does not move it.

A `Sampler` runs the probe from a SIGALRM handler in the main thread every
INTERVAL_S while a pass runs.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.2
# The probe's fastest time on an idle core of the host the bounds were set
# on (2-vCPU Intel Xeon VM, Python 3.11): a time divided by the slowdown
# reads as on that host at its fastest.
NOMINAL_S = 1.6e-3


def probe() -> float:
    """Slowdown: thread CPU time of one fixed C-level loop over NOMINAL_S."""
    start = time.thread_time()
    sum(range(100_000))
    return (time.thread_time() - start) / NOMINAL_S


class Sampler:
    """Context manager: probes at entry, every INTERVAL_S, and at exit.

    `handler_s` is the wall time the periodic probes took, for the caller to
    take out of the time it measures inside the block.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.samples.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    @property
    def slowdown(self) -> float:
        """How many times slower than nominal the host ran the probe."""
        return statistics.fmean(self.samples)
