"""Host-speed probe for the benchmark's timings.

On a small shared machine the host's speed drifts by 20-30 % over minutes,
and a plan request's wall time drifts with it. While a run sets up and plans,
a wall-clock timer (SIGALRM every PERIOD_S seconds) interrupts the process
and times a fixed pure-Python loop. The benchmark scales each request's
time by NOMINAL_S / (median probe taken while that request ran), and the
set-up time by the median probe of the set-up, so that the host's drift
does not read as a change of the planner. A later version of the planner
runs under the same probe, so the scaled times of two versions compare like
raw times on a steady host.

The probe samples the very seconds the requests run in, a few hundred times
per run; on N = 800 requests its time correlated 0.8 with the request's.
It costs about 1 % of the run's time, and uses no code of the package.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

# The probe's usual time on a quiet host: the 2-vCPU VM this benchmark was
# written on read 1.5-1.8 ms quiet and up to 2.5 ms when its host was busy.
NOMINAL_S = 0.0017
PERIOD_S = 0.2


def _loop() -> int:
    x = 0
    for i in range(30_000):
        x += i * i
    return x


class Probe:
    """Times _loop every PERIOD_S seconds of wall time while active."""

    def __init__(self) -> None:
        self.samples: list = []

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - t0)

    @contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def median(self, first: int) -> float:
        """Median of the probes taken since the first-th; of all if none since."""
        return statistics.median(self.samples[first:] or self.samples)
