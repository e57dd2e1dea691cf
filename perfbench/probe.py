"""Machine-speed probe.

A wall-clock timer signal runs a fixed pure-Python loop every 10 ms in the
benchmark's own thread, so the loop's mean duration over an interval is the
speed this process got from the machine during that interval.  Shared
machines of the class the benchmark was defined on change speed by up to 2x
over seconds to minutes (other tenants' load); a fixed CPU-bound task timed
in back-to-back 25-second windows spread 40% between windows.  Dividing a
measured time by the probe's mean duration over the same interval, and
multiplying by ``REFERENCE_S``, reports it at one fixed machine speed; on
the exact-posterior workload that cut the spread between windows to 1%.

The probe's own time is subtracted before scaling.  Standard library only,
so it can start before anything else is imported.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
# probe duration the reported times are scaled to: between its duration on
# an idle and on a busy core of a 2-vCPU Xeon guest with CPython 3.11
REFERENCE_S = 200e-6


def _spin() -> int:
    table = {}
    total = 0
    for i in range(1500):
        table[i & 63] = i
        total += table[i & 31] * 3
    return total


class SpeedProbe:
    """Samples the loop's duration; ``mark()``/``since()`` bracket an
    interval and return the probe time spent and the mean sample in it."""

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _spin()
        self.total += time.perf_counter() - start
        self.count += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return self.count, self.total

    def since(self, mark: tuple[int, float]) -> tuple[float, float | None]:
        """(probe seconds, mean sample seconds or None) since ``mark``."""
        count, total = self.count - mark[0], self.total - mark[1]
        return total, (total / count if count else None)

    def mean(self) -> float | None:
        return self.total / self.count if self.count else None


class Interval:
    """Wall and CPU time of one interval, net of the probe and scaled to
    the reference speed (by the interval's own samples, or ``fallback``
    when it was too short to hold any)."""

    def __init__(self, probe: SpeedProbe, cpu_clock):
        self.probe = probe
        self.cpu_clock = cpu_clock
        self.raw_wall = self.raw_cpu = self.probe_s = 0.0
        self.sample = None

    def __enter__(self):
        self._mark = self.probe.mark()
        self._cpu = self.cpu_clock()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw_wall = time.perf_counter() - self._wall
        self.raw_cpu = self.cpu_clock() - self._cpu
        self.probe_s, self.sample = self.probe.since(self._mark)
        return False

    def scale(self, fallback: float | None = None) -> float:
        sample = self.sample or fallback or self.probe.mean()
        return REFERENCE_S / sample if sample else 1.0

    def wall(self, fallback=None) -> float:
        return (self.raw_wall - self.probe_s) * self.scale(fallback)

    def cpu(self, fallback=None) -> float:
        return (self.raw_cpu - self.probe_s) * self.scale(fallback)
