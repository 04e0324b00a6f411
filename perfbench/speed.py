"""The machine's speed, sampled while the benchmark measures.

On a shared machine the CPU speed a process gets drifts by tens of percent
within seconds, and everything the process runs slows alike.  A timer
signal interrupts the measured code every INTERVAL_S seconds, in the same
thread, and times a fixed probe of rational arithmetic; BOUNDARY more
probes run right before and after each timed call, so that even a short
call has a speed of its own.  A timing is then reported as (its wall time -
the probes inside it) * REFERENCE_S / (the mean time of the probes inside
and around it): seconds on a machine where the probe takes REFERENCE_S.
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
BOUNDARY = 4
REFERENCE_S = 0.0005
_OPERANDS = [Fraction(3**k + 1, 2**k + 7) for k in range(1, 40, 3)]


def probe() -> Fraction:
    """A fixed piece of Fraction and big-integer work, about 0.5 ms here."""
    acc = Fraction(0)
    for a in _OPERANDS:
        for b in _OPERANDS[:4]:
            acc += a * b - b / (a + 1)
    return acc


class SpeedProbe:
    """Counts probes and their total time; marks let callers take intervals."""

    def __init__(self):
        self.count = 0
        self.total = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        self.total += time.perf_counter() - t0
        self.count += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return self.count, self.total

    def timed(self, fn, *args):
        """(fn(*args), the Interval of that call)."""
        m0 = self.mark()
        for _ in range(BOUNDARY):
            self._tick(None, None)
        m1 = self.mark()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        m2 = self.mark()
        for _ in range(BOUNDARY):
            self._tick(None, None)
        m3 = self.mark()
        iv = Interval()
        iv.net = wall - (m2[1] - m1[1])
        iv.probes = m3[0] - m0[0]
        iv.probe_s = m3[1] - m0[1]
        return result, iv


class Interval:
    """Net wall time of some calls, and the probes taken inside and around them."""

    def __init__(self):
        self.net = 0.0
        self.probes = 0
        self.probe_s = 0.0

    def scale(self) -> float:
        """Reference seconds per second on the clock over this interval."""
        return REFERENCE_S * self.probes / self.probe_s if self.probes else 1.0

    def scaled(self) -> float:
        """Net seconds at the reference speed."""
        return self.net * self.scale()

    @classmethod
    def combined(cls, parts) -> "Interval":
        out = cls()
        for p in parts:
            out.net += p.net
            out.probes += p.probes
            out.probe_s += p.probe_s
        return out
