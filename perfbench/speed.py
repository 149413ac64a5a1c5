"""Correct wall-clock times for the speed the machine runs at, moment by moment.

On a shared virtual machine one core can run the same code at one of two
speeds about 2x apart, switching every few seconds (README, "Noise on this
machine").  A ``SpeedMeter`` samples that speed while a workload runs: every
``INTERVAL_S`` of wall time a ``SIGALRM`` handler times ``probe()``, a fixed
piece of pure-Python exact arithmetic.  A stretch of wall time is then
converted to *reference time*, the time it would have taken at the speed
at which ``probe()`` takes ``REF_PROBE_S``, by scaling it with the mean of
``REF_PROBE_S / probe time`` over the samples taken during it.

The probes run inside the measured process, between the workload's
bytecodes; their own time is counted in ``stolen`` so that callers can
take it out of what they measure.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
# the probe's time at this machine's faster speed, so that reference
# times read close to the wall times of an undisturbed run
REF_PROBE_S = 0.0006


_BIG = 3**1000 + 1
_MOD = 7**900 + 1


def probe() -> tuple[Fraction, int]:
    """0.6-1 ms of exact arithmetic, like that of sapcert's Sturm sequences.

    Fraction arithmetic on small operands, then products of integers of
    some hundreds of digits; the operands stay the same size.  Over
    0.5-second windows its time follows that of ``sturm_chain`` and
    ``char_coeffs`` with a log-log slope of about 0.9-1.1; pure small
    Fraction arithmetic gave 0.65-0.85, so it over-corrected.
    """
    x = Fraction(1, 3)
    for _ in range(40):
        x = (x * 7 + 1) % 13 + Fraction(1, 7)
    y = _BIG
    for _ in range(30):
        y = y * _BIG % _MOD
    return x, y


class SpeedMeter:
    def __init__(self):
        self.times: list[float] = []  # perf_counter at each probe's start
        self.ratios: list[float] = []  # REF_PROBE_S / probe time
        self.stolen = 0.0  # seconds spent in the signal handler
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.ratios.append(REF_PROBE_S / (t1 - t0))
        self._busy = False
        self.stolen += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over [t0, t1] (perf_counter).

        Uses the probes taken from one interval before t0 to one after t1,
        or the probe nearest to the stretch when none falls there.
        """
        if not self.times:
            raise ValueError("no speed samples")
        lo = bisect.bisect_left(self.times, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self.times, t1 + INTERVAL_S)
        if lo == hi:  # the nearest probe before or after the stretch
            after = lo < len(self.times) and (lo == 0 or self.times[lo] - t1 < t0 - self.times[lo - 1])
            lo = lo if after else lo - 1
            hi = lo + 1
        window = self.ratios[lo:hi]
        return sum(window) / len(window)
