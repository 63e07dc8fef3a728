"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by more than the benchmark's bounds within a run.
On a 2-core sandbox, identical ``det_infty`` calls took between 7.6 ms and
13.7 ms in successive 5-second windows, while the ratio of their time to
the time of the Fraction loop below stayed within 8.3 to 9.4.  So the
runner times a fixed calibration loop every few hundredths of a second,
between queries, and scales each measured time by

    reference / (median of the last few loop times)

so that every reported time is the time the work would take on a machine
where the loop takes exactly its reference time.  Each workload uses the
loop whose work resembles its own, because the slowdowns hit different
work differently: a Fraction loop for exact-rational work, an exact power
and mpmath root loop for the oracle (oracle work over the Fraction loop
drifted by 9 %, over this loop by 4 %), and a bare interpreter start for
whole processes (a CLI call over the Fraction loop drifted by 15 %, over a
bare start by 4 %).  The references are the loops' typical times on the
sandbox where the benchmark was defined.

No loop uses the library under test, so a change to the library cannot
move them.
"""

from __future__ import annotations

import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter

from mpmath import mp, mpf

WINDOW = 5

_PAIRS = [(Fraction(i, 7), Fraction(i + 1, 7)) for i in range(1, 200)]
_BASES = [Fraction(i, 3) for i in range(2, 12)]


def fraction_loop() -> Fraction:
    acc = Fraction(0)
    for a, b in _PAIRS:
        acc += a * b
        if acc > 3:
            acc = abs(acc)
    return acc


def mpmath_loop():
    with mp.workprec(1100):
        acc = mpf(0)
        for x in _BASES:
            power = x**65
            acc += mp.root(mpf(power.numerator) / mpf(power.denominator), 65)
    return acc


class SpeedClock:
    """Recent calibration times and the scale factor they imply."""

    def __init__(self, loop, reference_s: float, every_s: float):
        self.loop = loop
        self.reference_s = reference_s
        self.every_s = every_s
        self.recent: deque = deque(maxlen=WINDOW)
        self.samples: list = []
        self.last = float("-inf")
        for _ in range(WINDOW):
            self.calibrate()

    def calibrate(self) -> None:
        t0 = perf_counter()
        self.loop()
        t1 = perf_counter()
        self.recent.append(t1 - t0)
        self.samples.append(t1 - t0)
        self.last = t1

    def tick(self) -> float:
        """Calibrate if due; the factor that converts a time measured now
        into reference time."""
        if perf_counter() - self.last >= self.every_s:
            self.calibrate()
        return self.reference_s / statistics.median(self.recent)

    def run_factor(self) -> float:
        """The factor for the whole run so far (median of every sample)."""
        return self.reference_s / statistics.median(self.samples)
