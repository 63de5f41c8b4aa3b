"""Host-speed reference for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent within a minute, as neighbours come and go.  A wall time alone then
measures the host as much as the engine.  So every pass also times a fixed
reference loop (exact rational arithmetic on bare ints and as Fractions, and
complex Horner steps: the kinds of work the engine does) at short intervals,
and converts each stretch of work into reference seconds: the time it would
have taken on a host where the loop takes REF_S.  Raw wall times are kept
next to the converted ones in the results file.

    clock = SpeedClock()
    clock.calibrate()
    a = clock.now(); work(); b = clock.now()
    clock.calibrate()
    clock.reference_s(a, b)   # the work, in reference seconds

The clock pauses while the loop runs, so calibration never counts as work.
"""

from __future__ import annotations

import math
import signal
import time

# Roughly the loop's time (fastest of three runs) on the 2-vCPU host the
# benchmark was defined on.  It only sets the scale of a reference second.
REF_S = 0.005
INT_TERMS = 300
FRACTION_TERMS = 400
HORNER_POINTS = 300
LOOP_RUNS = 3


def _loop() -> None:
    """The engine's three kinds of arithmetic, which a busy host slows unequally.

    Sums k / (k^2 + 1) on bare ints reduced by gcd and again as Fractions (the
    exact core), then evaluates a complex polynomial by Horner's rule at many
    points (the zero finder).
    """
    from fractions import Fraction  # already imported by the engine; not set-up time

    num, den = 0, 1
    for k in range(1, INT_TERMS):
        b = k * k + 1
        num, den = num * b + k * den, den * b
        g = math.gcd(num, den)
        num, den = num // g, den // g
    total = Fraction(0)
    for k in range(1, FRACTION_TERMS):
        total += Fraction(k, k * k + 1)
    coeffs = [complex(k, -k) / 7 for k in range(25)]
    for j in range(HORNER_POINTS):
        z = complex(0.3 + j / 1000, 0.7)
        v = 0j
        for c in coeffs:
            v = v * z + c


def reference_loop() -> float:
    """Seconds the reference loop takes now: the fastest of LOOP_RUNS runs."""
    best = math.inf
    for _ in range(LOOP_RUNS):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(*loop_s: float) -> float:
    """Reference seconds per second at the loop times measured around a stretch."""
    return REF_S / math.exp(sum(map(math.log, loop_s)) / len(loop_s))


class SpeedClock:
    """Work time with calibration points; converts stretches to reference seconds."""

    def __init__(self) -> None:
        self.paused = 0.0
        self.points: list[tuple[float, float]] = []  # (work time, loop seconds)
        self._busy = False

    def now(self) -> float:
        """Seconds of work so far, not counting calibration."""
        while True:  # a calibration from the timer may land between the two reads
            paused = self.paused
            t = time.perf_counter()
            if paused == self.paused:
                return t - paused

    def calibrate(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        loop_s = reference_loop()
        self.points.append((t0 - self.paused, loop_s))
        self.paused += time.perf_counter() - t0
        self._busy = False

    def start_timer(self, every_s: float) -> None:
        """Calibrate every every_s seconds, also in the middle of an operation."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_s(self, a: float, b: float) -> float:
        """Work time from a to b in reference seconds.

        Between two calibration points the host speed is taken as the
        geometric mean of the two; before the first and after the last point,
        as that point's.
        """
        pts = self.points
        edges = [-math.inf] + [t for t, _ in pts] + [math.inf]
        rates = ([scale(pts[0][1])]
                 + [scale(p[1], q[1]) for p, q in zip(pts, pts[1:])]
                 + [scale(pts[-1][1])])
        total = 0.0
        for lo, hi, rate in zip(edges, edges[1:], rates):
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                total += overlap * rate
        return total
