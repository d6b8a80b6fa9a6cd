"""Host-speed calibration for timings taken on a shared machine.

On a host shared with other jobs the same Python code runs at speeds that
differ by up to 1.8x, switching within a fraction of a second and staying
slow or fast for minutes (measured while writing this benchmark: a fixed
certify round took 3.7 s in one minute and 6.8 s a few minutes later).
Runs of the benchmark minutes apart would disagree by that much.

So the host's speed is sampled with a fixed reference kernel made of the
operations the workloads spend their time in (small-int arithmetic and
gcd, Fraction sums, tuple building): a few runs just before and after each
timed stretch, and, while a stretch runs, one run from a SIGALRM handler
every INTERVAL_S.  The time the handler takes is taken back out of the
stretch.  A stretch of t seconds is then reported as t / slowdown, where
slowdown is the kernel's time relative to REFERENCE_S averaged over the
samples as a speed, so a timing reads as seconds on this host at its
reference speed.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from math import gcd
from time import perf_counter

# Kernel time on the 2-core Intel Xeon host the benchmark was written on
# (Python 3.11), at its usual speed.  Only the scale of the reported
# seconds depends on it.
REFERENCE_S = 2.3e-4
SAMPLES = 2  # kernel runs on each side of a timed stretch
INTERVAL_S = 0.02  # kernel runs during a stretch, one per interval


def _kernel() -> int:
    acc = 0
    for i in range(1, 400):
        acc += gcd(i, 360) + (i * i) % 7
    frac = Fraction(0)
    for i in range(1, 24):
        frac += Fraction(1, i)
    rows = [tuple(range(j, j + 8)) for j in range(60)]
    return acc + frac.denominator % 7 + len(rows)


def kernel_times(samples: int) -> list[float]:
    out = []
    for _ in range(samples):
        start = perf_counter()
        _kernel()
        out.append(perf_counter() - start)
    return out


def slowdown(times: list[float]) -> float:
    """Reference time over the host's mean speed across kernel samples: 1
    at reference speed, 2 when the host ran the kernel at half speed."""
    return len(times) / sum(REFERENCE_S / t for t in times)


class Sampler:
    """Runs the kernel every INTERVAL_S of a timed stretch, from SIGALRM.

    Use as a context manager around the stretch; afterwards `times` holds
    the kernel times measured during it and `spent` the seconds the
    handler took, which the caller subtracts from the stretch.  The handler
    stays installed between stretches, so a tick that was already pending
    when the timer stopped lands harmlessly.
    """

    def __init__(self):
        self.times: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        _kernel()
        end = perf_counter()
        self.times.append(end - start)
        self.spent += perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.times, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
