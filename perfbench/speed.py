"""The machine-speed reference the end-to-end times are scaled by.

On the shared 2-core VM the benchmark was sized on, one process runs in a
fast or a slow state (about 1.8 times apart) that changes from second to
second, and the share of slow time differs by 10-25 % between minutes.  A
fixed pure-Python loop moves with it as much as toricspec does, so two runs
of identical code can differ by more than a regression bound.

Each worker therefore times `sample()`, a fixed piece of exact arithmetic of
the kind toricspec does, just before and just after every job, and during it
(`Sampler`, on SIGALRM: FIRST_TICK_S after the start, then every TICK_S; the
time the samples take is subtracted from the job's latency).  `factor` turns a job's samples into
reference seconds per measured second: the mean over the samples of REF_S
over the sample's time, that is, the job's mean speed relative to the
reference.  The run reports job and set-up times in reference seconds, and
prints the measured seconds beside them.

`sample` does not import toricspec, so a change to the library does not move
it; a slower program still reads proportionally slower.
"""

import gc
import signal
import time
from fractions import Fraction

# A typical `sample()` time on the 2-core x86-64 VM the benchmark was sized
# on, Python 3.11.7 (about 1.3 ms in its fast state, 2.5 ms in its slow one).
# Reference seconds are seconds at that speed.
REF_S = 0.0015
# The first in-job sample comes early, so that every job longer than
# FIRST_TICK_S gets one; later ones come every TICK_S.
FIRST_TICK_S = 0.03
TICK_S = 0.1

_A = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
_B = {(i, -j): Fraction(j - 2, i + 3) for i in range(4) for j in range(4)}


def _work():
    """Multiply two sparse Laurent polynomials with Fraction coefficients."""
    out = {}
    for (i, j), x in _A.items():
        for (k, m), y in _B.items():
            key = (i + k, j - m)
            out[key] = out.get(key, 0) + x * y
    return out


def sample(reps: int) -> list:
    """Seconds taken by each of `reps` runs of the fixed work."""
    times = []
    collecting = gc.isenabled()
    gc.disable()  # a collection would time the job's heap, not the machine
    try:
        for _ in range(reps):
            start = time.perf_counter()
            _work()
            times.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return times


def factor(samples: list) -> float:
    """Reference seconds per measured second over the span of the samples."""
    return sum(REF_S / s for s in samples) / len(samples)


class Sampler:
    """Samples taken while a job runs, from SIGALRM: FIRST_TICK_S after
    `start`, then every TICK_S."""

    def __init__(self):
        self.active, self.samples, self.spent = False, [], 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if self.active:
            start = time.perf_counter()
            self.samples += sample(1)
            self.spent += time.perf_counter() - start

    def start(self):
        self.active, self.samples, self.spent = True, [], 0.0
        signal.setitimer(signal.ITIMER_REAL, FIRST_TICK_S, TICK_S)

    def stop(self):
        """(samples, seconds the samples took) since start."""
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples, self.spent
