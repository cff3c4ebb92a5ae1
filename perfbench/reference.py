"""Host-speed reference: rescales measured times to a fixed machine speed.

On a virtual machine that shares its host, this process runs at speeds that
drift by as much as half within seconds to minutes, so a raw 35-second wall
time can say more about the host's load than about brickpart. The benchmark
therefore times ``reference()``, a fixed piece of pure-Python work (integer
and dict operations plus ``Fraction`` arithmetic, the mix brickpart spends
its time in):

* ``PRE_SAMPLES`` times right before every timed operation and set-up, and
* every ``INTERVAL`` seconds while one runs, from a timer signal
  (``SpeedProbe``). The probe runs the work twice and keeps the time of the
  second run, so the caches the operation has just filled do not slow the
  sample; the time spent in the probe is taken off the operation's time.

A time ``t`` is reported as ``t * REFERENCE_S / r``, i.e. in seconds at the
speed where ``reference()`` takes ``REFERENCE_S``. For an operation that got
at least ``MIN_DURING`` samples while it ran, ``r`` is their mean: the
host's average speed over the operation. For a shorter one it is the median
of the samples taken right before it and before the operations on either
side of it, so one interrupted sample does not move it. The routine and the
constant belong to the benchmark, not to brickpart: a change to brickpart
moves ``t`` and leaves ``r`` alone, so a gain or loss shows in full. The raw
times are printed beside the rescaled ones.

Chosen on recordings of each workload on a 2-vCPU virtual machine (Python
3.11.7), cut into 35-s windows: the quartile spread of the window medians
fell from 0.20-0.35 of the median (raw) to 0.02-0.08, where sampling only
between operations left 0.08-0.14 on ``documents`` and ``search``, whose
operations last up to 2.5 s.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# seconds reference() takes at the reporting speed: about its time on the
# 2-vCPU virtual machine the baseline was measured on, so rescaled and raw
# times read alike there
REFERENCE_S = 0.00035
PRE_SAMPLES = 5
# samples during an operation needed to use their mean
MIN_DURING = 5
# seconds between samples during an operation: the probe costs about 2% of
# the time at this rate
INTERVAL = 0.05

_THIRD = Fraction(1, 3)


def reference() -> float:
    """Seconds taken by the fixed reference work."""
    start = perf_counter()
    total, seen = 0, {}
    for i in range(1500):
        total += i * i % 7
        seen[i & 511] = total
    acc = Fraction(0)
    for i in range(40):
        x = Fraction(i, 7)
        acc += x * _THIRD
        seen[x < acc] = acc
    return perf_counter() - start


def pre_samples() -> list[float]:
    return [reference() for _ in range(PRE_SAMPLES)]


class SpeedProbe:
    """While entered, samples ``reference()`` every ``INTERVAL`` seconds of
    wall time from SIGALRM; ``spent`` is the time the samples took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        reference()  # brings the reference's data back into the caches
        self.samples.append(reference())
        self.spent += perf_counter() - start

    def __enter__(self) -> SpeedProbe:
        self.samples, self.spent = [], 0.0
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)


def speed(around: list[float], during: list[float]) -> float:
    """Reference time standing for the host's speed over one timed interval."""
    if len(during) >= MIN_DURING:
        return statistics.fmean(during)
    return statistics.median(around + during)


def rescale(times: list[float], pre: list[list[float]], during: list[list[float]]) -> list[float]:
    """``times[i]`` at the reference speed; ``during[i]`` are the samples
    taken while it ran and ``pre[i]`` those taken right before it."""
    out = []
    for i, t in enumerate(times):
        around = [s for p in pre[max(0, i - 1) : i + 2] for s in p]
        out.append(t * REFERENCE_S / speed(around, during[i]))
    return out
