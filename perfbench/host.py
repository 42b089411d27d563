"""Host speed: a calibration loop, CPU pinning and speed sampling.

On the shared 2-CPU hosts this benchmark was built on, each CPU runs
about 1.6 times slower for seconds to minutes at a time, and the two
CPUs do so independently.  So every timed step of the benchmark

* runs on the CPU that runs the calibration loop fastest just before it;
* has the calibration loop timed before it, after it and, from a timer
  signal, every SAMPLE_PERIOD_S seconds while it runs;
* is reported both as measured and rescaled to a quiet CPU, by the
  mean ratio of QUIET_CALIB_S to those calibration times.

The calibration times are part of the result, so a slow host shows in
the data instead of passing for a regression.  The loop does not use
vkplate, so no change to the package changes its time.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

#: calibrate() on a quiet CPU of the host this benchmark was defined on
#: (2-core Xeon VM, Python 3.11.7, numpy 2.4.6).
QUIET_CALIB_S = 0.0012
SAMPLE_PERIOD_S = 0.1
#: Calibrations before and after each step, and per CPU when choosing one.
BRACKET = 3

_X = np.linspace(0.0, 1.0, 60)
_Y = np.linspace(1.0, 2.0, 40)


def calibrate() -> float:
    """Seconds for a fixed loop of small numpy calls.

    The loop does what the solver's hot path does, in miniature: short
    convolutions and canonicalizing their result.
    """
    start = time.perf_counter()
    for i in range(250):
        c = np.convolve(_X * (1.0 + i * 1e-6), _Y)
        nz = np.nonzero(np.abs(c) > 1e-300)[0]
        np.ascontiguousarray(c[: int(nz[-1]) + 1])
    return time.perf_counter() - start


def pin_fastest(cpus):
    """Pin this process to the CPU of ``cpus`` that runs calibrate() fastest now."""
    speeds = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = statistics.median(calibrate() for _ in range(BRACKET))
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})


def timed(step, cpus, sample=True):
    """Run ``step()`` on the fastest CPU of ``cpus``.

    Returns (result, seconds, normalized seconds, calibrations).
    ``seconds`` is the step's wall time without the calibrations taken
    during it; normalized seconds rescale it to a quiet CPU.  A step that
    waits for a child process on the same CPU passes ``sample=False``, so
    that no calibration competes with the child.
    """
    pin_fastest(cpus)
    calibs = [calibrate() for _ in range(BRACKET)]
    during = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: during.append(calibrate()))
    if sample:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        start = time.perf_counter()
        result = step()
        seconds = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
    seconds -= sum(during)
    calibs += during + [calibrate() for _ in range(BRACKET)]
    normalized = seconds * statistics.fmean(QUIET_CALIB_S / c for c in calibs)
    return result, seconds, normalized, calibs
