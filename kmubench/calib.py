"""Machine-speed calibration for the benchmark's timings.

The hosts this benchmark runs on may be shared, and their speed drifts
by tens of percent over seconds to minutes. So every timing of the ops
(import times have calibration probes of their own, in ``run.py``) is taken
together with runs of a fixed calibration loop (:func:`spin`) made at
about the same moment, and is reported at a reference speed: the
measured time times the loop's reference time over its measured mean
time. On a host whose speed changes, both move together and the
reported figure stays put; a faster library shows in full, because the
loop does not touch it.

The loop does the kind of work the timed code does, since a slow host
slows kinds of work unequally: ``python`` is interpreted float
arithmetic with ``math`` calls, like the library's kernels; ``numpy``
is Poisson and gamma draws, like the Monte Carlo sampler.
"""
import functools
import math
import time

#: the loop's time at the reference speed, per kind (about its time on a
#: 2.1 GHz Xeon vCPU when the host is quiet)
REFERENCE_S = {"python": 4e-4, "numpy": 4e-4}
#: calibration time kept at this share of the work time it calibrates
SHARE = 0.025


def _python_loop():
    x, s = 0.3, 0.0
    for k in range(1, 1500):
        x = x * 1.0001 + 0.5 / k
        s += math.exp(-x) * math.log(x + k)


@functools.cache
def _generator():
    import numpy as np  # here, so that the import probes time it themselves

    return np.random.Generator(np.random.Philox(key=0))


def _numpy_loop():
    rng = _generator()
    rng.gamma(shape=1.2 + rng.poisson(3.0, size=4000), scale=2.0)


_LOOPS = {"python": _python_loop, "numpy": _numpy_loop}


def spin(kind="python"):
    """Run the calibration loop of ``kind`` once; returns its duration in
    seconds."""
    loop = _LOOPS[kind]
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


class Clock:
    """Calibration interleaved with timed work: after each piece of work
    :meth:`after` spins until spin time is SHARE of the work time."""

    def __init__(self, kind="python"):
        self.kind = kind
        self.work_s = 0.0
        self.spin_s = 0.0
        self.spins = 0

    def after(self, work_s):
        self.work_s += work_s
        while self.spins == 0 or self.spin_s < SHARE * self.work_s:
            self.spin_s += spin(self.kind)
            self.spins += 1

    def scale(self):
        """Factor that takes a time measured since this clock started to
        the reference speed."""
        return REFERENCE_S[self.kind] * self.spins / self.spin_s


def median_scale(spins, kind="python"):
    """Reference-speed factor from a run of ``spins`` calibration loops."""
    times = sorted(spin(kind) for _ in range(spins))
    return REFERENCE_S[kind] / times[len(times) // 2]
