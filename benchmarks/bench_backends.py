#!/usr/bin/env python3
"""Time the pure-Python kernels on four micro-loops.

The hot paths on representative workloads: the Marcum-Q series
(distribution evaluations), the survival double series at one metric
point, a 41-point mean-SNR sweep of it, and a fixed seeded grid of it
over the analytic_grid benchmark workload's box. The survival calls put
the channel with the larger rate first, as every library call does:

    python benchmarks/bench_backends.py

prints, per loop, the median milliseconds of one loop call over its
repetitions (5 to 200), each timed alone after one untimed warm-up call:
a mean over the calls moved with every pause of a shared host. The
checkout's ``src`` is appended to the import path, so a ``kmusec``
already on it comes first.
"""
import math
import os
import random
import statistics
import sys
import time

import numpy as np

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "src"))

from kmusec import _pykernels  # noqa: E402

# the compiled twin is retired; kmubench/twin.py still reads this name
_ckernels = None


def median_call(fn, repeat):
    """Median seconds of one ``fn()`` over ``repeat`` calls, after one
    untimed warm-up call."""
    fn()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def marcum_workload(k):
    betas = np.linspace(0.01, 8.0, 400)
    def run():
        for b in betas:
            k.marcum_q_series(1.4, 2.3, float(b))
    return run


def survival_point(k):
    # D2D-style channels at a 13 dB mean-SNR ratio, summed from the
    # eavesdropper's side, whose rate is the larger
    def run():
        k.survival_series(0.92, 0.91, 1.0212, 0.9737, 1.9412, 0.0471)
    return run


def survival_sweep(k):
    # fig2-rice shape swept over -10..30 dB; from about 1 dB on the main
    # channel's rate is the smaller, and the eavesdropper's side is summed
    points = []
    for g in 10.0 ** (np.linspace(-10.0, 30.0, 41) / 10.0):
        beta_m = 16.0 / float(g)
        points.append((1.0, 1.0, 15.0, 12.0, beta_m, 13.0) if beta_m >= 13.0
                      else (1.0, 1.0, 12.0, 15.0, 13.0, beta_m))
    def run():
        for args in points:
            k.survival_series(*args)
    return run


def survival_grid(k):
    # 60 seeded rows over the analytic_grid workload's box: kappa 0.2..12
    # (log-uniform) and mu 0.5..3 per side, the main mean SNR -10..50 dB
    # against 0 dB, and the main rate scaled by e^R, R in 0..2 nats, as
    # SOP^L scales it
    rng = random.Random(26)
    rows = []
    for _ in range(60):
        km, ke = (math.exp(rng.uniform(math.log(0.2), math.log(12.0))) for _ in range(2))
        um, ue = (rng.uniform(0.5, 3.0) for _ in range(2))
        gbar_m = 10.0 ** (rng.uniform(-10.0, 50.0) / 10.0) / math.exp(rng.uniform(0.0, 2.0))
        main = (um, km * um, (1.0 + km) * um / gbar_m)
        eve = (ue, ke * ue, (1.0 + ke) * ue)
        first, second = (main, eve) if main[2] >= eve[2] else (eve, main)
        rows.append((first[0], second[0], first[1], second[1], first[2], second[2]))
    def run():
        for args in rows:
            k.survival_series(*args)
    return run


def main():
    workloads = [
        ("marcum_q x400", marcum_workload, 20),
        ("survival point", survival_point, 200),
        ("survival sweep x41", survival_sweep, 10),
        ("survival grid x60", survival_grid, 5),
    ]
    print(f"{'workload':<22}{'python':>12}")
    for name, make, repeat in workloads:
        t_py = median_call(make(_pykernels), repeat)
        print(f"{name:<22}{t_py * 1e3:>10.3f}ms")


if __name__ == "__main__":
    main()
