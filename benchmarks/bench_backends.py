#!/usr/bin/env python3
"""Time the pure-Python kernels on three micro-loops.

The hot paths on representative workloads: the Marcum-Q series
(distribution evaluations), the survival double series at one metric
point, and a 41-point mean-SNR sweep of it. The survival calls put the
channel with the larger rate first, as every library call does:

    python benchmarks/bench_backends.py

prints the mean milliseconds per loop. The checkout's ``src`` is
appended to the import path, so a ``kmusec`` already on it comes first.
"""
import os
import sys
import time

import numpy as np

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "src"))

from kmusec import _pykernels  # noqa: E402

# the compiled twin is retired; kmubench/twin.py still reads this name
_ckernels = None


def time_call(fn, repeat):
    t0 = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - t0) / repeat


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


def main():
    workloads = [
        ("marcum_q x400", marcum_workload, 20),
        ("survival point", survival_point, 200),
        ("survival sweep x41", survival_sweep, 10),
    ]
    print(f"{'workload':<22}{'python':>12}")
    for name, make, repeat in workloads:
        t_py = time_call(make(_pykernels), repeat)
        print(f"{name:<22}{t_py * 1e3:>10.3f}ms")


if __name__ == "__main__":
    main()
