#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python twin.

Times the three hot paths on representative workloads: the Marcum-Q
series (distribution evaluations), the survival double series (one
metric point), and a 41-point mean-SNR sweep. Run from a checkout with
the extension built (``python setup.py build_ext --inplace`` compiles the
shipped ``_ckernels.c``; Cython is not needed):

    python benchmarks/bench_backends.py

The checkout's ``src`` is appended to the import path, so a ``kmusec``
already on it (a copy with the compiled kernels, say) comes first.
"""
import os
import sys
import time

import numpy as np

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "src"))

from kmusec import _pykernels  # noqa: E402

try:
    from kmusec import _ckernels
except ImportError:
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
    # D2D-style channels at a 13 dB mean-SNR ratio
    def run():
        k.survival_series(0.91, 0.92, 0.9737, 1.0212, 0.0471, 1.9412)
    return run


def survival_sweep(k):
    # fig2-rice shape swept over -10..30 dB
    gbars = 10.0 ** (np.linspace(-10.0, 30.0, 41) / 10.0)
    def run():
        for g in gbars:
            k.survival_series(1.0, 1.0, 15.0, 12.0, 16.0 / float(g), 13.0)
    return run


def main():
    workloads = [
        ("marcum_q x400", marcum_workload, 20),
        ("survival point", survival_point, 200),
        ("survival sweep x41", survival_sweep, 10),
    ]
    print(f"{'workload':<22}{'python':>12}{'compiled':>12}{'speedup':>10}")
    for name, make, repeat in workloads:
        t_py = time_call(make(_pykernels), repeat)
        if _ckernels is not None:
            t_c = time_call(make(_ckernels), repeat)
            print(f"{name:<22}{t_py * 1e3:>10.3f}ms{t_c * 1e3:>10.3f}ms"
                  f"{t_py / t_c:>9.1f}x")
        else:
            print(f"{name:<22}{t_py * 1e3:>10.3f}ms{'n/a':>12}{'':>10}")
    if _ckernels is None:
        print("\ncompiled backend unavailable; compile the shipped "
              "_ckernels.c with 'python setup.py build_ext --inplace'")


if __name__ == "__main__":
    main()
