"""Time ``fit_kappa_mu`` on the three preset traces and count its density calls.

    PYTHONPATH=src python benchmarks/bench_fit.py [--reps N]

For each of the ``d2d``, ``ban`` and ``v2v`` presets, a trace of 1e5
envelope samples is drawn from the model (a fixed seed per preset) and
fitted ``--reps`` times after one untimed warm-up. Printed as JSON per
preset and in total: the median CPU time of one fit in ms
(``fit_cpu_ms``), the calls of the envelope density ``fading._density``
per fit (``density_calls``), the (kappa, mu) rows those calls evaluate
(``density_rows``, one per objective evaluation) and the fit's
``iterations``. The calls are counted by wrapping the module attribute,
through which every density evaluation goes, so the script runs
unchanged against another checkout's ``src``.
"""
import argparse
import json
import statistics
import time

import numpy as np

from kmusec import estimate, fading
from kmusec.cli import PRESETS
from kmusec.fading import KappaMuParams

#: preset -> seed of its trace
TRACES = {"d2d": 301, "ban": 302, "v2v": 303}
SAMPLES = 100_000


def counted_fit(trace):
    """One fit, with the density calls and rows it made."""
    density = fading._density
    calls = rows = 0

    def counting(kappa, *args):
        nonlocal calls, rows
        calls += 1
        rows += np.shape(kappa)[0] if np.ndim(kappa) else 1
        return density(kappa, *args)

    fading._density = counting
    try:
        fit = estimate.fit_kappa_mu(trace)
    finally:
        fading._density = density
    return fit, calls, rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=11)
    args = parser.parse_args()
    out = {}
    for preset, seed in TRACES.items():
        params = KappaMuParams(PRESETS[preset]["km"], PRESETS[preset]["um"], 1.0)
        trace = estimate.sample_envelope(params, SAMPLES, seed)
        fit, calls, rows = counted_fit(trace)  # warm-up: lazy imports
        times = []
        for _ in range(args.reps):
            t0 = time.process_time()
            estimate.fit_kappa_mu(trace)
            times.append(time.process_time() - t0)
        out[preset] = {"fit_cpu_ms": 1e3 * statistics.median(times),
                       "density_calls": calls, "density_rows": rows,
                       "iterations": fit.iterations}
    out["total"] = {key: sum(v[key] for v in out.values())
                    for key in ("fit_cpu_ms", "density_calls", "density_rows", "iterations")}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
