"""Time ``fit_kappa_mu`` on the three preset traces and count its density calls.

    PYTHONPATH=src python benchmarks/bench_fit.py [--reps N]

For each of the ``d2d``, ``ban`` and ``v2v`` presets, a trace of 1e5
envelope samples is drawn from the model (a fixed seed per preset) and
fitted ``--reps`` times after one untimed warm-up. Printed as JSON per
preset and in total: the median CPU time of one fit in ms
(``fit_cpu_ms``), the calls of the envelope density ``fading._density``
per fit (``density_calls``), the (kappa, mu) rows those calls evaluate
(``density_rows``, one per objective evaluation), the elements handed
to ``scipy.special.ive`` per fit (``ive_elements``), the levels handed to
``fading._powers`` per fit, summed over the power tables of the Bessel
series (``power_elements``), and the fit's ``iterations``. Calls and
elements are counted by wrapping the module attributes ``fading._density``,
``scipy.special.ive`` and ``fading._powers``, through which every density
evaluation, every call of scipy's scaled Bessel function and every power
table goes, so the script runs unchanged against another checkout's
``src``.
"""
import argparse
import json
import statistics
import time

import numpy as np
from scipy import special

from kmusec import estimate, fading
from kmusec.cli import PRESETS
from kmusec.fading import KappaMuParams

#: preset -> seed of its trace
TRACES = {"d2d": 301, "ban": 302, "v2v": 303}
SAMPLES = 100_000


def counted_fit(trace):
    """One fit, with the density calls and rows it made, the elements it
    handed to scipy's ive and the levels it built power tables of."""
    density, ive, powers = fading._density, special.ive, fading._powers
    calls = rows = elements = powered = 0

    def counting(kappa, *args):
        nonlocal calls, rows
        calls += 1
        rows += np.shape(kappa)[0] if np.ndim(kappa) else 1
        return density(kappa, *args)

    def counting_ive(v, x):
        nonlocal elements
        elements += np.broadcast(v, x).size
        return ive(v, x)

    def counting_powers(u):
        nonlocal powered
        powered += np.size(u)
        return powers(u)

    fading._density, special.ive, fading._powers = counting, counting_ive, counting_powers
    try:
        fit = estimate.fit_kappa_mu(trace)
    finally:
        fading._density, special.ive, fading._powers = density, ive, powers
    return fit, calls, rows, elements, powered


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=11)
    args = parser.parse_args()
    out = {}
    for preset, seed in TRACES.items():
        params = KappaMuParams(PRESETS[preset]["km"], PRESETS[preset]["um"], 1.0)
        trace = estimate.sample_envelope(params, SAMPLES, seed)
        fit, calls, rows, elements, powered = counted_fit(trace)  # warm-up: lazy imports
        times = []
        for _ in range(args.reps):
            t0 = time.process_time()
            estimate.fit_kappa_mu(trace)
            times.append(time.process_time() - t0)
        out[preset] = {"fit_cpu_ms": 1e3 * statistics.median(times),
                       "density_calls": calls, "density_rows": rows,
                       "ive_elements": elements, "power_elements": powered,
                       "iterations": fit.iterations}
    out["total"] = {key: sum(v[key] for v in out.values())
                    for key in ("fit_cpu_ms", "density_calls", "density_rows",
                                "ive_elements", "power_elements", "iterations")}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
