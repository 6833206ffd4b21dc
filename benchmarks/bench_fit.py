"""Time ``fit_kappa_mu`` on the three preset traces, split by layer, and count its density calls.

    PYTHONPATH=src python benchmarks/bench_fit.py [--reps N]

For each of the ``d2d``, ``ban`` and ``v2v`` presets, a trace of 1e5
envelope samples is drawn from the model (a fixed seed per preset) and
fitted ``--reps`` times after one untimed warm-up. Printed as JSON per
preset and in total: the median CPU time of one fit in ms
(``fit_cpu_ms``), the calls of the envelope density ``fading._density``
per fit (``density_calls``), the (kappa, mu) rows those calls evaluate
(``density_rows``, one per objective evaluation), the calls whose rows
all share one power-of-two shift of the Bessel series
(``single_shift_calls``, so one power table serves the call), the
elements handed to ``scipy.special.ive`` per fit (``ive_elements``), the
levels handed to ``fading._powers`` per fit, summed over the power tables
of the Bessel series (``power_elements``), and the fit's ``iterations``.
Calls and elements are counted by wrapping the module attributes
``fading._density``, ``scipy.special.ive`` and ``fading._powers``,
through which every density evaluation, every call of scipy's scaled
Bessel function and every power table goes.

A second set of ``--reps`` fits splits a fit's time by layer, as medians
of the wall time in ms spent in ``estimate._histogram_density``
(``histogram_ms``), in ``fading._density`` (``density_ms``) and in the
rest of ``estimate._simplex_runs``, the simplex searches and their
lockstep (``simplex_ms``). Those three are wrapped with timers, which
add about a microsecond per density call; ``fit_cpu_ms`` comes from
unwrapped fits. Every name wrapped exists in earlier checkouts too, so
the script runs unchanged against another checkout's ``src``.
"""
import argparse
import json
import math
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


def single_shift(kappa, mu, gbar):
    """Whether every (kappa, mu) row of a density call takes one
    power-of-two shift of the Bessel series, as ``fading._hyp0f1`` forms
    it from s = root^2."""
    shifts = {-math.frexp(root * root / (0.5 * fading._SERIES_RANGE) ** 2)[1]
              for root in (fading._row_constants(k, m, gbar)[3]
                           for k, m in zip(np.ravel(kappa).tolist(), np.ravel(mu).tolist()))}
    return len(shifts) == 1


def counted_fit(trace):
    """One fit, with the density calls and rows it made, the calls whose
    rows share one shift, the elements it handed to scipy's ive and the
    levels it built power tables of."""
    density, ive, powers = fading._density, special.ive, fading._powers
    calls = rows = single = elements = powered = 0

    def counting(kappa, mu, gbar, levels):
        nonlocal calls, rows, single
        calls += 1
        rows += np.shape(kappa)[0] if np.ndim(kappa) else 1
        single += single_shift(kappa, mu, gbar)
        return density(kappa, mu, gbar, levels)

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
    return fit, {"density_calls": calls, "density_rows": rows, "single_shift_calls": single,
                 "ive_elements": elements, "power_elements": powered}


def layer_split(trace):
    """One fit's wall seconds in the histogram, in the density and in all
    of the simplex searches, the density included."""
    spent = {"histogram": 0.0, "density": 0.0, "simplex": 0.0}
    wrapped = ((estimate, "_histogram_density", "histogram"),
               (fading, "_density", "density"), (estimate, "_simplex_runs", "simplex"))
    originals = [getattr(module, name) for module, name, _ in wrapped]

    def timed(fn, key):
        def call(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[key] += time.perf_counter() - t0
        return call

    for (module, name, key), fn in zip(wrapped, originals):
        setattr(module, name, timed(fn, key))
    try:
        estimate.fit_kappa_mu(trace)
    finally:
        for (module, name, _), fn in zip(wrapped, originals):
            setattr(module, name, fn)
    return spent


def median_ms(seconds):
    return 1e3 * statistics.median(seconds)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=11)
    args = parser.parse_args()
    out = {}
    for preset, seed in TRACES.items():
        params = KappaMuParams(PRESETS[preset]["km"], PRESETS[preset]["um"], 1.0)
        trace = estimate.sample_envelope(params, SAMPLES, seed)
        fit, counts = counted_fit(trace)  # warm-up: lazy imports
        times = []
        for _ in range(args.reps):
            t0 = time.process_time()
            estimate.fit_kappa_mu(trace)
            times.append(time.process_time() - t0)
        splits = [layer_split(trace) for _ in range(args.reps)]
        out[preset] = {"fit_cpu_ms": median_ms(times), **counts, "iterations": fit.iterations,
                       "histogram_ms": median_ms([t["histogram"] for t in splits]),
                       "density_ms": median_ms([t["density"] for t in splits]),
                       "simplex_ms": median_ms([t["simplex"] - t["density"] for t in splits])}
    out["total"] = {key: sum(v[key] for v in out.values()) for key in out["d2d"]}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
