"""Split a 41-point ``kmusec sweep`` into survival-series and exact-SOP time.

    PYTHONPATH=src python benchmarks/bench_sweep_split.py [--reps N]

For each figure sweep of the figure_curves benchmark workload (the six
presets over ``gamma_bar_m_db`` from -10 to 30 dB, and the ``fig4`` rate
sweep from 0 to 2.5 nats at 10 dB), the pairs are built as ``cli.cmd_sweep``
builds them, then the sweep's survival series are timed two ways: one
``secrecy._survival`` call (the scalar kernel) per distinct (main, eve,
rate scale), as ``series_many`` summed them before it batched them
(``per_key_ms``), and ``series_many`` itself, one ``survival_series_many``
call (``series_many_ms``); the two must give equal results. The sweep's
exact SOPs (``sop_exact_many``) are timed too. The two series paths run in
alternating repetitions, which of them goes first alternating as well;
each figure is the median over ``--reps`` timed repetitions, after one
untimed warm-up, in ms, printed as JSON.
"""
import argparse
import json
import math
import statistics
import time

from kmusec import cli, secrecy
from kmusec.specfun import SeriesControl

SWEEPS = [(preset, "gamma_bar_m_db", -10.0, 30.0, None)
          for preset in ("fig4", "fig2-rice", "fig2-nakagami", "d2d", "ban", "v2v")]
SWEEPS.append(("fig4", "rate", 0.0, 2.5, 10.0))


def sweep_pairs(preset, variable, start, stop, gbar_m_db, steps=41):
    argv = ["sweep", "--preset", preset, "--variable", variable, "--start", str(start),
            "--stop", str(stop), "--steps", str(steps)]
    if gbar_m_db is not None:
        argv += ["--gbar-m-db", str(gbar_m_db)]
    args = cli.build_parser().parse_args(argv)
    spec = cli.SweepSpec(variable, start, stop, steps, cli.pair_from_args(args))
    return [spec.pair_at(value) for value in spec.grid()]


def per_key(pairs, ctl):
    """``series_many(pairs, ctl)`` with one scalar ``_survival`` call per
    distinct (main, eve, rate scale)."""
    survivals = {}

    def series(pair, scale, side):
        key = (pair.main, pair.eve, scale)
        if key not in survivals:
            survivals[key] = secrecy._survival(pair, scale, ctl)
        return secrecy._series_result(survivals[key], side)

    return [(series(pair, 1.0, 0), series(pair, math.exp(pair.rate), 1))
            for pair in pairs]


def alternating_ms(fns, reps):
    """Median ms of each of ``fns`` over ``reps`` rounds, after one untimed
    warm-up; each round runs them all, and the round's first one rotates."""
    for fn in fns:
        fn()  # warm-up: lazy imports, first-call costs
    times = [[] for _ in fns]
    for rep in range(reps):
        for i in range(len(fns)):
            i = (i + rep) % len(fns)
            t0 = time.perf_counter()
            fns[i]()
            times[i].append(time.perf_counter() - t0)
    return [1e3 * statistics.median(t) for t in times]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=11)
    args = parser.parse_args()
    ctl = SeriesControl()
    out = {}
    for preset, variable, start, stop, gbar_m_db in SWEEPS:
        pairs = sweep_pairs(preset, variable, start, stop, gbar_m_db)
        if per_key(pairs, ctl) != secrecy.series_many(pairs, ctl):
            raise SystemExit(f"{preset} {variable}: series_many differs from per-key calls")
        per_key_ms, series_many_ms = alternating_ms(
            [lambda: per_key(pairs, ctl), lambda: secrecy.series_many(pairs, ctl)],
            args.reps)
        out[f"{preset} {variable}"] = {
            "per_key_ms": per_key_ms, "series_many_ms": series_many_ms,
            "sop_exact_ms": alternating_ms([lambda: secrecy.sop_exact_many(pairs)],
                                           args.reps)[0]}
    out["total"] = {key: sum(v[key] for v in out.values())
                    for key in ("per_key_ms", "series_many_ms", "sop_exact_ms")}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
