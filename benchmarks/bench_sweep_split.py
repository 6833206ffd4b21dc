"""Split a 41-point ``kmusec sweep`` into survival-series and exact-SOP time.

    PYTHONPATH=src python benchmarks/bench_sweep_split.py [--reps N]

For each figure sweep of the figure_curves benchmark workload (the six
presets over ``gamma_bar_m_db`` from -10 to 30 dB, and the ``fig4`` rate
sweep from 0 to 2.5 nats at 10 dB), the pairs are built as ``cli.cmd_sweep``
builds them, then the sweep's two batched calls are timed apart: its
survival series (``series_many``) and its exact SOPs (``sop_exact_many``).
Each part's median over ``--reps`` timed repetitions, after one untimed
warm-up, is printed in ms as JSON. Run it against another checkout's
``src`` to compare the two; the checkout must have both calls.
"""
import argparse
import json
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


def median_ms(fn, reps):
    fn()  # warm-up: lazy imports, first-call costs
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=11)
    args = parser.parse_args()
    ctl = SeriesControl()
    out = {}
    for preset, variable, start, stop, gbar_m_db in SWEEPS:
        pairs = sweep_pairs(preset, variable, start, stop, gbar_m_db)
        out[f"{preset} {variable}"] = {
            "series_ms": median_ms(lambda: secrecy.series_many(pairs, ctl), args.reps),
            "sop_exact_ms": median_ms(lambda: secrecy.sop_exact_many(pairs), args.reps),
        }
    out["total"] = {key: sum(v[key] for v in out.values())
                    for key in ("series_ms", "sop_exact_ms")}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
