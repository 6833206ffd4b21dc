"""Command-line interface.

Subcommands: ``spsc`` and ``sop`` evaluate one metric, ``sweep`` writes
figure-style curve data as CSV, ``validate`` runs the oracle triangle
(series vs closed form vs quadrature vs Monte Carlo), ``fit`` estimates
(kappa, mu) from an envelope trace.

stdout carries data, stderr diagnostics. Exit codes: 0 ok, 2 bad
usage/input, 3 non-convergence, 4 validation failure.
"""
import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from kmusec import estimate as est_mod
from kmusec import fading, montecarlo, secrecy
from kmusec.errors import ConvergenceError, PrecisionError, QuadratureError
from kmusec.fading import KappaMuParams, integer_mu
from kmusec.secrecy import EvalResult, WiretapPair
from kmusec.specfun import SeriesControl

SCHEMA = 1

#: caption and measured parameter sets, reusable as CLI scenarios
PRESETS = {
    "fig2-rice": dict(km=15.0, um=1.0, ke=12.0, ue=1.0),
    "fig2-nakagami": dict(km=0.0, um=2.0, ke=0.0, ue=2.0),
    "fig2-rayleigh": dict(km=0.0, um=1.0, ke=0.0, ue=1.0),
    # "1 dB" target rate read as 10^(1/10) nats; see the sop docs
    "fig4": dict(km=4.0, um=1.4, ke=2.0, ue=1.2, rate_nats=10 ** 0.1),
    "d2d": dict(km=1.07, um=0.91, ke=1.11, ue=0.92),
    "ban": dict(km=2.92, um=0.75, ke=3.60, ue=0.67),
    "v2v": dict(km=5.02, um=0.70, ke=7.17, ue=0.60),
}
# parameter-free scenario tags double as presets
PRESETS["rayleigh"] = PRESETS["fig2-rayleigh"]
PRESETS["one_sided_gaussian"] = dict(km=0.0, um=0.5, ke=0.0, ue=0.5)


class SweepVariable(NamedTuple):
    """What a sweep variable sets, and the trend the curves must follow
    as it increases: +1 nondecreasing, -1 nonincreasing, 0 not checked.

    Only laws of the model carry a trend. A shape parameter has none: a
    steadier eavesdropper (larger kappa_e or mu_e) can raise SPSC when the
    main link is the stronger one, and a steadier main link can lower it
    when the eavesdropper is the stronger one."""

    channel: str | None  # "main" or "eve"; None sets a field of the pair
    field: str
    in_db: bool
    trend: tuple  # (spsc, sop)


SWEEP_VARIABLES = {
    "gamma_bar_m_db": SweepVariable("main", "gamma_bar", True, (+1, -1)),
    "gamma_bar_e_db": SweepVariable("eve", "gamma_bar", True, (-1, +1)),
    "kappa_m": SweepVariable("main", "kappa", False, (0, 0)),
    "kappa_e": SweepVariable("eve", "kappa", False, (0, 0)),
    "mu_m": SweepVariable("main", "mu", False, (0, 0)),
    "mu_e": SweepVariable("eve", "mu", False, (0, 0)),
    "rate": SweepVariable(None, "rate", False, (0, +1)),
}


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for one swept variable around a fixed baseline
    pair; dB-valued variables are converted to linear per point."""

    variable: str
    start: float
    stop: float
    steps: int
    fixed: WiretapPair

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        for flag, bound in (("--start", self.start), ("--stop", self.stop)):
            if not math.isfinite(bound):
                raise ValueError(f"{flag} must be finite, got {bound}")
        if self.steps < 2:
            raise ValueError("steps must be at least 2")
        if not self.start < self.stop:
            raise ValueError("start must be below stop")

    def grid(self):
        return np.linspace(self.start, self.stop, self.steps)

    def pair_at(self, value):
        var = SWEEP_VARIABLES[self.variable]
        value = float(value)
        if var.in_db:
            value = db_to_linear(value)
        if var.channel is None:
            return replace(self.fixed, **{var.field: value})
        channel = getattr(self.fixed, var.channel)
        return replace(self.fixed, **{var.channel: replace(channel, **{var.field: value})})


def db_to_linear(db):
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{db} dB is beyond the range of a double") from None


def _add_channel_args(p):
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named parameter set; explicit flags override it")
    p.add_argument("--km", type=float, help="main-channel kappa")
    p.add_argument("--um", type=float, help="main-channel mu")
    p.add_argument("--ke", type=float, help="eavesdropper kappa")
    p.add_argument("--ue", type=float, help="eavesdropper mu")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--gbar-m-db", type=float, help="main mean SNR in dB (default 0)")
    g.add_argument("--gbar-m-linear", type=float, help="main mean SNR, linear")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--gbar-e-db", type=float, help="eavesdropper mean SNR in dB (default 0)")
    g.add_argument("--gbar-e-linear", type=float, help="eavesdropper mean SNR, linear")


def _add_rate_args(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--rate-nats", type=float, help="target secrecy rate in nats")
    g.add_argument("--rate-bits", type=float, help="target secrecy rate in bits")


def _add_series_args(p):
    p.add_argument("--abs-tol", type=float, default=1e-12)
    p.add_argument("--max-terms", type=int, default=10000)


def _add_single_args(p):
    p.add_argument("--mc-n", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _control(args):
    return SeriesControl(abs_tol=args.abs_tol, max_terms=args.max_terms)


def _gbar(db, linear):
    if linear is not None:
        return linear
    return db_to_linear(db if db is not None else 0.0)


def _resolve_rate(args, preset):
    if getattr(args, "rate_nats", None) is not None:
        return args.rate_nats
    bits = getattr(args, "rate_bits", None)
    if bits is not None:
        # refused in the unit given; below this bound the rate in nats is
        # within the one WiretapPair checks, as 1024 ln 2 rounds to it
        bound = secrecy._MAX_RATE / math.log(2.0)
        if not 0.0 <= bits <= bound:
            raise ValueError(f"rate must be between 0 and {bound!r} bits, where e^rate "
                             f"is a double, got {bits}")
        return bits * math.log(2.0)
    if preset and "rate_nats" in preset:
        return preset["rate_nats"]
    return 0.0


def pair_from_args(args):
    preset = PRESETS[args.preset] if getattr(args, "preset", None) else {}
    km = args.km if args.km is not None else preset.get("km")
    um = args.um if args.um is not None else preset.get("um")
    ke = args.ke if args.ke is not None else preset.get("ke")
    ue = args.ue if args.ue is not None else preset.get("ue")
    if None in (km, um, ke, ue):
        raise ValueError("channel shape parameters missing: give --km/--um/--ke/--ue "
                         "or a --preset")
    main = KappaMuParams(km, um, _gbar(args.gbar_m_db, args.gbar_m_linear))
    eve = KappaMuParams(ke, ue, _gbar(args.gbar_e_db, args.gbar_e_linear))
    return WiretapPair(main=main, eve=eve, rate=_resolve_rate(args, preset))


def _mc_result(mc):
    return EvalResult(value=mc.estimate, terms_k=mc.n, terms_l=0,
                      est_error=mc.std_error, method="monte_carlo")


def _spsc_by_method(pair, method, args):
    ctl = _control(args)
    if method == "auto":
        # below KAPPA_MIN_CLOSED_FORM the closed form hands over to the
        # series, which takes kappa = 0 exactly; auto takes the series too
        # where the closed form leaves double precision (an integer mu of 500)
        if integer_mu(pair.main.mu) and integer_mu(pair.eve.mu):
            try:
                return secrecy.spsc_closed_form(pair, ctl)
            except PrecisionError:
                pass
        method = "series"
    if method == "series":
        return secrecy.spsc_series(pair, ctl)
    if method == "closed":
        return secrecy.spsc_closed_form(pair, ctl)
    if method == "quadrature":
        base = secrecy.sop_exact(WiretapPair(pair.main, pair.eve, 0.0))
        return EvalResult(value=min(max(1.0 - base.value, 0.0), 1.0),
                          terms_k=base.terms_k, terms_l=0,
                          est_error=base.est_error, method="quadrature")
    if method == "mc":
        return _mc_result(montecarlo.mc_spsc(pair, args.mc_n, args.seed))
    raise ValueError(f"unknown method {method!r}")


def _pair_record(pair):
    return {
        "main": {"kappa": pair.main.kappa, "mu": pair.main.mu,
                 "gamma_bar": pair.main.gamma_bar},
        "eve": {"kappa": pair.eve.kappa, "mu": pair.eve.mu,
                "gamma_bar": pair.eve.gamma_bar},
        "rate_nats": pair.rate,
    }


def _emit_record(args, metric, result, pair):
    rec = {
        "schema": SCHEMA,
        "metric": metric,
        "value": result.value,
        "method": result.method,
        "terms_k": result.terms_k,
        "terms_l": result.terms_l,
        "est_error": result.est_error,
        "params": _pair_record(pair),
    }
    if args.format == "json":
        print(json.dumps(rec))
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["metric", "value", "method", "terms_k", "terms_l", "est_error"])
        w.writerow([metric, repr(result.value), result.method,
                    result.terms_k, result.terms_l, repr(result.est_error)])
        sys.stdout.write(buf.getvalue())


def cmd_spsc(args):
    pair = pair_from_args(args)
    result = _spsc_by_method(pair, args.method, args)
    _emit_record(args, "spsc", result, pair)
    return 0


def cmd_sop(args):
    pair = pair_from_args(args)
    if args.method == "mc":
        exact, lower = montecarlo.mc_sop_both(pair, args.mc_n, args.seed)
        result = _mc_result(lower if args.bound == "lower" else exact)
    elif args.bound == "lower":
        result = secrecy.sop_lower(pair, _control(args))
    else:
        result = secrecy.sop_exact(pair)
    _emit_record(args, f"sop_{args.bound}", result, pair)
    return 0


def _check_monotone(variable, spsc_vals, sop_vals, tol=1e-9):
    d_spsc, d_sop = SWEEP_VARIABLES[variable].trend
    problems = []
    for name, vals, d in (("spsc", spsc_vals, d_spsc),
                          ("sop", sop_vals, d_sop)):
        if d == 0:
            continue
        for i in range(1, len(vals)):
            step = (vals[i] - vals[i - 1]) * d
            if step < -tol:
                problems.append(f"{name} not monotone at grid index {i}")
    return problems


def cmd_sweep(args):
    spec = SweepSpec(variable=args.variable, start=args.start, stop=args.stop,
                     steps=args.steps, fixed=pair_from_args(args))
    ctl = _control(args)
    header = ["variable", "value", "spsc", "sop_exact", "sop_lower"]
    if args.with_mc:
        header += ["mc_spsc", "mc_spsc_se", "mc_sop_exact", "mc_sop_exact_se",
                   "mc_sop_lower", "mc_sop_lower_se"]
    grid = spec.grid()
    if args.with_mc:
        # point i draws from seed + i
        montecarlo.check_seeds(args.seed, len(grid))
    pairs = [spec.pair_at(value) for value in grid]
    series = secrecy.series_many(pairs, ctl)
    spsc_vals = [spsc.value for spsc, _ in series]
    sopl_vals = [sopl.value for _, sopl in series]
    sop_vals = [r.value for r in secrecy.sop_exact_many(pairs)]
    rows = []
    for i, (value, pair) in enumerate(zip(grid, pairs)):
        row = [args.variable, repr(float(value)), repr(spsc_vals[i]),
               repr(sop_vals[i]), repr(sopl_vals[i])]
        if args.with_mc:
            for mc in montecarlo.mc_all(pair, args.with_mc, args.seed + i):
                row += [repr(mc.estimate), repr(mc.std_error)]
        rows.append(row)

    problems = []
    if args.assert_monotone:
        problems = _check_monotone(args.variable, spsc_vals, sop_vals)
        for p in problems:
            print(f"monotonicity violation: {p}", file=sys.stderr)

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    text = buf.getvalue()
    if args.output:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)
    return 4 if problems else 0


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kmusec-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_VALIDATE_INTEGER_SMALL = [
    (2.0, 1, 1.0, 1, 0.5), (2.0, 1, 1.0, 1, 2.0),
    (6.0, 2, 3.0, 1, 1.0), (6.0, 2, 3.0, 3, 2.0),
    (15.0, 1, 12.0, 1, 1.0), (4.0, 2, 2.0, 3, 0.5),
    (1.0, 3, 2.0, 2, 2.0), (8.0, 1, 1.0, 2, 4.0),
]

_VALIDATE_NONINT = [
    (1.07, 0.91, 1.11, 0.92, 2.0),
    (4.0, 1.4, 2.0, 1.2, 5.0),
    (2.92, 0.75, 3.60, 0.67, 1.0),
    (5.02, 0.70, 7.17, 0.60, 0.5),
]


def _validate_grid(which):
    configs = list(_VALIDATE_INTEGER_SMALL)
    if which == "full":
        for km in (1.0, 4.0, 10.0):
            for mu_m in (1, 2, 3):
                for b in (0.5, 1.0, 4.0):
                    configs.append((km, mu_m, 2.0, 2, b))
    return configs, list(_VALIDATE_NONINT)


def cmd_validate(args):
    ctl = SeriesControl()
    integer_cfgs, nonint_cfgs = _validate_grid(args.grid)
    rates = (0.5, 10 ** 0.1)  # besides rate 0

    pairs = [WiretapPair(KappaMuParams(km, float(um), b), KappaMuParams(ke, float(ue), 1.0))
             for km, um, ke, ue, b in integer_cfgs + nonint_cfgs]
    # pair idx draws from seed + idx
    montecarlo.check_seeds(args.seed, len(pairs))
    rated = [WiretapPair(pair.main, pair.eve, rate) for pair in pairs for rate in rates]
    # every exact SOP and series, rate 0 first, each in one batch
    sop_x = [r.value for r in secrecy.sop_exact_many(pairs + rated)]
    series = secrecy.series_many(pairs + rated, ctl)
    min_gap = min(x - sop_l.value for x, (_, sop_l) in zip(sop_x, series))
    max_closed = 0.0
    max_mc = -math.inf
    max_quad = 0.0
    max_comp = 0.0
    for idx, pair in enumerate(pairs):
        s, sop_l = (r.value for r in series[idx])
        if args.self_test_break:
            s += 1e-6
        if idx < len(integer_cfgs):
            c = secrecy.spsc_closed_form(pair).value
            max_closed = max(max_closed, abs(s - c))
        max_quad = max(max_quad, abs(s - (1.0 - sop_x[idx])))
        mc = montecarlo.mc_spsc(pair, args.mc_n, args.seed + idx)
        max_mc = max(max_mc, abs(s - mc.estimate) - 3.0 * mc.std_error)
        max_comp = max(max_comp, abs(sop_l + s - 1.0))

    checks = [
        {"name": "series_vs_closed_form", "max_abs_diff": max_closed,
         "tolerance": 1e-8, "pass": max_closed <= 1e-8},
        {"name": "series_vs_quadrature", "max_abs_diff": max_quad,
         "tolerance": 1e-6, "pass": max_quad <= 1e-6},
        {"name": "series_vs_monte_carlo_3se", "max_excess": max_mc,
         "tolerance": 0.0, "pass": max_mc <= 0.0},
        {"name": "complement_identity_rate0", "max_abs_diff": max_comp,
         "tolerance": 1e-8, "pass": max_comp <= 1e-8},
        {"name": "bound_ordering", "min_gap": min_gap,
         "tolerance": -1e-9, "pass": min_gap >= -1e-9},
    ]
    ok = all(c["pass"] for c in checks)
    print(json.dumps({"schema": SCHEMA, "grid": args.grid,
                      "mc_n": args.mc_n, "checks": checks, "pass": ok}))
    return 0 if ok else 4


def cmd_fit(args):
    try:
        trace = est_mod.read_trace(args.trace)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read trace: {exc}") from exc
    if args.input_kind == "power":
        trace = est_mod.EnvelopeTrace(np.sqrt(trace.samples))
    if args.window:
        trace = est_mod.local_mean_normalize(trace, args.window)
    try:
        result = est_mod.fit_kappa_mu(trace, args.bin_width)
    except est_mod.BinWidthError as exc:
        raise ValueError(f"{exc} (--bin-width)") from exc
    print(json.dumps({
        "schema": SCHEMA,
        "kappa_hat": result.kappa_hat,
        "mu_hat": result.mu_hat,
        "r_hat": result.r_hat,
        "residual": result.residual,
        "iterations": result.iterations,
    }))
    if args.emit_pdf_grid:
        centers, dens = est_mod._histogram_density(trace.samples, args.bin_width)
        fitted = fading.envelope_pdf(
            KappaMuParams(result.kappa_hat, result.mu_hat, 1.0),
            centers, result.r_hat)
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["envelope", "empirical_density", "fitted_density"])
        for c, d, f in zip(centers, dens, fitted):
            w.writerow([repr(float(c)), repr(float(d)), repr(float(f))])
        _atomic_write(args.emit_pdf_grid, buf.getvalue())
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="kmusec",
        description="Secrecy metrics for kappa-mu wiretap fading channels.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spsc", help="probability of strictly positive secrecy capacity")
    _add_channel_args(sp)
    _add_series_args(sp)
    sp.add_argument("--method", choices=("auto", "series", "closed", "quadrature", "mc"),
                    default="auto")
    _add_single_args(sp)
    sp.set_defaults(func=cmd_spsc)

    so = sub.add_parser("sop", help="secure outage probability")
    _add_channel_args(so)
    _add_rate_args(so)
    _add_series_args(so)
    so.add_argument("--bound", choices=("exact", "lower"), default="exact")
    so.add_argument("--method", choices=("auto", "mc"), default="auto")
    _add_single_args(so)
    so.set_defaults(func=cmd_sop)

    sw = sub.add_parser("sweep", help="evaluate the metrics over a parameter grid")
    _add_channel_args(sw)
    _add_rate_args(sw)
    _add_series_args(sw)
    sw.add_argument("--variable", choices=SWEEP_VARIABLES, required=True)
    sw.add_argument("--start", type=float, required=True)
    sw.add_argument("--stop", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True)
    sw.add_argument("--with-mc", type=int, default=0, metavar="N",
                    help="add Monte Carlo columns with N draws per point")
    sw.add_argument("--seed", type=int, default=0)
    laws = ", ".join(name for name, var in SWEEP_VARIABLES.items() if any(var.trend))
    sw.add_argument("--assert-monotone", action="store_true",
                    help="fail (exit 4) unless the curves follow the model's "
                         f"monotone laws, which exist over {laws}; other "
                         "variables are not checked")
    sw.add_argument("--output", help="write CSV atomically to this file")
    sw.set_defaults(func=cmd_sweep)

    va = sub.add_parser("validate", help="cross-check series, closed form, quadrature and MC")
    va.add_argument("--grid", choices=("small", "full"), default="small")
    va.add_argument("--mc-n", type=int, default=200_000)
    va.add_argument("--seed", type=int, default=12345)
    va.add_argument("--self-test-break", action="store_true",
                    help="inject a perturbation; the run must then fail")
    va.set_defaults(func=cmd_validate)

    ft = sub.add_parser("fit", help="fit (kappa, mu) to an envelope trace")
    ft.add_argument("--trace", required=True, help="CSV or KMUTRC01 binary file")
    ft.add_argument("--window", type=int, default=0,
                    help="local-mean window (odd); 0 skips normalization")
    ft.add_argument("--input-kind", choices=("envelope", "power"), default="envelope")
    ft.add_argument("--bin-width", type=float, default=None)
    ft.add_argument("--emit-pdf-grid", metavar="FILE",
                    help="also write (envelope, empirical, fitted) CSV")
    ft.set_defaults(func=cmd_fit)
    return p


@functools.cache
def _parser():
    # one parser per process: parsing leaves it as it was, and building it
    # costs about 2 ms, more than some commands' own work
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, QuadratureError) as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
