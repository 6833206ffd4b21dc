"""Run one workload in this process and print its figures as one JSON line.

Started by ``run.py`` in a fresh single-threaded interpreter with the
checkout's ``src`` on ``PYTHONPATH``:

    python3 kmubench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --state DIR

Untraced, it times the workload's ops for ``--seconds``. Traced, it
alternates untraced segments with segments under the span wrappers,
half the time each, and reports per-layer figures per traced op. Times
are reported at the reference speed of ``calib``. Either way the
workload's defect ops then run once, untimed, and their misses are
reported apart from the timed ops' failures.
"""
import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import sys
import time

import numpy as np

import calib
import tracer as tr
import workloads

#: span layers reported as ``<layer>.calls`` and ``<layer>.self_ms``
SPAN_LAYERS = (
    "cli",
    "secrecy.spsc_series", "secrecy.sop_lower", "secrecy.spsc_closed_form",
    "secrecy.sop_exact",
    "quad", "minimize",
    "fading.snr_pdf", "fading.snr_cdf", "fading.envelope_pdf", "fading.sample",
    "montecarlo.mc_spsc", "montecarlo.mc_sop_both",
    "estimate.read_trace", "estimate.local_mean_normalize",
    "estimate.fit_kappa_mu",
    "kernels.survival_series", "kernels.marcum_q_series", "kernels.bessel_ie",
    "kernels.gammainc_upper_reg",
)
#: layers whose self time under sop_exact makes up the quadrature path
SOP_EXACT_PATH = ("quad", "fading.", "kernels.")
#: an untraced segment runs at least this many ops, so that the tail
#: percentile always has ten ops beyond it
MIN_OPS = 11
#: failure reasons kept for the report
KEEP_FAILURES = 20
#: untraced/traced segment pairs of a traced run; alternating them lets
#: host drift and warm-up fall on both sides of the overhead ratio
TRACE_ALTERNATIONS = 4


def run_segment(wl, seconds, tracer=None, min_ops=1):
    """Cycle through the workload's ops until ``seconds`` have passed, a
    whole round is done and at least ``min_ops`` ran (or the span store
    is full). Calibration loops run between ops, and each round's
    latencies and work rate are taken to the reference speed by that
    round's calibration. Returns counts, latencies, the median round
    rate and failures."""
    latencies = []
    raw_latencies = []
    rates = []
    raw_rates = []
    failures = []
    attempted = failed = 0
    spin_s = spins = 0
    ops = wl.ops
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        if i % wl.round_size == 0:
            now = time.perf_counter()
            if i:
                work_s = now - round_start - clock.spin_s
                scale = clock.scale()
                raw_rates.append(round_units / work_s)
                rates.append(round_units / (work_s * scale))
                latencies.extend(t * scale for t in round_latencies)
                raw_latencies.extend(round_latencies)
                spin_s += clock.spin_s
                spins += clock.spins
                if attempted >= min_ops and (
                        now >= deadline or (tracer is not None and tracer.full())):
                    break
            clock = calib.Clock(wl.calibration)
            round_start, round_units, round_latencies = now, 0.0, []
        op = ops[i % len(ops)]
        i += 1
        t0 = time.perf_counter()
        try:
            out = tracer.run_op(op.call) if tracer else op.call()
        except Exception as exc:  # a raising op is a failed op; go on
            t1 = time.perf_counter()
            reason = f"{type(exc).__name__}: {exc}"
        else:
            t1 = time.perf_counter()
            round_units += op.units
            reason = op.check(out)
        attempted += 1
        round_latencies.append(t1 - t0)
        if reason is not None:
            failed += 1
            if len(failures) < KEEP_FAILURES:
                failures.append(f"{op.label}: {reason}")
        clock.after(t1 - t0)
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "work_s": time.perf_counter() - start - spin_s,
            "spins": spins, "spin_s": spin_s, "calibration": wl.calibration,
            "latencies_s": latencies, "raw_latencies_s": raw_latencies,
            "rates": rates, "raw_rates": raw_rates}


def run_defect_ops(ops):
    """Run each defect op once, untimed, with its check. Returns the
    number of misses and the first reasons."""
    missed, reasons = 0, []
    for op in ops:
        try:
            reason = op.check(op.call())
        except Exception as exc:  # a raising defect op is a miss; go on
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            missed += 1
            if len(reasons) < KEEP_FAILURES:
                reasons.append(f"{op.label}: {reason}")
    return missed, reasons


def merge(segments):
    """Pool the rounds of several segments: summed counts, the median
    round rate (at the reference speed and raw) and the segments'
    common reference-speed factor."""
    pooled = {key: sum(s[key] for s in segments)
              for key in ("attempted", "failed", "work_s", "spins", "spin_s")}
    pooled["failures"] = [f for s in segments for f in s["failures"]][:KEEP_FAILURES]
    for key in ("latencies_s", "raw_latencies_s"):
        pooled[key] = [t for s in segments for t in s[key]]
    reference_s = calib.REFERENCE_S[segments[0]["calibration"]]
    pooled["scale"] = reference_s * pooled["spins"] / pooled["spin_s"]
    for key in ("rates", "raw_rates"):
        pooled[key[:-1]] = float(np.median([r for s in segments for r in s[key]]))
    return pooled


def latency_figures(latencies):
    """Median and the highest percentile with ten ops beyond it."""
    lat = np.sort(np.asarray(latencies))
    n = lat.size
    tail_rank = max(n - 11, 0)
    return {"op_p50_ms": float(np.median(lat)) * 1e3,
            "op_tail_ms": float(lat[tail_rank]) * 1e3,
            "op_tail_percentile": 100.0 * tail_rank / (n - 1) if n > 1 else 100.0,
            "ops": n}


def layer_figures(tracer, traced, plain):
    """Per-layer figures per traced op, times at the reference speed."""
    times = tracer.layer_times()
    ops = max(tracer.op_id + 1, 1)
    ms = 1e3 * traced["scale"] / ops
    out = {}
    for layer in SPAN_LAYERS:
        calls, own, _ = times.get(layer, (0, 0.0, 0.0))
        out[f"{layer}.calls"] = calls / ops
        out[f"{layer}.self_ms"] = own * ms
    other = [v for k, v in times.items()
             if k.startswith("kernels.") and k not in SPAN_LAYERS]
    out["kernels.other.calls"] = sum(v[0] for v in other) / ops
    out["kernels.other.self_ms"] = sum(v[1] for v in other) * ms
    out["trace.op_self_ms"] = times[tr.OP][1] * ms

    counts = tracer.counts
    for metric in ("secrecy.sop_exact.neval", "secrecy.closed_form_fallbacks",
                   "kernels.survival_series.terms", "kernels.marcum_q_series.terms",
                   "fading.sample.draws", "fading.envelope_pdf.points",
                   "estimate.fit_kappa_mu.iterations"):
        out[metric] = counts[metric] / ops

    wall = traced["work_s"]
    out["secrecy.sop_exact.subtree_share"] = sum(v[2] for v in times.values()) / wall
    out["secrecy.sop_exact.quad_fading_kernels_share"] = sum(
        v[2] for k, v in times.items() if k.startswith(SOP_EXACT_PATH)) / wall
    out["trace.ops"] = float(ops)
    # raw rates: the segments alternate, so host drift cancels, and the
    # calibration loop would only add its own error to this ratio
    out["trace.overhead_frac"] = 1.0 - traced["raw_rate"] / plain["raw_rate"]
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.FACTORIES), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--state", required=True, help="directory for scratch files")
    args = p.parse_args(argv)

    import kmusec

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    if os.path.commonpath([src, os.path.abspath(kmusec.__file__)]) != src:
        sys.exit(f"kmusec imported from {kmusec.__file__}, not from {src}")

    workdir = os.path.join(args.state, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        rng = np.random.default_rng(args.seed)
        wl = workloads.FACTORIES[args.workload](rng, workdir)
        for module in wl.lazy_imports:
            importlib.import_module(module)
        wl.ops[0].call()  # warm-up: first-call state outside the timing
        result = {"unit": wl.unit, "lazy_imports": list(wl.lazy_imports)}
        if args.trace:
            tracer = tr.Tracer()
            patches = tr.Patches(tracer)
            share = args.seconds / (2 * TRACE_ALTERNATIONS)
            plain, traced = [], []
            for _ in range(TRACE_ALTERNATIONS):
                plain.append(run_segment(wl, share))
                with patches:
                    traced.append(run_segment(wl, share, tracer))
                if tracer.full():
                    break
            result["layers"] = layer_figures(tracer, merge(traced), merge(plain))
            spans = os.path.join(args.state, f"spans-{args.workload}.npz")
            tracer.dump(spans)
            result["spans_file"] = spans
            total = merge(plain + traced)
        else:
            total = merge([run_segment(wl, args.seconds, min_ops=MIN_OPS)])
            result.update(latency_figures(total["latencies_s"]))
            result["work_per_s"] = total["rate"]
            result["raw_work_per_s"] = total["raw_rate"]
            raw = latency_figures(total["raw_latencies_s"])
            result["raw_op_p50_ms"] = raw["op_p50_ms"]
            result["raw_op_tail_ms"] = raw["op_tail_ms"]
            result["scale"] = total["scale"]
        missed, result["defect_misses"] = run_defect_ops(wl.defect_ops)
        result["defect_ops"], result["defect_missed"] = len(wl.defect_ops), missed
        if args.trace:
            result["layers"]["secrecy.tail_defect_misses"] = float(missed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key in ("attempted", "failed", "failures"):
        result[key] = total[key]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "backend": kmusec.backend_name(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
