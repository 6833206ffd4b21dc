#!/usr/bin/env python3
"""kmusec benchmark: one workload per call, figures as JSON.

    python3 kmubench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file, and
the library is imported from its ``src``. Inputs come from ``--seed``.
The workload runs in its own single-threaded interpreter on the kernel
backend ``kmusec._backend`` picks at import (``KMUSEC_BACKEND`` is
passed through); every result records that backend with the versions,
core count, seed and commit.

Workloads (why each exists is also in ``BENCHMARK.json``):

* ``analytic_grid``: ``spsc_series``/``sop_lower``/``spsc_closed_form``
  library calls, -10..50 dB; one op is one evaluation. The same calls
  at 55..90 dB, where the series is known to miss its references, run
  once untimed as defect ops: ``defect_missed`` of ``defect_ops`` is
  printed, and is the per-layer ``secrecy.tail_defect_misses``.
* ``figure_curves``: ``kmusec sweep`` over the figure presets; one op is
  a 41-point sweep, and the work unit is the point.
* ``mc_oracle``: ``kmusec spsc|sop --method mc`` with 1e6 pairs; the
  work unit is one wiretap pair draw.
* ``trace_fit``: ``kmusec fit`` on 1e5-sample KMUTRC01 traces; the work
  unit is one fit.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of importing ``numpy``, ``kmusec.cli`` and the scipy
modules the ops import lazily), ``work_per_s`` (evaluations, points,
draws or fits per second; printed under that name too), ``op_p50_ms``,
``op_tail_ms`` (the highest percentile with ten ops beyond it) and
``peak_rss_mb`` of the workload process. Failed ops (an exception, a
nonzero exit or a failed check) are counted against attempted ones.
Every time, per-layer ones included, is reported at a reference
machine speed: the host may be shared and drift by tens of percent, so
calibration runs beside the work and the figures are scaled by it. Import
times are scaled by calibration probes that import a fixed set of
standard-library modules; every other time by the loops of ``calib.py``.
The unscaled figures are printed too, as ``raw_setup_s``,
``raw_work_per_s``, ``raw_op_p50_ms`` and ``raw_op_tail_ms``, so that
what the calibration removes can be checked.

``--trace 1`` times half the run untraced and half with spans at every
layer boundary, and prints per-layer figures per traced op. Which
layer figure should move which end-to-end metric:

* ``import.*`` -> ``setup_s``, all workloads;
* ``quad``, ``secrecy.sop_exact.*``, ``fading.snr_pdf/snr_cdf`` ->
  ``work_per_s`` on ``figure_curves`` only;
* ``kernels.survival_series/marcum_q_series``, ``secrecy.spsc_series/
  sop_lower/spsc_closed_form``, ``secrecy.closed_form_fallbacks`` ->
  ``work_per_s`` on ``analytic_grid`` (a minor share on figure_curves);
* ``fading.sample``, ``montecarlo.*`` -> ``work_per_s`` and
  ``peak_rss_mb`` on ``mc_oracle``;
* ``fading.envelope_pdf``, ``kernels.bessel_ie``, ``minimize``,
  ``estimate.*`` -> ``work_per_s`` on ``trace_fit``;
* ``kernels.gammainc_upper_reg``, ``cli.self_ms`` -> ``op_p50_ms``.

The traced run also reports ``kernels_twin.*``: the pure-Python and
compiled kernels on three micro-loops, the compiled one built from the
tracked ``_ckernels.c`` with ``gcc`` (``c_available`` 0 when that fails).
Scratch files, builds, span dumps and full result records go to
``.bench_build/kmubench`` in the checkout.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

import twin

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "kmusec")
STATE = os.path.join(ROOT, ".bench_build", "kmubench")

#: fresh interpreters whose import times give the set-up medians
PROBES = 11
#: standard-library modules a calibration probe imports, in a fresh
#: interpreter before each import probe and after the last: the same kind
#: of work as the import probes, and none of it the library's. (Scaled by
#: the loops of calib.py instead, which swing about 2x on a shared host
#: while imports swing about 1.45x, setup_s spread about twice as wide as
#: unscaled.)
CALIBRATION_MODULES = ("decimal", "json", "email.message", "xml.etree.ElementTree",
                       "http.client", "unittest", "argparse", "logging")
#: their import time at the reference speed, seconds (about their time on
#: a 2.1 GHz Xeon vCPU when the host is quiet)
CALIBRATION_IMPORT_S = 0.05
#: modules every workload imports before its first op
BASE_MODULES = ("numpy", "kmusec.cli")
#: per-layer import figures; each is the increment over the modules before
#: it, and a scipy module's is its increment over BASE_MODULES
IMPORT_LAYERS = {
    "import.numpy_s": "numpy",
    "import.kmusec_s": "kmusec.cli",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_optimize_s": "scipy.optimize",
}


class BenchError(Exception):
    """A step of the benchmark itself failed; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = os.path.join(STATE, "tmp")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_json(cmd, timeout, env=None):
    """Run ``cmd`` to completion and parse the last line of its stdout."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=timeout, env=env or child_env())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{os.path.basename(cmd[1])} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def probe_imports(modules):
    """Per-module import seconds and their total, medians over PROBES
    fresh interpreters, at the reference speed of the calibration probes
    run between them; the total is also returned unscaled."""
    probe = os.path.join(HERE, "probe.py")

    def calibrate():
        seconds = run_json([sys.executable, probe, *CALIBRATION_MODULES], timeout=60)
        return sum(seconds.values())

    samples, calibration = [], []
    for _ in range(PROBES):
        calibration.append(calibrate())
        samples.append(run_json([sys.executable, probe, *modules], timeout=60))
    calibration.append(calibrate())
    scale = CALIBRATION_IMPORT_S / statistics.median(calibration)
    medians = {m: scale * statistics.median(s[m] for s in samples) for m in modules}
    raw = statistics.median(sum(s.values()) for s in samples)
    return medians, scale * raw, raw


def kernel_twin():
    dest = os.path.join(STATE, "twin")
    reason = twin.build(PACKAGE, dest, os.path.join(STATE, "tmp"))
    env = child_env()
    env["PYTHONPATH"] = dest
    loops = run_json([sys.executable, os.path.join(HERE, "twin.py")], 120, env)
    metrics = {"kernels_twin.c_available": 0.0 if reason else 1.0}
    for name, figures in loops.items():
        metrics[f"kernels_twin.{name}.python_ms"] = figures["python_ms"]
        # 0 marks a missing compiled twin; c_available says which
        metrics[f"kernels_twin.{name}.c_ms"] = figures["c_ms"] or 0.0
    return metrics, reason


def source_record():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, env=env, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith((".py", ".pyx", ".c")):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def measure(args, spec):
    worker = run_json(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--state", STATE],
        timeout=max(150.0, 2.0 * args.seconds + 60.0))
    report = {}
    if args.trace:
        metrics = dict(worker["layers"])
        # scipy.integrate imports scipy.optimize, so each scipy module is
        # timed in its own interpreters, as the workload that needs it pays
        imports, _, _ = probe_imports(BASE_MODULES + ("scipy.integrate",))
        optimize, _, _ = probe_imports(BASE_MODULES + ("scipy.optimize",))
        imports["scipy.optimize"] = optimize["scipy.optimize"]
        for name, module in IMPORT_LAYERS.items():
            metrics[name] = imports[module]
        twin_metrics, reason = kernel_twin()
        metrics.update(twin_metrics)
        if reason:
            report["kernels_twin_unavailable"] = reason
        wanted = spec["per_layer"]
    else:
        _, setup, raw_setup = probe_imports(BASE_MODULES + tuple(worker["lazy_imports"]))
        metrics = {"setup_s": setup}
        for name in ("work_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"):
            metrics[name] = worker[name]
        report[f"{worker['unit']}_per_s"] = worker["work_per_s"]
        report["op_tail_percentile"] = worker["op_tail_percentile"]
        report["ops"] = worker["ops"]
        for name in ("raw_work_per_s", "raw_op_p50_ms", "raw_op_tail_ms"):
            report[name] = worker[name]
        report["raw_setup_s"] = raw_setup
        report["speed_scale"] = worker["scale"]
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        raise BenchError(f"metrics {sorted(set(names) ^ set(metrics))} do not "
                         "match BENCHMARK.json")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    report["failed_frac"] = worker["failed"] / worker["attempted"]
    report["defect_ops"] = worker["defect_ops"]
    report["defect_missed"] = worker["defect_missed"]
    return worker, out, report


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no kmusec sources at {PACKAGE}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(STATE, "tmp"), exist_ok=True)
    try:
        worker, metrics, report = measure(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = dict(worker["env"], nproc=os.cpu_count(),
               cpus_usable=len(os.sched_getaffinity(0)), seed=args.seed,
               workload=args.workload, trace=args.trace, **source_record())
    record = {"env": env, "report": report, "failures": worker["failures"],
              "defect_misses": worker["defect_misses"],
              "attempted": worker["attempted"], "failed": worker["failed"],
              "metrics": metrics}
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, value in report.items():
        print(f"{name} {value!r}")
    for failure in worker["failures"]:
        print(f"failed op: {failure}")
    for miss in worker["defect_misses"]:
        print(f"defect miss: {miss}")
    print(json.dumps({"correct": worker["failed"] == 0,
                      "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
