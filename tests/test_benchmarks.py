"""Smoke tests for the scripts in ``benchmarks/``: they must keep running
against the library, and ``bench_backends`` must keep offering what the
benchmark harness (``kmubench/twin.py``) imports from it. The library in
turn must keep the names the harness's tracer (``kmubench/tracer.py``)
binds and its workloads (``kmubench/workloads.py``) import."""
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(ROOT, "benchmarks")


def library_env():
    """The environment with this checkout's library first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_script(name, *argv):
    """Run a benchmark script on this checkout's library; its JSON output."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCHMARKS, name), *argv],
        capture_output=True, text=True, env=library_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_BINDINGS = """
import sys
sys.path.insert(0, sys.argv[1])
import tracer
import kmusec
patches = tracer.Patches(tracer.Tracer())
with patches:
    pass
assert patches.swaps
assert isinstance(kmusec.backend_name(), str)
"""


def test_harness_bindings_exist():
    # the traced benchmark run wraps library names at their modules
    # (kmubench/tracer.py) and every timed run calls backend_name(): a
    # library change that removes one of them fails here, not in the harness
    proc = subprocess.run(
        [sys.executable, "-c", _BINDINGS, os.path.join(ROOT, "kmubench")],
        capture_output=True, text=True, env=library_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr


_WORKLOADS = """
import json
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import workloads
failures = {}
for name, factory in workloads.FACTORIES.items():
    wl = factory(np.random.default_rng(9), sys.argv[2])
    op = wl.ops[0]
    failures[name] = op.check(op.call())
print(json.dumps(failures))
"""


def test_harness_workloads_build_and_check(tmp_path):
    # every benchmark workload builds at a fixed seed, and its first op
    # passes its own check: a library change that removes or renames a
    # name the workloads import (fading.EPSILON_KAPPA, cli.PRESETS,
    # estimate._histogram_density, say) fails here, not in the harness
    proc = subprocess.run(
        [sys.executable, "-c", _WORKLOADS, os.path.join(ROOT, "kmubench"), str(tmp_path)],
        capture_output=True, text=True, env=library_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"analytic_grid": None, "figure_curves": None,
                                       "mc_oracle": None, "trace_fit": None}


def test_bench_sweep_split_runs():
    out = run_script("bench_sweep_split.py", "--reps", "1")
    sweeps = [f"{preset} gamma_bar_m_db" for preset in
              ("fig4", "fig2-rice", "fig2-nakagami", "d2d", "ban", "v2v")]
    assert list(out) == sweeps + ["fig4 rate", "total"]
    for part in out.values():
        assert set(part) == {"per_key_ms", "series_many_ms", "sop_exact_ms"}
        assert all(ms > 0.0 for ms in part.values())


def test_bench_fit_runs():
    out = run_script("bench_fit.py", "--reps", "1")
    assert list(out) == ["d2d", "ban", "v2v", "total"]
    for part in out.values():
        assert set(part) == {"fit_cpu_ms", "density_calls", "density_rows",
                             "single_shift_calls", "ive_elements", "power_elements",
                             "iterations", "histogram_ms", "density_ms", "simplex_ms"}
        assert part["fit_cpu_ms"] > 0.0
        assert all(part[key] > 0.0 for key in ("histogram_ms", "density_ms", "simplex_ms"))
        # the starts' points of a step share one call
        assert 0 < part["density_calls"] < part["density_rows"]
        assert 0 <= part["single_shift_calls"] <= part["density_calls"]
        assert isinstance(part["ive_elements"], int) and part["ive_elements"] >= 0
        assert isinstance(part["power_elements"], int) and part["power_elements"] >= 0
        assert part["iterations"] > 0


def test_bench_backends_offers_the_harness_loops():
    spec = importlib.util.spec_from_file_location(
        "bench_backends", os.path.join(BENCHMARKS, "bench_backends.py"))
    bb = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bb)
    from kmusec import _pykernels

    assert bb._pykernels is _pykernels
    assert hasattr(bb, "_ckernels")  # None where the twin is not built
    for make in (bb.marcum_workload, bb.survival_point, bb.survival_sweep):
        make(bb._pykernels)()


def test_twin_runs_without_the_compiled_twin(tmp_path):
    # the harness's twin comparison with no kmusec copy on the path (none
    # is made where the checkout has no _ckernels.c): bench_backends finds
    # the checkout's library, and only the pure-Python kernels are timed
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "kmubench", "twin.py")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert list(out) == ["marcum_x400", "survival_point", "survival_sweep41"]
    for loop in out.values():
        assert loop["c_ms"] is None
        assert loop["python_ms"] > 0.0
