"""Kernel-twin comparison: the pure-Python and the compiled kernels on
the three micro-loops that ``benchmarks/bench_backends.py`` defines
(Marcum-Q over 400 betas, one survival-series point, a 41-point survival
sweep), imported from that script.

:func:`build` compiles the tracked ``_ckernels.c`` with the system
``gcc`` into a copy of the package; then, with that copy first on
``PYTHONPATH``,

    python3 kmubench/twin.py

prints one JSON object ``{loop: {"python_ms": t, "c_ms": t or null}}``
of median milliseconds per loop, at the reference speed of ``calib``.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import time

import calib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(package, dest, tmpdir):
    """Copy ``package`` (the ``kmusec`` source directory) to
    ``dest/kmusec`` and compile its ``_ckernels.c`` there, reusing an
    earlier build of the same source. Returns None on success, else the
    reason the compiled twin is unavailable."""
    source = os.path.join(package, "_ckernels.c")
    if not os.path.isfile(source):
        return "no _ckernels.c in the checkout"
    target_pkg = os.path.join(dest, "kmusec")
    ext = os.path.join(target_pkg, "_ckernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    include = sysconfig.get_paths()["include"]
    with open(source, "rb") as fh:
        stamp = hashlib.sha256(fh.read() + include.encode()).hexdigest()
    stamp_file = os.path.join(dest, "stamp")
    built = os.path.isfile(ext) and _read(stamp_file) == stamp
    if not built:
        shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(target_pkg, exist_ok=True)
    for name in os.listdir(package):
        if name.endswith(".py"):
            shutil.copy2(os.path.join(package, name), target_pkg)
    if built:
        return None
    os.makedirs(tmpdir, exist_ok=True)
    cmd = ["gcc", "-O3", "-shared", "-fPIC", f"-I{include}", source, "-o", ext]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, TMPDIR=tmpdir))
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"gcc did not run: {exc}"
    if proc.returncode != 0:
        return f"gcc exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return None


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _median_ms(fn, repeat):
    """Median milliseconds of ``repeat`` calls, at the reference speed."""
    scale = calib.median_scale(15)
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2] * 1e3 * scale


def main():
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    import bench_backends as bb

    # loop name -> (factory taking a kernels module, repeats); the medians
    # of these many runs are reported
    loops = {"marcum_x400": (bb.marcum_workload, 20),
             "survival_point": (bb.survival_point, 200),
             "survival_sweep41": (bb.survival_sweep, 10)}
    out = {}
    for name, (make, repeat) in loops.items():
        out[name] = {
            "python_ms": _median_ms(make(bb._pykernels), repeat),
            "c_ms": (_median_ms(make(bb._ckernels), repeat)
                     if bb._ckernels is not None else None),
        }
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
