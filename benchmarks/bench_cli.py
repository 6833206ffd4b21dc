"""Time ``kmusec`` CLI commands end to end, in fresh interpreters.

    python benchmarks/bench_cli.py [--reps N] [--command NAME ...] [--against PATH]

Each command runs as the ``kmusec`` console script runs it (``from
kmusec.cli import main``), with ``PYTHONPATH`` set to the checkout's
``src`` alone and stdout discarded; a nonzero exit stops the script. The
commands (``--command`` picks some; all by default) are the figure
presets' single points, 41-point sweeps of ``gamma_bar_m_db`` from -10 to
30 dB, one of them with Monte Carlo columns, the small validation grid,
and a fit with a 501-sample window on a text trace of 1e5 envelope
samples at kappa 2, mu 1.2, drawn into a temporary directory.

With ``--against PATH`` every run alternates between this checkout and
the one at PATH, which of them goes first alternating by repetition.
Printed as JSON, per command and checkout, over ``--reps`` repetitions:

* ``wall_min_ms``, ``wall_median_ms``: the process wall time;
* ``main_min_ms``, ``main_median_ms``: one ``cli.main`` call in a fresh
  process, after an untimed warm-up call in that process;
* ``numpy_import_ms``, ``kmusec_import_ms``, ``scipy_import_ms``: medians
  of the ``-X importtime`` self times of each package's modules, each
  with the other modules it brought in first (the CLI imports scipy only
  as ``scipy.special``);
* ``kmusec_import_cached_ms``: ``kmusec_import_ms`` with the library's
  bytecode compiled beforehand, in a temporary copy of ``src``, and
  ``kmusec_compile_share``, the share of ``kmusec_import_ms`` that the
  cache removes.

The checkout's runs read whatever bytecode it already holds, and write
none (``-B``).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SWEEP = ("--variable", "gamma_bar_m_db", "--start", "-10", "--stop", "30", "--steps", "41")
#: name -> arguments; ``{trace}`` is the fit trace's path
COMMANDS = {
    "spsc": ("spsc", "--preset", "fig2-rice"),
    "sop-lower": ("sop", "--preset", "fig4", "--bound", "lower"),
    "sop": ("sop", "--preset", "fig4"),
    "sweep-fig2-rice": ("sweep", "--preset", "fig2-rice", *_SWEEP),
    "sweep-fig4": ("sweep", "--preset", "fig4", *_SWEEP),
    "sweep-fig4-mc": ("sweep", "--preset", "fig4", *_SWEEP, "--with-mc", "200000"),
    "validate": ("validate", "--grid", "small"),
    "fit": ("fit", "--trace", "{trace}", "--window", "501"),
}
_RUN = "import sys; from kmusec.cli import main; sys.exit(main(sys.argv[1:]))"
_IN_PROCESS = """
import contextlib, io, json, sys, time
from kmusec.cli import main
for _ in range(2):  # a warm-up call, then the timed one
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = main(sys.argv[1:])
        elapsed = time.perf_counter() - t0
    if code:
        raise SystemExit(f"exit {code}")
print(json.dumps(elapsed))
"""
_PACKAGES = ("numpy", "kmusec", "scipy")


def write_trace(path, samples=100_000, kappa=2.0, mu=1.2, seed=14):
    """Envelope samples of unit mean power, one per line: the power is
    Gamma(mu + N, 1 / ((1 + kappa) mu)) with N ~ Poisson(kappa mu)."""
    rng = np.random.default_rng(seed)
    clusters = rng.poisson(kappa * mu, samples)
    power = rng.gamma(mu + clusters, 1.0 / ((1.0 + kappa) * mu))
    np.savetxt(path, np.sqrt(power), fmt="%.9g", header="envelope", comments="")


def _run(src, args, env=None):
    """``python -B args`` on the library in ``src``; its stderr and wall s."""
    env = dict(os.environ if env is None else env, PYTHONPATH=src)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-B", *args], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode:
        raise SystemExit(f"{' '.join(args)} on {src}: exit {proc.returncode}\n{proc.stderr}")
    return proc, wall


def import_split(stderr):
    """ms of ``-X importtime`` self time per package: each module's own,
    plus that of the modules outside the packages that it brought in."""
    totals = dict.fromkeys(_PACKAGES, 0)
    stack = []  # (depth, self us not yet given to a package) of finished subtrees
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.endswith("imported package"):
            continue
        own, _, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        loose = int(own)
        while stack and stack[-1][0] > depth:
            loose += stack.pop()[1]
        top = name.strip().split(".")[0]
        if top in totals:
            totals[top] += loose
            loose = 0
        stack.append((depth, loose))
    return {package: us / 1e3 for package, us in totals.items()}


def cached_copy(src, dest):
    """A copy of ``src`` at ``dest`` with its bytecode compiled, and the
    environment that reads it there."""
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPYCACHEPREFIX"}
    proc = subprocess.run([sys.executable, "-c", "import compileall, sys; sys.exit(not "
                           "compileall.compile_dir(sys.argv[1], quiet=1))", dest], env=env)
    if proc.returncode:
        raise SystemExit(f"compiling {dest} failed")
    return env


def measure(trees, commands, reps, scratch):
    """Per command and tree, the figures of the module docstring."""
    cached = {name: os.path.join(scratch, name, "src") for name in trees}
    cached_env = {name: cached_copy(os.path.join(path, "src"), cached[name])
                  for name, path in trees.items()}
    runs = {command: {name: {"wall": [], "main": [], "imports": [], "cached": []}
                      for name in trees} for command in commands}
    order = list(trees)
    for rep in range(reps):
        for command, argv in commands.items():
            for name in order[rep % 2:] + order[:rep % 2]:
                src = os.path.join(trees[name], "src")
                fig = runs[command][name]
                fig["wall"].append(_run(src, ["-c", _RUN, *argv])[1])
                fig["main"].append(json.loads(_run(src, ["-c", _IN_PROCESS, *argv])[0].stdout))
                proc, _ = _run(src, ["-X", "importtime", "-c", _RUN, *argv])
                fig["imports"].append(import_split(proc.stderr))
                proc, _ = _run(cached[name], ["-X", "importtime", "-c", _RUN, *argv],
                               cached_env[name])
                fig["cached"].append(import_split(proc.stderr)["kmusec"])
    out = {}
    for command, per_tree in runs.items():
        out[command] = {"argv": " ".join(COMMANDS[command])}
        for name, fig in per_tree.items():
            imports = {package: statistics.median(i[package] for i in fig["imports"])
                       for package in _PACKAGES}
            cached_ms = statistics.median(fig["cached"])
            out[command][name] = {
                "wall_min_ms": 1e3 * min(fig["wall"]),
                "wall_median_ms": 1e3 * statistics.median(fig["wall"]),
                "main_min_ms": 1e3 * min(fig["main"]),
                "main_median_ms": 1e3 * statistics.median(fig["main"]),
                **{f"{package}_import_ms": ms for package, ms in imports.items()},
                "kmusec_import_cached_ms": cached_ms,
                "kmusec_compile_share": 1.0 - cached_ms / imports["kmusec"],
            }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--command", action="append", choices=list(COMMANDS),
                        help="time only this command (repeatable); all by default")
    parser.add_argument("--against", metavar="PATH",
                        help="another checkout, timed in alternation with this one")
    args = parser.parse_args()
    trees = {"this": ROOT}
    if args.against:
        trees["against"] = os.path.abspath(args.against)
    with tempfile.TemporaryDirectory(prefix="bench-cli-") as scratch:
        trace = os.path.join(scratch, "trace.txt")
        names = args.command or list(COMMANDS)
        if "fit" in names:
            write_trace(trace)
        commands = {name: [arg.format(trace=trace) for arg in COMMANDS[name]]
                    for name in names}
        out = measure(trees, commands, args.reps, scratch)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
