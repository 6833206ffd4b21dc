"""Byte-for-byte CLI output on a fixed command list.

The expected stdout and exit code of each command are pinned in
``data/cli_golden.json``, recorded on the pure-Python kernels. The
commands run in one child interpreter in which the compiled extension
cannot be imported, so the check holds whichever backend the suite
itself uses. The ``fit`` commands read traces that the child first draws
from the model into a temporary directory, named ``{traces}`` in their
argv. After a change that is meant to alter the output, rewrite the
file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import json
import os
import subprocess
import sys

import pytest

import kmusec

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")

COMMANDS = [
    ["spsc", "--preset", "fig2-rice"],
    ["spsc", "--preset", "fig2-nakagami"],
    ["spsc", "--preset", "fig4"],
    ["spsc", "--preset", "d2d"],
    ["spsc", "--preset", "fig2-rice", "--gbar-m-db", "5", "--method", "closed"],
    ["spsc", "--preset", "fig4", "--gbar-m-db", "5", "--method", "series"],
    ["spsc", "--preset", "ban", "--method", "mc", "--mc-n", "20000", "--seed", "3"],
    ["sop", "--preset", "fig4", "--gbar-m-db", "7"],
    ["sop", "--preset", "fig4", "--gbar-m-db", "7", "--bound", "lower"],
    ["sop", "--preset", "d2d", "--rate-nats", "0.4", "--method", "mc",
     "--mc-n", "20000", "--seed", "4"],
    ["sweep", "--preset", "fig4", "--variable", "gamma_bar_m_db",
     "--start", "-10", "--stop", "30", "--steps", "5", "--assert-monotone"],
    ["sweep", "--preset", "d2d", "--variable", "gamma_bar_e_db",
     "--start", "-10", "--stop", "30", "--steps", "5", "--assert-monotone"],
    ["sweep", "--preset", "ban", "--gbar-m-db", "5", "--variable", "kappa_m",
     "--start", "0.5", "--stop", "8", "--steps", "4", "--assert-monotone"],
    ["sweep", "--preset", "ban", "--gbar-e-db", "5", "--variable", "kappa_e",
     "--start", "0.5", "--stop", "8", "--steps", "4", "--assert-monotone"],
    ["sweep", "--preset", "v2v", "--gbar-m-db", "5", "--variable", "mu_m",
     "--start", "0.5", "--stop", "3", "--steps", "4", "--assert-monotone"],
    ["sweep", "--preset", "v2v", "--gbar-e-db", "5", "--variable", "mu_e",
     "--start", "0.5", "--stop", "3", "--steps", "4", "--assert-monotone"],
    ["sweep", "--preset", "fig4", "--gbar-m-db", "10", "--variable", "rate",
     "--start", "0", "--stop", "2.5", "--steps", "4", "--assert-monotone"],
    ["sweep", "--preset", "d2d", "--variable", "gamma_bar_m_db",
     "--start", "0", "--stop", "3", "--steps", "2", "--with-mc", "20000",
     "--seed", "5"],
    ["validate", "--grid", "small"],
    ["fit", "--trace", "{traces}/d2d.kmu", "--window", "0"],
    ["fit", "--trace", "{traces}/ban.kmu"],
    ["fit", "--trace", "{traces}/v2v.kmu"],
    ["fit", "--trace", "{traces}/v2v.kmu", "--window", "501"],
    ["fit", "--trace", "{traces}/ban-power.kmu", "--input-kind", "power"],
    ["fit", "--trace", "{traces}/d2d.kmu", "--bin-width", "0.05"],
    # the best start ends on the kappa lower bound (clip and reflection)
    ["fit", "--trace", "{traces}/nakagami.kmu"],
    # kappa well above 0 and mu above 1: a positive Bessel order
    ["fit", "--trace", "{traces}/rice.kmu"],
    # sweeps and an exact SOP from kappa = 0 exactly: the gamma law
    ["sweep", "--preset", "ban", "--gbar-m-db", "5", "--variable", "kappa_m",
     "--start", "0", "--stop", "3", "--steps", "4"],
    ["sweep", "--preset", "ban", "--gbar-m-db", "5", "--variable", "kappa_e",
     "--start", "0", "--stop", "3", "--steps", "4"],
    ["sop", "--km", "0", "--um", "1.5", "--ke", "0", "--ue", "0.7",
     "--gbar-m-db", "3", "--rate-nats", "0.2"],
]

#: traces for the fit commands: file name -> (kappa, mu, seed, kind),
#: TRACE_SAMPLES envelope samples each; a "power" trace holds their squares
TRACES = {
    "d2d": (1.07, 0.91, 101, "envelope"),
    "ban": (2.92, 0.75, 102, "envelope"),
    "v2v": (5.02, 0.70, 103, "envelope"),
    "ban-power": (2.92, 0.75, 104, "power"),
    "nakagami": (1e-9, 2.0, 107, "envelope"),
    "rice": (4.0, 1.0, 111, "envelope"),
}
TRACE_SAMPLES = 20_000

_RUNNER = """
import contextlib, io, json, os, sys, tempfile
sys.modules["kmusec._ckernels"] = None  # the pure-Python kernels
from kmusec import backend_name, cli, estimate
assert backend_name() == "python"
from kmusec.fading import KappaMuParams
commands, traces, n = json.loads(sys.argv[1])
out = []
with tempfile.TemporaryDirectory() as tmp:
    for name, (kappa, mu, seed, kind) in traces.items():
        trace = estimate.sample_envelope(KappaMuParams(kappa, mu, 1.0), n, seed)
        if kind == "power":
            trace = estimate.EnvelopeTrace(trace.samples ** 2)
        estimate.write_trace_binary(os.path.join(tmp, name + ".kmu"), trace)
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([a.replace("{traces}", tmp) for a in argv])
        out.append({"argv": argv, "exit": code, "stdout": buf.getvalue()})
json.dump(out, sys.stdout)
"""


def run_commands(commands):
    """Run each command through ``cli.main`` in one child interpreter on
    the pure-Python kernels; return its argv, exit code and stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kmusec.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    payload = json.dumps([commands, TRACES, TRACE_SAMPLES])
    proc = subprocess.run([sys.executable, "-c", _RUNNER, payload],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def outputs():
    return run_commands(COMMANDS)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[" ".join(c) for c in COMMANDS])
def test_stdout_matches_golden(outputs, golden, index):
    assert outputs[index] == golden[index]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(run_commands(COMMANDS), fh, indent=1)
        fh.write("\n")
