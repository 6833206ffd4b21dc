"""Time the imports a workload needs, in this fresh interpreter.

    python3 kmubench/probe.py MODULE [MODULE ...]

Imports the modules in the order given and prints one JSON object of
wall seconds per module; each figure is the increment over the modules
before it. ``run.py`` takes the figures to the reference speed with
calibration probes, this script on standard-library modules, that it
runs between them.
"""
import importlib
import json
import sys
import time


def main(modules):
    seconds = {}
    for module in modules:
        t0 = time.perf_counter()
        importlib.import_module(module)
        seconds[module] = time.perf_counter() - t0
    print(json.dumps(seconds))


if __name__ == "__main__":
    main(sys.argv[1:])
