"""The two kernel names the benchmark harness in ``kmubench/`` reads.

The library's numerical kernels are the pure-Python ``kmusec._pykernels``,
which the library modules import directly. ``kernels`` is that module, for
``kmubench/tracer.py``'s ``Patches`` to wrap; ``backend_name()``, exported
as ``kmusec.backend_name``, is what ``kmubench/worker.py`` records with
every timed run. Once the harness stops reading them (ROADMAP item 1a),
both names can go.
"""
from kmusec import _pykernels as kernels  # noqa: F401


def backend_name():
    """The kernel implementation: always ``'python'``."""
    return "python"
