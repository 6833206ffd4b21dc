"""Kernel backend selection.

The hot series kernels exist twice: a compiled Cython extension
(``kmusec._ckernels``) and a pure-Python twin (``kmusec._pykernels``).
The compiled one is used when it can be imported, the pure one otherwise.
"""
try:
    from kmusec import _ckernels as kernels
    name = "c"
except ImportError:
    from kmusec import _pykernels as kernels
    name = "python"


def backend_name():
    """Active kernel implementation: ``'c'`` or ``'python'``."""
    return name
