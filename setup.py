"""Build hook for the optional compiled kernel extension.

The extension is compiled from the shipped, generated ``_ckernels.c``
with any C compiler; no code generator is needed at install time. If
the compile fails the package still works on the pure-Python twin,
which it then selects at import.
"""
from setuptools import Extension, setup

setup(ext_modules=[Extension("kmusec._ckernels", ["src/kmusec/_ckernels.c"],
                             extra_compile_args=["-O3"], optional=True)])
