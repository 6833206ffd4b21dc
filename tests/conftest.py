"""Session fixtures shared by the test modules."""
import os
import shutil
import subprocess
import sys
import sysconfig

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kmusec")


def _c_compiler():
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(cc.split()[0])


@pytest.fixture(scope="session")
def compiled_package(tmp_path_factory):
    """A directory holding a copy of the ``kmusec`` package with the
    compiled kernels, built once per session by ``setup.py build_ext``
    from the shipped ``_ckernels.c``. Put it first on the import path to
    run on the compiled twin. It is never built into ``src``, so the rest
    of the suite keeps the backend that the checkout itself selects."""
    if _c_compiler() is None:
        pytest.skip("no C compiler found to build the compiled kernels")
    base = tmp_path_factory.mktemp("ckernels")
    lib = base / "lib"
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(lib),
         "--build-temp", str(base / "obj")],
        cwd=ROOT, capture_output=True, text=True)
    ext = lib / "kmusec" / ("_ckernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    if proc.returncode != 0 or not ext.is_file():
        pytest.fail(f"building _ckernels.c failed:\n{proc.stdout}\n{proc.stderr}")
    for name in os.listdir(PACKAGE):
        if name.endswith(".py"):
            shutil.copy2(os.path.join(PACKAGE, name), lib / "kmusec")
    return lib


@pytest.fixture
def survival_calls(monkeypatch):
    """The argument tuples of every survival-series kernel call made
    through ``secrecy._k`` during the test."""
    from kmusec import secrecy

    calls = []
    kernels = secrecy._k

    class Counting:
        def __getattr__(self, name):
            return getattr(kernels, name)

        def survival_series(self, *args, **kwargs):
            calls.append(args)
            return kernels.survival_series(*args, **kwargs)

    monkeypatch.setattr(secrecy, "_k", Counting())
    return calls
