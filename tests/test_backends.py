"""Agreement between the compiled and pure-Python kernel backends.

Both implement the same algorithms; values must match to a few ulp
(the only permitted difference is the platform lgamma vs CPython's).
The compiled twin is the session build of the shipped ``_ckernels.c``
(``conftest.compiled_package``), whichever backend the rest of the suite
runs on."""
import importlib.util
import os
import re
import subprocess
import sys
import sysconfig

import mpmath as mp
import pytest

from kmusec import _pykernels as pyk

REL = 5e-13
PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "kmusec")


@pytest.fixture(scope="module")
def ck(compiled_package):
    """The compiled kernels, loaded by file path from the session build
    and kept out of ``sys.modules``."""
    path = compiled_package / "kmusec" / ("_ckernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    spec = importlib.util.spec_from_file_location("kmusec._ckernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScalarAgreement:
    @pytest.mark.parametrize("x", [1e-3, 0.5, 1.0, 7.3, 171.6, 1e6])
    def test_log_gamma(self, ck, x):
        assert ck.log_gamma(x) == pytest.approx(pyk.log_gamma(x), rel=REL, abs=1e-13)

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5, 5.5, 40.0])
    @pytest.mark.parametrize("x", [0.0, 0.2, 1.7, 6.0, 80.0])
    def test_gammainc(self, ck, s, x):
        assert ck.gammainc_upper_reg(s, x) == pytest.approx(
            pyk.gammainc_upper_reg(s, x), rel=REL, abs=1e-300)

    @pytest.mark.parametrize("v", [-0.5, 0.0, 0.2, 1.0, 2.5, 9.0])
    @pytest.mark.parametrize("x", [0.0, 0.1, 3.4, 31.0, 140.0])
    def test_bessel_ie(self, ck, v, x):
        if v < 0.0 and x == 0.0:
            return
        assert ck.bessel_ie(v, x) == pytest.approx(pyk.bessel_ie(v, x), rel=REL)

    @pytest.mark.parametrize("b,c,z", [
        (2.0, 2.0, 0.25), (4.1, 2.6, 0.62), (7.4, 3.3, 0.93),
        (12.2, 4.92, 0.999), (3.0, 2.0, 0.9), (0.5, 4.0, 0.3)])
    def test_gauss_2f1(self, ck, b, c, z):
        assert ck.gauss_2f1(1.0, b, c, z) == pytest.approx(
            pyk.gauss_2f1(1.0, b, c, z), rel=REL)

    @pytest.mark.parametrize("p,q,x", [
        (1.5, 2.0, 0.3), (0.92, 2.4, 0.68), (40.0, 1.2, 0.95)])
    def test_betainc(self, ck, p, q, x):
        assert ck.betainc_reg(p, q, x) == pytest.approx(
            pyk.betainc_reg(p, q, x), rel=REL)

    @pytest.mark.parametrize("m", [0.5, 1.0, 1.4, 3.5])
    @pytest.mark.parametrize("alpha", [0.0, 1.1, 4.0])
    @pytest.mark.parametrize("beta", [0.0, 0.9, 2.0, 40.0])
    def test_marcum(self, ck, m, alpha, beta):
        cv, cn, ce = ck.marcum_q_series(m, alpha, beta)
        pv, pn, pe = pyk.marcum_q_series(m, alpha, beta)
        assert cv == pytest.approx(pv, rel=REL, abs=1e-300)
        assert cn == pn
        assert ce == pytest.approx(pe, rel=1e-9, abs=1e-300)

    def test_marcum_large_intensity(self, ck):
        cv, _, _ = ck.marcum_q_series(2.0, 38.0, 37.0)
        pv, _, _ = pyk.marcum_q_series(2.0, 38.0, 37.0)
        assert cv == pytest.approx(pv, rel=1e-11)


SURVIVAL_CASES = [
    (0.91, 0.92, 1.07 * 0.91, 1.11 * 0.92, 2.07 * 0.91 / 2.0, 2.11 * 0.92),
    (1.0, 1.0, 15.0, 12.0, 16.0 / 2.0, 13.0),
    (2.0, 3.0, 8.0, 6.0, 5.0, 9.0),
    (1.0, 1.0, 15.0, 12.0, 16.0 / 1000.0, 13.0),
    (1.0, 1.0, 1e-9, 1e-9, 1.0 / 3.0, 1.0),
    (10.0, 10.0, 500.0, 500.0, 510.0, 510.0),
    # Poisson mean 0 on the outer side, on the inner side and on both
    (1.0, 1.0, 15.0, 0.0, 16.0 / 2.0, 1.0),
    (2.0, 3.0, 0.0, 6.0, 5.0, 9.0),
    (1.0, 1.0, 0.0, 0.0, 1.0 / 3.0, 1.0),
    (1000.0, 2.0, 0.0, 0.0, 1000.0 / 1.5, 2.0),
    # inner sums from l0 > 0 (alpha_m > 600), and z near 1e-4
    (5.0, 3.0, 2000.0, 4.0, 90.5, 7.0),
    (1.5, 2.0, 3.0, 2.5, 1e4, 1.0),
]


class TestSurvivalAgreement:
    @pytest.mark.parametrize("args", SURVIVAL_CASES)
    def test_value_and_counts(self, ck, args):
        cv, ck_, cl, ce = ck.survival_series(*args)
        pv, pk_, pl, pe = pyk.survival_series(*args)
        assert cv == pytest.approx(pv, rel=1e-12, abs=1e-15)
        assert (ck_, cl) == (pk_, pl)
        assert ce == pytest.approx(pe, rel=1e-6, abs=1e-300)


class TestSeedBlock:
    """The 2F1(1, p+q0; p+1; z) factors of the survival series come in
    blocks of 32 outer terms: the Gauss series at the block's top, the
    rest recurred down from it. Against 30-digit mpmath, the worst of a
    grid cell's 96 seeds (three blocks) misses by no more than the worst
    direct Gauss series over the same p, which the seeds replace."""

    @pytest.mark.parametrize("mu_e", [0.05, 0.6, 1.0, 3.0, 50.0])
    def test_seeds_against_mpmath(self, mu_e):
        eps = 2.0 ** -52
        for q0 in (0.05, 1.0, 3.0, 30.0, 1000.0):
            for z in (1e-4, 0.01, 0.1, 0.3, 0.5):
                seed_miss = direct_miss = 0.0
                for k in (0, 32, 64):
                    seeds = [0.0] * 32
                    pyk._seed_block(mu_e, k, q0, z, 10000, seeds)
                    for i, seed in enumerate(seeds):
                        p = mu_e + (k + i)
                        direct = pyk._gauss_series(1.0, p + q0, p + 1.0, z, 1e-15, 10000)
                        with mp.workdps(30):
                            ref = mp.hyp2f1(1, mp.mpf(p) + q0, mp.mpf(p) + 1, z)
                            seed_miss = max(seed_miss, float(abs(seed / ref - 1)))
                            direct_miss = max(direct_miss, float(abs(direct / ref - 1)))
                assert seed_miss <= direct_miss, (q0, z, seed_miss / eps, direct_miss / eps)
                if q0 <= 30.0:
                    assert seed_miss <= 16 * eps, (q0, z, seed_miss / eps)


def _import_kmusec(code, first_on_path=None):
    """Run ``code`` in a child interpreter with only ``PATH`` and this
    process's ``PYTHONPATH`` (after ``first_on_path``)."""
    path = [str(first_on_path)] if first_on_path else []
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)


class TestBackendSelection:
    def test_active_backend_reported(self):
        from kmusec import backend_name
        assert backend_name() in ("c", "python")

    @pytest.mark.parametrize("forced", ["python", "c"])
    def test_env_override(self, forced, request):
        # the session build first on the path gives the compiled twin; with
        # the extension unimportable the pure twin is selected
        if forced == "c":
            first, block = request.getfixturevalue("compiled_package"), ""
        else:
            first, block = None, "sys.modules['kmusec._ckernels'] = None; "
        code = ("import sys; " + block + "import kmusec; "
                f"sys.exit(0 if kmusec.backend_name() == '{forced}' else 1)")
        proc = _import_kmusec(code, first)
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("backend", ["python", "c"])
@pytest.mark.parametrize("argv", [
    ["spsc", "--km", "1", "--um", "1e308", "--ke", "1", "--ue", "1", "--method", "series"],
    ["spsc", "--km", "1", "--um", "1", "--ke", "1", "--ue", "1e308", "--method", "series"]])
def test_huge_mu_exit_3(backend, argv, request):
    # the rate (1+kappa) mu / gbar overflows to inf at mu 1e308; the
    # compiled twin used to sum on with it to SPSC 0.0 (or 1.0), exit 0
    if backend == "c":
        first, block = request.getfixturevalue("compiled_package"), ""
    else:
        first, block = None, "sys.modules['kmusec._ckernels'] = None; "
    code = ("import sys; " + block + "import kmusec; from kmusec import cli; "
            f"assert kmusec.backend_name() == '{backend}'; sys.exit(cli.main({argv!r}))")
    proc = _import_kmusec(code, first)
    assert (proc.returncode, proc.stdout) == (3, b""), proc.stderr
    assert b"gamma-mixture shape, mean or rate is not finite" in proc.stderr


def _public_callables(module):
    # the names ``kmubench/tracer.py`` (``_kernel_proxy``) wraps
    return {attr for attr in dir(module)
            if not attr.startswith("_") and callable(getattr(module, attr))
            and not isinstance(getattr(module, attr), type)}


def test_twins_expose_same_callables(ck):
    assert _public_callables(ck) == _public_callables(pyk)
    assert "survival_series" in _public_callables(pyk)


#: Cython quotes the .pyx around each statement it compiles: a header
#: ``/* "kmusec/_ckernels.pyx":N``, then `` * `` lines up to ``*/``, the
#: one ending in MARK being line N and the others its neighbours
_HEADER = re.compile(r'^\s*/\* "kmusec/_ckernels\.pyx":(\d+)$')
_MARK = "             # <<<<<<<<<<<<<<"


def test_generated_c_matches_pyx():
    """The shipped ``_ckernels.c`` was generated from the current
    ``_ckernels.pyx``; after editing the .pyx, regenerate it with
    ``cython -3 src/kmusec/_ckernels.pyx``."""
    with open(os.path.join(PACKAGE, "_ckernels.c")) as fh:
        c_lines = fh.read().splitlines()
    with open(os.path.join(PACKAGE, "_ckernels.pyx")) as fh:
        pyx = fh.read().splitlines()
    marked = 0
    mismatches = {}
    for i, line in enumerate(c_lines):
        header = _HEADER.match(line)
        if not header:
            continue
        body = []
        for quoted in c_lines[i + 1:]:
            if quoted.startswith("*/"):
                break
            body.append(quoted)
        at = [j for j, quoted in enumerate(body) if quoted.endswith(_MARK)]
        assert len(at) == 1, f"_ckernels.c line {i + 1}: {len(at)} marked lines"
        marked += 1
        for j, quoted in enumerate(body):
            n = int(header.group(1)) + j - at[0]
            text = quoted[3:-len(_MARK)] if j == at[0] else quoted[3:]
            if not 1 <= n <= len(pyx) or pyx[n - 1] != text:
                mismatches[n] = f"_ckernels.pyx:{n}: the .c quotes {text!r}"
    assert marked > 0
    assert not mismatches, "\n".join(mismatches[n] for n in sorted(mismatches)[:10])
