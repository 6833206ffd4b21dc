"""Channel-model tests: density/distribution agreement, sampling, and
special-case factories.

Frozen values come from 30-digit mpmath evaluations of the density
formula and numerical integration of the density for the distribution
function; live 30-digit references come from ``mpref``.
"""
import functools
import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from kmusec import estimate, fading, secrecy
from kmusec.fading import ClusterSpec, KappaMuParams, make_special_case

import mpref


class TestParams:
    def test_valid(self):
        p = KappaMuParams(2.0, 1.5, 3.0)
        assert p.kappa == 2.0

    @pytest.mark.parametrize("kw", [dict(kappa=-0.1, mu=1.0, gamma_bar=1.0),
                                    dict(kappa=1.0, mu=0.0, gamma_bar=1.0),
                                    dict(kappa=1.0, mu=1.0, gamma_bar=0.0),
                                    dict(kappa=math.inf, mu=1.0, gamma_bar=1.0),
                                    dict(kappa=1.0, mu=math.inf, gamma_bar=1.0),
                                    dict(kappa=1.0, mu=1.0, gamma_bar=math.inf),
                                    dict(kappa=math.nan, mu=1.0, gamma_bar=1.0)])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            KappaMuParams(**kw)

    @pytest.mark.parametrize("mu,expected", [(1.0, 1), (3.0 + 5e-10, 3),
                                             (2.0 - 5e-10, 2), (1.5, None),
                                             (2.0 + 2e-9, None), (0.4, None),
                                             (1e-12, None)])
    def test_integer_mu(self, mu, expected):
        assert fading.integer_mu(mu) == expected

    def test_gamma_mixture(self):
        shape_m, alpha_m, beta_m = fading.gamma_mixture(KappaMuParams(4.0, 1.4, 2.0))
        shape_e, alpha_e, beta_e = fading.gamma_mixture(KappaMuParams(2.0, 1.2, 1.0))
        assert (shape_m, shape_e) == (1.4, 1.2)
        assert alpha_m == pytest.approx(5.6)
        assert alpha_e == pytest.approx(2.4)
        assert beta_m == pytest.approx(5.0 * 0.5 * 1.4)
        assert beta_e == pytest.approx(3.0 * 1.2)


class TestSnrPdf:
    def test_rayleigh_limit(self):
        p = KappaMuParams(1e-12, 1.0, 1.0)
        assert fading.snr_pdf(p, 0.7) == pytest.approx(math.exp(-0.7), abs=1e-6)

    def test_interior_point(self):
        p = KappaMuParams(2.0, 1.5, 2.0)
        assert fading.snr_pdf(p, 1.0) == pytest.approx(0.34723055468776726, rel=1e-12)

    def test_unit_mass_v2v(self):
        # V2V main-channel triple; analytic tail beyond the cut is < 1e-10
        p = KappaMuParams(5.02, 0.70, 1.04)
        upper = p.gamma_bar * (50.0 + 50.0 * p.kappa)
        mass, _ = quad(lambda g: fading.snr_pdf(p, g), 0.0, upper,
                       limit=200, epsabs=1e-11, epsrel=1e-11)
        assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("p", [KappaMuParams(0.5, 0.7, 1.0),
                                   KappaMuParams(5.0, 2.3, 0.4),
                                   KappaMuParams(0.0, 1.0, 2.0)])
    def test_nonnegative(self, p):
        for g in np.geomspace(1e-6, 50.0, 40):
            assert fading.snr_pdf(p, float(g)) >= 0.0

    def test_origin_behavior(self):
        assert fading.snr_pdf(KappaMuParams(1.0, 2.0, 1.0), 0.0) == 0.0
        assert fading.snr_pdf(KappaMuParams(1.0, 1.0, 2.0), 0.0) == pytest.approx(
            2.0 * math.exp(-1.0) / 2.0)
        with pytest.raises(ValueError):
            fading.snr_pdf(KappaMuParams(1.0, 0.7, 1.0), 0.0)
        with pytest.raises(ValueError):
            fading.snr_pdf(KappaMuParams(1.0, 1.0, 1.0), -0.3)

    @pytest.mark.parametrize("kappa", [0.0, 4.0])
    def test_edge_levels(self, kappa):
        # C / gbar at the origin for mu = 1, C = (1 + kappa) e^-kappa, and 0
        # above; 0 at an infinite level; NaN refused. RuntimeWarnings from
        # the library fail the suite (pyproject.toml)
        assert fading.snr_pdf(KappaMuParams(kappa, 1.0, 2.0), 0.0) == pytest.approx(
            (1.0 + kappa) * math.exp(-kappa) / 2.0, rel=1e-15)
        for mu in (0.7, 1.0, 2.5):
            p = KappaMuParams(kappa, mu, 2.0)
            assert fading.snr_pdf(p, math.inf) == 0.0
            assert fading.snr_pdf(p, [1.0, math.inf])[1] == 0.0
            if mu > 1.0:
                assert fading.snr_pdf(p, 0.0) == 0.0
            for fn in (fading.snr_pdf, fading.snr_cdf):
                with pytest.raises(ValueError, match="got nan"):
                    fn(p, [1.0, math.nan])

    def test_exact_zero_kappa_matches_epsilon(self):
        exact = KappaMuParams(0.0, 1.7, 2.0)
        eps = KappaMuParams(1e-9, 1.7, 2.0)
        for g in (0.2, 1.0, 4.0):
            assert fading.snr_pdf(exact, g) == pytest.approx(
                fading.snr_pdf(eps, g), rel=1e-7)

    def test_array_input(self):
        p = KappaMuParams(2.0, 1.5, 2.0)
        out = fading.snr_pdf(p, np.asarray([0.5, 1.0, 2.0]))
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.34723055468776726, rel=1e-12)


_MP_GRID = [(k, mu) for k in (0.0, 1e-6, 2.0, 49.0)
            for mu in (0.05, 0.5, 1.0, 3.7, 10.0)]
_MP_RHO = (0.2, 0.6, 0.9, 1.0, 1.1, 1.5)


@pytest.mark.parametrize("kappa,mu", _MP_GRID)
def test_snr_pdf_matches_mpmath(kappa, mu):
    gbar = 2.5
    p = KappaMuParams(kappa, mu, gbar)
    for rho in _MP_RHO:
        g = rho * rho * gbar
        ref = mpref.snr_pdf(kappa, mu, gbar, g)
        assert float(abs(fading.snr_pdf(p, g) - ref) / ref) <= 1e-12, rho


@pytest.mark.parametrize("kappa,mu", [(k, mu) for k in (1e3, 1e4, 1e5, 1e6, 1e9)
                                      for mu in (0.05, 0.5, 1.0, 3.7, 10.0)])
def test_snr_pdf_matches_mpmath_high_kappa(kappa, mu):
    # within 3 standard deviations of the mean, where the density's
    # exponent cancels to -mu (sqrt(kappa) - sqrt(x))^2; the grid above
    # reaches only kappa 49, and farther out the density underflows. At
    # kappa 1e9 and mu >= 1 the Bessel argument lies beyond the 2^30 up
    # to which scipy's ive is finite
    gbar = 2.5
    p = KappaMuParams(kappa, mu, gbar)
    sd = math.sqrt((1.0 + 2.0 * kappa) / mu) / (1.0 + kappa)
    for z in (-3.0, -1.0, 0.0, 1.0, 3.0):
        g = gbar * (1.0 + z * sd)
        ref = mpref.snr_pdf(kappa, mu, gbar, g)
        assert float(abs(fading.snr_pdf(p, g) - ref) / ref) <= 1e-12, z


@pytest.mark.parametrize("kappa,mu", _MP_GRID + [(0.0, mu) for mu in (50.0, 200.0, 500.0, 1000.0)])
def test_snr_cdf_matches_mpmath(kappa, mu):
    # the error model sop_exact's est_error rests on: relative
    # secrecy._CDF_REL_ERR, or absolute secrecy._CDF_ABS_ERR for values
    # the special function flushes to zero; deep lower tail to upper tail,
    # and the gamma law's lower tail at mu in the hundreds (rho 0.7, 0.76)
    gbar = 2.5
    p = KappaMuParams(kappa, mu, gbar)
    for rho in sorted((1e-4, 0.05, 0.7, 0.76, 2.5, 4.0) + _MP_RHO):
        g = rho * rho * gbar
        ref = mpref.snr_cdf(kappa, mu, gbar, g)
        miss = float(abs(fading.snr_cdf(p, g) - ref))
        assert miss <= secrecy._CDF_REL_ERR * float(ref) + secrecy._CDF_ABS_ERR, rho


class TestArrayPaths:
    """Array input gives the scalar results element by element, in the
    input's shape; scalar input gives a Python float."""

    PARAMS = [KappaMuParams(0.0, 0.7, 1.3), KappaMuParams(2.0, 1.0, 0.5),
              KappaMuParams(49.0, 3.7, 2.0), KappaMuParams(1e-9, 0.5, 1.0)]

    @pytest.mark.parametrize("p", PARAMS)
    def test_snr_pdf_and_cdf(self, p):
        g = np.geomspace(1e-6, 30.0, 12).reshape(3, 4) * p.gamma_bar
        for fn in (fading.snr_pdf, fading.snr_cdf):
            out = fn(p, g)
            assert out.shape == g.shape
            assert out.tolist() == [[fn(p, float(v)) for v in row] for row in g]

    @pytest.mark.parametrize("p", PARAMS)
    def test_envelope_pdf(self, p):
        r = np.linspace(0.05, 3.0, 12).reshape(2, 6)
        out = fading.envelope_pdf(p, r, 1.3)
        assert out.shape == r.shape
        assert out.tolist() == [[fading.envelope_pdf(p, float(v), 1.3) for v in row]
                                for row in r]

    def test_origin_inside_arrays(self):
        one = KappaMuParams(1.0, 1.0, 2.0)
        assert fading.snr_pdf(one, np.array([0.0, 1.0])).tolist() == [
            fading.snr_pdf(one, 0.0), fading.snr_pdf(one, 1.0)]
        half = KappaMuParams(2.0, 0.5, 1.0)
        assert fading.envelope_pdf(half, np.array([0.0, 1e-300, 0.4])).tolist() == [
            fading.envelope_pdf(half, v) for v in (0.0, 1e-300, 0.4)]
        with pytest.raises(ValueError):
            fading.snr_pdf(KappaMuParams(1.0, 0.7, 1.0), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            fading.snr_cdf(one, np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            fading.envelope_pdf(KappaMuParams(1.0, 0.4, 1.0), np.array([0.3, 0.0]))

    def test_scalar_returns_float(self):
        p = KappaMuParams(2.0, 1.5, 2.0)
        for value in (fading.snr_pdf(p, 1.0), fading.snr_pdf(p, np.float64(1.0)),
                      fading.snr_cdf(p, 1.0), fading.snr_cdf(p, 0.0),
                      fading.envelope_pdf(p, 0.8), fading.envelope_pdf(p, 0.0),
                      fading.snr_pdf(KappaMuParams(0.0, 1.0, 1.0), 0.0)):
            assert type(value) is float


class TestRowBatches:
    """The density takes (rows, 1) columns of kappa and mu broadcast
    against its argument, as the fit evaluates many points at once. Each
    row equals the scalar call bit for bit, whatever else is in the
    batch."""

    KAPPAS = (0.0, 1e-6, 1.0, 50.0)
    MUS = (0.05, 0.7, 1.0, 2.5, 10.0)
    ROWS = list(itertools.product(KAPPAS, MUS))
    # rho^2 underflows to 0 below about 1e-162 r_hat and is subnormal just
    # above; at r = 1e8 the kappa 50, mu 10 row's Bessel argument passes
    # the 2^30 range of scipy's ive
    LEVELS = np.array([1e-200, 1e-170, 1e-160, 1e-3, 0.2, 0.9, 1.0, 1.7, 3.0, 40.0, 1e8])

    @staticmethod
    def columns(rows):
        return (np.array([[v] for v in col]) for col in zip(*rows))

    def envelope_rows(self, rows, r_hat):
        return fading._density(*self.columns(rows), 1.0, fading._EnvelopeLevels(self.LEVELS, r_hat))

    def test_paths_covered(self):
        g = (self.LEVELS / 0.37) ** 2
        assert g[0] == g[1] == 0.0 and 0.0 < g[2] < 2.3e-308
        assert 2.0 * 10.0 * math.sqrt(50.0 * 51.0 * g[-1]) >= fading._IVE_RANGE

    @pytest.mark.parametrize("r_hat", [1.0, 0.37])
    def test_envelope_rows_equal_scalar_calls(self, r_hat):
        out = self.envelope_rows(self.ROWS, r_hat)
        assert out.shape == (len(self.ROWS), self.LEVELS.size)
        for (kappa, mu), row in zip(self.ROWS, out):
            scalar = fading.envelope_pdf(KappaMuParams(kappa, mu, 1.0), self.LEVELS, r_hat)
            assert np.array_equal(row, scalar), (kappa, mu)

    def test_snr_rows_equal_scalar_calls(self):
        g = np.array([1e-300, 1e-12, 0.3, 1.0, 2.5, 1e3, 1e20])
        gbar = np.resize([1.0, 0.1, 10.0], (len(self.ROWS), 1))
        out = fading._density(*self.columns(self.ROWS), gbar, fading._Levels(g))
        for (kappa, mu), gb, row in zip(self.ROWS, gbar[:, 0], out):
            scalar = fading.snr_pdf(KappaMuParams(kappa, mu, gb), g)
            assert np.array_equal(row, scalar), (kappa, mu, gb)

    def test_rows_do_not_depend_on_the_batch(self):
        full = self.envelope_rows(self.ROWS, 0.37)
        rng = np.random.default_rng(13)
        for size in (len(self.ROWS), 7, 2, 1):
            pick = rng.permutation(len(self.ROWS))[:size]
            out = self.envelope_rows([self.ROWS[i] for i in pick], 0.37)
            assert np.array_equal(out, full[pick])

    def test_nan_level_beside_far_levels(self):
        # a NaN level moves no other level off its path: at kappa 4, SNR 50
        # and envelope 5 lie past x = 30 with densities far from 0, SNR 5
        # and envelope 0.5 within it, and every other level of a batch
        # keeps its scalar call's value; the public functions refuse NaN
        rows = [(4.0, 1.0), (50.0, 2.5), (0.0, 0.7)]
        levels = np.array([np.nan, 0.5, 5.0, 50.0, 1e3])
        batch = fading._density(*self.columns(rows), 1.0, fading._Levels(levels))
        env_batch = fading._density(*self.columns(rows), 1.0, fading._EnvelopeLevels(levels, 1.0))
        for (kappa, mu), row, env_row in zip(rows, batch, env_batch):
            p = KappaMuParams(kappa, mu, 1.0)
            with pytest.raises(ValueError, match="got nan"):
                fading.snr_pdf(p, levels)
            with pytest.raises(ValueError, match="got nan"):
                fading.envelope_pdf(p, levels)
            for i, level in enumerate(levels[1:].tolist(), 1):
                assert row[i] == fading.snr_pdf(p, level), (kappa, mu, level)
                assert env_row[i] == fading.envelope_pdf(p, level), (kappa, mu, level)
        assert batch[0, 3] > 1e-90 and env_batch[0, 2] > 1e-90

    def test_distribution_rows_mixing_zero_kappa(self):
        # kappa = 0 rows (the gamma law) beside kappa > 0 rows, as an exact
        # SOP sweep of kappa_m from 0 batches them
        rows = [(0.0, 0.7), (2.0, 1.0), (0.0, 3.0), (1e-6, 10.0)]
        gbar = np.array([[1.0], [0.5], [2.0], [10.0]])
        g = np.array([0.0, 1e-300, 1e-6, 0.3, 1.0, 2.5, 40.0, 1e3, np.inf])
        out = fading._distribution(*self.columns(rows), gbar, g)
        assert out.shape == (len(rows), g.size)
        for (kappa, mu), gb, row in zip(rows, gbar[:, 0], out):
            scalar = fading.snr_cdf(KappaMuParams(kappa, mu, gb), g)
            assert np.array_equal(row, scalar), (kappa, mu, gb)
            assert row[0] == 0.0 and row[-1] == 1.0


    # rows in four power-of-two buckets of the Bessel series, two rows
    # sharing one; at these levels the Bessel arguments of the kappa 1.9
    # and 2 rows and of the kappa 50 row straddle the series' range, the
    # kappa 2 row's within an ulp of it
    SERIES_ROWS = [(0.02, 0.7), (2.0, 3.0), (1.9, 3.0), (50.0, 2.5), (1e-6, 10.0)]
    EDGE = 225.0 / (9.0 * 2.0 * 3.0)
    SERIES_LEVELS = np.array([1e-4, 0.01, 0.3, 1.0, 3.9, EDGE, math.nextafter(EDGE, 5.0),
                              9.0, 30.0])

    def test_series_paths_covered(self):
        kappa, mu = (np.array(col)[:, None] for col in zip(*self.SERIES_ROWS))
        s = mu * mu * kappa * (1.0 + kappa)
        buckets = np.frexp(s[:, 0] / 225.0)[1].tolist()
        assert len(set(buckets)) == 4 and buckets[1] == buckets[2]
        x = 2.0 * np.sqrt(s * self.SERIES_LEVELS)
        near = x <= fading._SERIES_RANGE
        assert [bool(row.any() and not row.all()) for row in near] == [
            False, True, True, True, False]

    def test_series_rows_equal_scalar_calls(self):
        gbar = np.resize([1.0, 0.5, 2.0], (len(self.SERIES_ROWS), 1))
        out = fading._density(*self.columns(self.SERIES_ROWS), gbar,
                              fading._Levels(self.SERIES_LEVELS))
        for (kappa, mu), gb, row in zip(self.SERIES_ROWS, gbar[:, 0], out):
            scalar = fading.snr_pdf(KappaMuParams(kappa, mu, gb), self.SERIES_LEVELS)
            assert np.array_equal(row, scalar), (kappa, mu, gb)

    def test_series_rows_do_not_depend_on_the_batch(self):
        def density(rows):
            return fading._density(*self.columns(rows), 1.0, fading._Levels(self.SERIES_LEVELS))

        full = density(self.SERIES_ROWS)
        for pick in ([3, 1], [2, 0, 4, 1], [4], [1, 2, 3, 0, 4]):
            out = density([self.SERIES_ROWS[i] for i in pick])
            for i, row in zip(pick, out):
                assert np.array_equal(row, full[i]), self.SERIES_ROWS[i]

    @staticmethod
    def shifts(kappa, mu):
        # the series' power-of-two shift of each envelope row, as _density
        # forms its s = root^2
        return -np.frexp((mu * np.sqrt(kappa * (1.0 + kappa))) ** 2 / 225.0)[1]

    def test_shared_levels_rows_equal_scalar_calls(self, monkeypatch):
        # one levels object serves every step of a fit: rows in four shift
        # buckets, levels past x = 30 (scipy's ive) for the kappa 2, 1.9 and
        # 50 rows, and a second call that takes every table from the first
        r, r_hat = np.array([1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0]), 0.8
        kappa, mu = self.columns(self.SERIES_ROWS)
        x = 2.0 * mu * np.sqrt(kappa * (1.0 + kappa)) * r / r_hat
        assert (x > fading._SERIES_RANGE).any(axis=1).tolist() == [False, True, True, True, False]
        assert len(set(self.shifts(kappa, mu)[:, 0].tolist())) == 4
        levels = fading._EnvelopeLevels(r, r_hat)
        first = fading._density(kappa, mu, 1.0, levels)
        built = dict(levels.tables)
        assert len(built) == 4
        powered = []
        powers = fading._powers
        monkeypatch.setattr(fading, "_powers", lambda u: powered.append(u) or powers(u))
        second = fading._density(kappa, mu, 1.0, levels)
        assert powered == []
        assert all(levels.tables[shift] is table for shift, table in built.items())
        for (k, m), a, b in zip(self.SERIES_ROWS, first, second):
            scalar = fading.envelope_pdf(KappaMuParams(k, m, 1.0), r, r_hat)
            assert np.array_equal(a, scalar) and np.array_equal(b, scalar), (k, m)

    def test_stored_tables_are_bounded(self):
        # levels in one block keep a table per shift for the whole fit. The
        # fit's bounds give s = mu^2 kappa (1 + kappa) from 2.5e-9 to 2.55e5,
        # shifts -11 to 36: at most 48 tables of 1024 levels x 48 powers x
        # 8 B, 18.9 MB, for the largest histogram whose tables are kept
        grid = itertools.product(np.geomspace(*estimate.KAPPA_BOUNDS, 200),
                                 np.geomspace(*estimate.MU_BOUNDS, 200))
        kappa, mu = (np.array(col)[:, None] for col in zip(*grid))
        e = self.shifts(kappa, mu)[:, 0]
        corners = self.shifts(np.array(estimate.KAPPA_BOUNDS), np.array(estimate.MU_BOUNDS))
        assert corners.tolist() == [36, -11] and set(e.tolist()) == set(range(-11, 37))
        pick = [e.tolist().index(shift) for shift in range(-11, 37)]
        r = np.linspace(1e-3, 3.0, fading._SERIES_BLOCK)
        fading._density(kappa[pick], mu[pick], 1.0, fading._EnvelopeLevels(r, 1.0))  # lazy imports
        tracemalloc.start()
        try:
            levels = fading._EnvelopeLevels(r, 1.0)
            before = tracemalloc.get_traced_memory()[0]
            fading._density(kappa[pick], mu[pick], 1.0, levels)
            stored = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        bound = 48 * fading._SERIES_BLOCK * fading._SERIES_TERMS * 8
        assert sorted(levels.tables) == list(range(-11, 37))
        assert sum(t.nbytes for t in levels.tables.values()) == bound
        assert stored < bound + 100_000

    def test_series_memory_is_bounded(self):
        # the series' power tables go in blocks of levels, so the peak stays
        # a few times the levels' own bytes; one table of all 1e5 levels
        # would take 38 MB. At kappa 15 the levels take both Bessel paths
        g = np.linspace(1e-3, 4.0, 100_000)
        p = KappaMuParams(15.0, 1.0, 1.0)
        fading.snr_pdf(p, g)  # lazy imports
        tracemalloc.start()
        try:
            fading.snr_pdf(p, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * g.nbytes


class TestBesselSeries:
    """The density with its Bessel factor as the power series of 0F1 up to
    x = 30, and with scipy's scaled ive past it, against 30-digit mpmath,
    with which elements reach ive."""

    @staticmethod
    def kappa_at(mu, x):
        # kappa at which the Bessel argument 2 mu sqrt(kappa (1 + kappa) g /
        # gbar) is x at g = gbar = 1, near the density's mean
        t = (x / (2.0 * mu)) ** 2
        return 2.0 * t / (math.sqrt(1.0 + 4.0 * t) + 1.0)

    @staticmethod
    def straddle(root):
        # the largest level whose argument x = 2 root sqrt(g) rounds to at
        # most 30, as the density forms it, and the next double above it
        g = (15.0 / root) ** 2
        while root * math.sqrt(g) > 15.0:
            g = math.nextafter(g, 0.0)
        while root * math.sqrt(math.nextafter(g, math.inf)) <= 15.0:
            g = math.nextafter(g, math.inf)
        return [g, math.nextafter(g, math.inf)]

    @staticmethod
    def count_ive(monkeypatch):
        from scipy import special

        ive, handed = special.ive, []

        def counting(v, x):
            handed.append(np.size(x))
            return ive(v, x)

        monkeypatch.setattr(special, "ive", counting)
        return handed

    @pytest.mark.parametrize("nu", [-0.95, -0.5, 0.0, 0.37, 1.0, 4.5, 9.0, 39.0])
    def test_matches_mpmath(self, nu, monkeypatch):
        # x = 1e-8 .. 29.9 at the mean, and the two levels either side of
        # x = 30
        handed = self.count_ive(monkeypatch)
        mu = nu + 1.0
        for x in (1e-8, 0.5, 5.0, 29.9, 30.0):
            kappa = self.kappa_at(mu, x)
            root = mu * math.sqrt(kappa * (1.0 + kappa))
            g = self.straddle(root) if x == 30.0 else [1.0]
            out = fading.snr_pdf(KappaMuParams(kappa, mu, 1.0), np.array(g))
            for level, value in zip(g, out):
                ref = mpref.snr_pdf(kappa, mu, 1.0, level)
                assert float(abs(value - ref) / ref) <= 1e-13, (x, level)
        # every level but the one past x = 30 took the series
        assert handed == [1]

    def test_rest_of_the_exponent_subnormal(self, monkeypatch):
        # at kappa 740 and x = 30 the density is normal, 1.8e-307, while
        # exp(ln f - ln 0F1) alone is 2.3e-319, subnormal with 5 digits:
        # ln 0F1 must go into the exponent, not multiply its exp
        handed = self.count_ive(monkeypatch)
        kappa, mu = 740.0, 1.0
        g = self.straddle(mu * math.sqrt(kappa * (1.0 + kappa)))[0]
        rest = fading._log_origin_coefficient(kappa, mu) - mu * (1.0 + kappa) * g
        assert 0.0 < math.exp(rest) < 1e-318
        value = fading.snr_pdf(KappaMuParams(kappa, mu, 1.0), g)
        ref = mpref.snr_pdf(kappa, mu, 1.0, g)
        assert 1e-307 < value and float(abs(value - ref) / ref) <= 1e-13
        assert handed == []

    @pytest.mark.parametrize("mu", [1e-300, 5e-324])
    def test_order_near_minus_one(self, mu, monkeypatch):
        # scipy's ive serves the elements that the series cannot: 0F1's
        # coefficients overflow for mu below about 1e-290 where its argument
        # s = mu^2 kappa (1 + kappa) is nonzero, as at mu 1e-300 and kappa
        # 1e150; at mu 5e-324, s underflows to 0, and 0F1 = 1
        for x in (0.5, 5.0, 29.9):
            ref = mpref.log_bessel_ie(mp.mpf(mu) - 1, x)
            log_ie = fading._log_bessel_ie(mu - 1.0, np.array([x]))[0]
            assert abs(mp.expm1(mp.mpf(log_ie) - ref)) <= 1e-13, x
        handed = self.count_ive(monkeypatch)
        kappa = 1e150
        out = fading.snr_pdf(KappaMuParams(kappa, mu, 1.0), np.array([0.5, 1.0, 2.0]))
        assert np.isfinite(out).all()
        assert handed == ([3] if (mu * math.sqrt(kappa * (1.0 + kappa))) ** 2 > 0.0 else [])

    def test_subnormal_powers_flush_to_zero(self, monkeypatch):
        # rows with s 1e-9..1e-6 scale the levels by 2^-27..2^-37, so their
        # high powers fall below the smallest normal double; entered as 0,
        # they leave every sum as it was, bit for bit
        b = np.array([[0.05], [0.7], [2.5], [10.0]])
        s = np.geomspace(1e-9, 1e-6, 4)[:, None]
        g = np.linspace(1e-3, 3.0, 115)
        flushed = fading._Levels(g)
        sums = fading._hyp0f1(b, s, flushed)
        monkeypatch.setattr(fading, "_TINY", 0.0)
        kept = fading._Levels(g)
        assert np.array_equal(fading._hyp0f1(b, s, kept), sums)
        assert sorted(kept.tables) == sorted(flushed.tables) and len(kept.tables) == 4
        tiny = np.finfo(float).tiny
        for shift, table in kept.tables.items():
            subnormal = (table > 0.0) & (table < tiny)
            assert subnormal.any(), shift
            assert (flushed.tables[shift][subnormal] == 0.0).all()
            assert np.array_equal(flushed.tables[shift][~subnormal], table[~subnormal])

    def test_far_levels_enter_the_table_as_zero(self):
        # levels past the series' range would overflow its powers; they
        # enter as 0, so every sum stays finite, 1 at those levels
        b, s = np.array([[0.5], [3.0]]), np.array([[2.0], [1e-9]])
        g = np.array([1.0, 1e3, 1e30, 1e300])
        out = fading._hyp0f1(b, s, fading._Levels(g))
        assert np.isfinite(out).all()
        assert out[0, 1:].tolist() == [1.0, 1.0, 1.0] and out[1, 3] == 1.0

    def test_first_dropped_term(self):
        # the truncation's worst case: order -> -1 (b = nu + 1 -> 0) at the
        # top of the range, 0F1 argument (30 / 2)^2 = 225
        assert (fading._SERIES_RANGE / 2.0) ** 2 == 225.0
        n = fading._SERIES_TERMS
        with mp.workdps(30):
            b, z = mp.mpf("1e-25"), mp.mpf(225)
            terms = [z ** k / (mp.rf(b, k) * mp.factorial(k)) for k in range(n + 1)]
            assert terms[n] < mp.mpf("1e-17") * mp.fsum(terms[:n])


class TestSnrCdf:
    def test_at_zero(self):
        assert fading.snr_cdf(KappaMuParams(3.0, 1.2, 1.0), 0.0) == 0.0

    def test_exponential_median(self):
        p = KappaMuParams(0.0, 1.0, 1.0)
        assert fading.snr_cdf(p, math.log(2.0)) == pytest.approx(0.5, abs=1e-7)

    def test_interior_point(self):
        # numerical integration of the density over [0, 1], D2D parameters
        p = KappaMuParams(1.07, 0.91, 1.0)
        assert fading.snr_cdf(p, 1.0) == pytest.approx(0.6092037946928820, abs=1e-11)

    def test_limits_and_monotonicity(self):
        p = KappaMuParams(2.5, 0.8, 1.3)
        grid = np.geomspace(1e-4, 60.0, 50)
        vals = [fading.snr_cdf(p, float(g)) for g in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[0] < 1e-3
        assert vals[-1] > 1.0 - 1e-9

    @pytest.mark.parametrize("p", [KappaMuParams(1.07, 0.91, 1.0),
                                   KappaMuParams(5.0, 2.0, 0.7),
                                   KappaMuParams(0.3, 0.6, 2.0)])
    def test_derivative_matches_pdf(self, p):
        # central differences on a 20-point grid across the distribution
        # body, relative error <= 1e-6
        for g in np.linspace(0.2, 3.0, 20) * p.gamma_bar:
            h = 1e-5 * g
            num = (fading.snr_cdf(p, g + h) - fading.snr_cdf(p, g - h)) / (2 * h)
            den = fading.snr_pdf(p, float(g))
            assert num == pytest.approx(den, rel=1e-6)

    def test_rayleigh_reduction(self):
        p = make_special_case("rayleigh", gamma_bar=2.0)
        for g in (0.1, 0.7, 2.0, 6.0):
            assert fading.snr_cdf(p, g) == pytest.approx(
                1.0 - math.exp(-g / 2.0), abs=1e-6)

    def test_rice_reduction(self):
        from kmusec import specfun
        K = 3.0
        p = make_special_case("rice", K=K, gamma_bar=1.5)
        for g in (0.2, 1.0, 3.0):
            expected = 1.0 - specfun.marcum_q(
                1.0, math.sqrt(2.0 * K), math.sqrt(2.0 * (1.0 + K) * g / 1.5))
            assert fading.snr_cdf(p, g) == pytest.approx(expected, abs=1e-12)

    def test_exact_zero_kappa_fast_path(self):
        exact = KappaMuParams(0.0, 1.4, 1.0)
        eps = KappaMuParams(1e-9, 1.4, 1.0)
        for g in (0.3, 1.0, 2.5):
            assert fading.snr_cdf(exact, g) == pytest.approx(
                fading.snr_cdf(eps, g), abs=1e-7)


class TestSampler:
    def test_mean_rayleigh(self):
        p = KappaMuParams(0.0, 1.0, 3.0)
        draws = fading.sample_snr(p, 1_000_000, seed=7)
        assert draws.mean() == pytest.approx(3.0, abs=0.01)

    def test_deterministic(self):
        p = KappaMuParams(2.0, 2.0, 1.0)
        a = fading.sample_snr(p, 1000, seed=42)
        b = fading.sample_snr(p, 1000, seed=42)
        assert np.array_equal(a, b)
        c = fading.sample_snr(p, 1000, seed=43)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("p,seed", [
        (KappaMuParams(2.0, 2.0, 1.0), 11),
        (KappaMuParams(3.60, 0.67, 1.0), 12),  # noninteger mu
    ])
    def test_ks_against_cdf(self, p, seed):
        draws = fading.sample_snr(p, 1_000_000, seed=seed)
        stat = kstest(draws, functools.partial(fading.snr_cdf, p)).statistic
        assert stat < 1.95 / math.sqrt(draws.size)

    @pytest.mark.parametrize("p,seed", [
        (KappaMuParams(1.07, 0.91, 2.0), 3),
        (KappaMuParams(7.17, 0.60, 1.0), 4),
        (KappaMuParams(0.0, 1.5, 0.5), 5),
    ])
    def test_mean_within_four_se(self, p, seed):
        n = 200_000
        draws = fading.sample_snr(p, n, seed=seed)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - p.gamma_bar) < 4.0 * se

    def test_moment_identity(self):
        # mu = E^2(1+2k) / (V (1+k)^2) on sampled moments
        p = KappaMuParams(2.0, 1.5, 2.0)
        draws = fading.sample_snr(p, 2_000_000, seed=9)
        e = draws.mean()
        v = draws.var(ddof=1)
        mu_est = e * e * (1.0 + 2.0 * p.kappa) / (v * (1.0 + p.kappa) ** 2)
        assert mu_est == pytest.approx(p.mu, rel=0.01)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            fading.sample_snr(KappaMuParams(1.0, 1.0, 1.0), 0, seed=1)


class TestClusterSpec:
    def test_invariants(self):
        params = KappaMuParams(2.0, 3.0, 1.5)
        spec = ClusterSpec.from_params(params)
        assert spec.mu_int == 3
        assert spec.kappa == pytest.approx(2.0, rel=1e-12)
        assert spec.gamma_bar == pytest.approx(1.5, rel=1e-12)
        assert spec.d_squared == pytest.approx(
            sum(x * x for x in spec.p) + sum(x * x for x in spec.q), rel=1e-12)

    def test_requires_integer_mu(self):
        with pytest.raises(ValueError):
            ClusterSpec.from_params(KappaMuParams(1.0, 1.5, 1.0))

    def test_length_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(mu_int=2, sigma=1.0, p=(1.0,), q=(1.0, 2.0))

    def test_construction_matches_cdf(self):
        # in-phase/quadrature construction vs the Marcum-Q distribution
        params = KappaMuParams(1.5, 2.0, 1.0)
        spec = ClusterSpec.from_params(params)
        draws = spec.sample_snr(200_000, seed=21)
        stat = kstest(draws, functools.partial(fading.snr_cdf, params)).statistic
        assert stat < 1.95 / math.sqrt(draws.size)


class TestSpecialCases:
    def test_rice(self):
        p = make_special_case("rice", K=15.0)
        assert (p.kappa, p.mu) == (15.0, 1.0)

    def test_nakagami(self):
        p = make_special_case("nakagami_m", m=2.0)
        assert p.kappa == 0.0
        assert p.mu == 2.0

    def test_one_sided_gaussian(self):
        p = make_special_case("one_sided_gaussian")
        assert p.kappa == 0.0
        assert p.mu == 0.5

    def test_rayleigh(self):
        p = make_special_case("rayleigh", gamma_bar=3.0)
        assert (p.kappa, p.mu, p.gamma_bar) == (0.0, 1.0, 3.0)

    def test_kappa_mu_passthrough(self):
        p = make_special_case("kappa_mu", kappa=4.0, mu=1.4)
        assert (p.kappa, p.mu) == (4.0, 1.4)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            make_special_case("weibull")

    @pytest.mark.parametrize("kw", [dict(K=-1.0), dict(K=0.0)])
    def test_bad_shape(self, kw):
        with pytest.raises(ValueError):
            make_special_case("rice", **kw)


class TestEnvelopePdf:
    def test_interior_point(self):
        # 30-digit evaluation of the envelope density formula
        p = KappaMuParams(2.0, 1.5, 1.0)
        assert fading.envelope_pdf(p, 0.8, 1.0) == pytest.approx(
            1.1712016943161238, rel=1e-12)

    def test_change_of_variables_consistency(self):
        # 2 r gbar / rhat^2 * f_gamma(gbar r^2 / rhat^2)
        p = KappaMuParams(2.0, 1.5, 3.0)
        r, r_hat = 0.8, 1.0
        direct = fading.envelope_pdf(p, r, r_hat)
        via_snr = (2.0 * r * p.gamma_bar / r_hat ** 2
                   * fading.snr_pdf(p, p.gamma_bar * r * r / r_hat ** 2))
        assert direct == pytest.approx(via_snr, rel=1e-12)

    def test_unit_mass(self):
        p = KappaMuParams(1.2, 0.8, 1.0)
        mass, _ = quad(lambda r: fading.envelope_pdf(p, r, 1.3), 0.0, 15.0,
                       limit=200)
        assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("kappa,mu", _MP_GRID)
    def test_matches_mpmath(self, kappa, mu):
        r_hat = 1.3
        p = KappaMuParams(kappa, mu, 1.0)
        for rho in _MP_RHO:
            ref = mpref.envelope_pdf(kappa, mu, r_hat, rho * r_hat)
            got = fading.envelope_pdf(p, rho * r_hat, r_hat)
            assert float(abs(got - ref) / ref) <= 1e-12, rho

    @pytest.mark.parametrize("kappa", [0.0, 1e-6, 2.0, 49.0])
    def test_origin(self, kappa):
        r_hat = 1.3
        with pytest.raises(ValueError):
            fading.envelope_pdf(KappaMuParams(kappa, 0.45, 1.0), 0.0, r_hat)
        assert fading.envelope_pdf(KappaMuParams(kappa, 0.7, 1.0), 0.0, r_hat) == 0.0
        # mu = 0.5: the density tends to a finite value as r -> 0; at
        # r = 1e-20 r_hat the 30-digit value equals that limit to 1e-40
        ref = mpref.envelope_pdf(kappa, 0.5, r_hat, mp.mpf("1e-20") * r_hat)
        got = fading.envelope_pdf(KappaMuParams(kappa, 0.5, 1.0), 0.0, r_hat)
        assert float(abs(got - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("kappa", [0.0, 4.0])
    def test_edge_levels(self, kappa):
        # rho = 1e-160 puts rho^2 among the subnormal doubles and 1e-170
        # below them, where only ln rho^2 = 2 ln rho is exact; 0 at an
        # infinite level; NaN refused
        r_hat = 1.3
        for mu in (0.05, 0.5, 0.7):
            p = KappaMuParams(kappa, mu, 1.0)
            for rho in ("1e-170", "1e-160"):
                ref = mpref.envelope_pdf(kappa, mu, r_hat, mp.mpf(rho) * r_hat)
                got = fading.envelope_pdf(p, float(mp.mpf(rho) * r_hat), r_hat)
                assert float(abs(got - ref) / ref) <= 1e-12, (mu, rho)
            assert fading.envelope_pdf(p, math.inf, r_hat) == 0.0
            assert fading.envelope_pdf(p, [1.0, math.inf], r_hat)[1] == 0.0
            with pytest.raises(ValueError, match="got nan"):
                fading.envelope_pdf(p, [1.0, math.nan], r_hat)

    def test_origin_law_beyond_exp_range(self):
        # mu^mu / Gamma(mu) alone overflows a double at mu = 800
        got = fading.envelope_pdf(KappaMuParams(0.0, 800.0, 1.0), [0.0, 1.0])
        assert got[0] == 0.0
        ref = mpref.envelope_pdf(0.0, 800.0, 1.0, 1.0)
        assert float(abs(got[1] - ref) / ref) <= 1e-12

    def test_rms_scaling(self):
        p = KappaMuParams(2.0, 1.5, 1.0)
        assert fading.envelope_pdf(p, 1.6, 2.0) == pytest.approx(
            fading.envelope_pdf(p, 0.8, 1.0) / 2.0, rel=1e-12)
