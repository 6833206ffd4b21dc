"""Trace normalization and fitting tests.

Recovery bands are derived from a repeated-seed spread measured over the
synthetic generator (8 to 10 seeds per configuration); each test here
pins one seed, so results are deterministic.
"""
import itertools
import math
import re

import numpy as np
import pytest
from scipy.stats import ks_2samp

from kmusec import estimate as em
from kmusec import fading
from kmusec.estimate import (EnvelopeTrace, fit_kappa_mu,
                             local_mean_normalize, read_trace,
                             sample_envelope, write_trace_binary)
from kmusec.fading import KappaMuParams

from test_cli_golden import TRACE_SAMPLES as GOLDEN_SAMPLES
from test_cli_golden import TRACES as GOLDEN_TRACES


class TestLocalMeanNormalize:
    def test_constant_trace(self):
        tr = EnvelopeTrace(np.full(5000, 3.7))
        out = local_mean_normalize(tr, 101)
        assert np.allclose(out.samples, 1.0)

    def test_window_one(self):
        tr = EnvelopeTrace(np.abs(np.sin(np.arange(1000) * 0.1)) + 0.1)
        out = local_mean_normalize(tr, 1)
        assert np.allclose(out.samples, 1.0)

    def test_output_mean_near_one(self):
        rng = np.random.default_rng(5)
        tr = EnvelopeTrace(rng.gamma(3.0, 1.0, size=20000))
        out = local_mean_normalize(tr, 501)
        assert out.samples.mean() == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("window", [0, -3, 2, 100])
    def test_rejects_bad_window(self, window):
        tr = EnvelopeTrace(np.ones(5000))
        with pytest.raises(ValueError):
            local_mean_normalize(tr, window)

    @pytest.mark.parametrize("window", [3, 501, 9999])
    def test_matches_gathered_window_sums(self, window):
        # bit for bit the former formula, a gather of every sample's window
        # bounds from the cumulative sum; 9999 is the largest window a
        # 20,000-sample trace allows
        x = np.random.default_rng(23).gamma(2.0, 1.0, size=20_000)
        half = window // 2
        csum = np.concatenate(([0.0], np.cumsum(x)))
        idx = np.arange(x.size)
        lo = np.maximum(idx - half, 0)
        hi = np.minimum(idx + half, x.size - 1)
        gathered = x / ((csum[hi + 1] - csum[lo]) / (hi - lo + 1))
        assert np.array_equal(local_mean_normalize(EnvelopeTrace(x), window).samples, gathered)
        if window == 9999:
            with pytest.raises(ValueError, match="shorter than twice"):
                local_mean_normalize(EnvelopeTrace(x), window + 2)

    def test_rejects_short_trace(self):
        tr = EnvelopeTrace(np.ones(100))
        with pytest.raises(ValueError):
            local_mean_normalize(tr, 101)

    def test_strips_slow_shadowing(self):
        # kappa-mu envelope times a slow sinusoid, window 501; the
        # normalized stream should be distributed like a shadow-free
        # stream scaled to unit mean (two-sample KS at 5%)
        params = KappaMuParams(2.0, 1.5, 1.0)
        n = 40_000
        clean_a = sample_envelope(params, n, seed=101).samples
        shadow = 1.0 + 0.4 * np.sin(2.0 * math.pi * np.arange(n) / 8000.0)
        shadowed = EnvelopeTrace(clean_a * shadow)
        normalized = local_mean_normalize(shadowed, 501).samples

        clean_b = sample_envelope(params, n, seed=202).samples
        clean_b = clean_b / clean_b.mean()
        assert ks_2samp(normalized, clean_b).pvalue > 0.05


class TestFitKappaMu:
    def test_recovery_interior(self):
        # measured seed spread at n = 1e5: kappa <= 12%, mu <= 7%
        trace = sample_envelope(KappaMuParams(2.0, 1.5, 1.0), 100_000, seed=1)
        fit = fit_kappa_mu(trace)
        assert 1.7 <= fit.kappa_hat <= 2.3
        assert 1.35 <= fit.mu_hat <= 1.65
        assert fit.r_hat == pytest.approx(1.0, abs=0.01)
        assert fit.iterations > 0

    def test_recovery_rayleigh(self):
        trace = sample_envelope(KappaMuParams(1e-9, 1.0, 1.0), 100_000, seed=3)
        fit = fit_kappa_mu(trace)
        assert fit.kappa_hat <= 0.1
        assert 0.9 <= fit.mu_hat <= 1.1

    def test_recovery_v2v_small_sample(self):
        # n = 5e4; band 25 percent from the measured 10-seed spread
        # (maximum observed kappa error 24.5 percent at this n)
        trace = sample_envelope(KappaMuParams(5.02, 0.70, 1.0), 50_000,
                                seed=3, r_hat=1.04)
        fit = fit_kappa_mu(trace)
        assert abs(fit.kappa_hat - 5.02) / 5.02 <= 0.25
        assert abs(fit.mu_hat - 0.70) / 0.70 <= 0.25
        assert fit.r_hat == pytest.approx(1.04, abs=0.02)

    def test_scale_equivariance(self):
        base = sample_envelope(KappaMuParams(2.0, 1.2, 1.0), 60_000, seed=9)
        fit1 = fit_kappa_mu(base)
        fit2 = fit_kappa_mu(EnvelopeTrace(base.samples * 3.0))
        assert fit2.r_hat == pytest.approx(3.0 * fit1.r_hat, rel=1e-9)
        assert fit2.kappa_hat == pytest.approx(fit1.kappa_hat, rel=0.05)
        assert fit2.mu_hat == pytest.approx(fit1.mu_hat, rel=0.05)

    def test_normalization_idempotent_on_stationary_data(self):
        trace = sample_envelope(KappaMuParams(1.5, 1.0, 1.0), 80_000, seed=17)
        fit_raw = fit_kappa_mu(trace)
        fit_norm = fit_kappa_mu(local_mean_normalize(trace, 2001))
        assert abs(fit_norm.kappa_hat - fit_raw.kappa_hat) / fit_raw.kappa_hat < 0.10
        assert abs(fit_norm.mu_hat - fit_raw.mu_hat) / fit_raw.mu_hat < 0.10

    def test_residual_history_monotone(self):
        trace = sample_envelope(KappaMuParams(2.0, 1.5, 1.0), 20_000, seed=4)
        fit = fit_kappa_mu(trace, keep_history=True)
        hist = fit.history
        assert len(hist) > 3
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160])
    def test_rms_outside_range_refused(self, scale):
        # at 1e-200 every square underflowed, at 1e-160 the residual's
        # terms overflowed on every start, at 1e160 they were subnormal
        samples = sample_envelope(KappaMuParams(2.0, 1.2, 1.0), 20_000, seed=9).samples * scale
        rms = em._rms(samples)
        assert rms == pytest.approx(scale, rel=0.01)
        message = f"trace RMS {rms:.6g} is outside 1e-100 to 1e+100, the range a fit admits"
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_kappa_mu(EnvelopeTrace(samples))

    def test_rms_scales_exactly(self):
        # the plain formula's value where its squares stay normal, and that
        # value scaled by a power of two where they would overflow or
        # underflow
        samples = sample_envelope(KappaMuParams(2.0, 1.2, 1.0), 20_000, seed=9).samples
        rms = em._rms(samples)
        assert rms == float(np.sqrt(np.mean(samples ** 2)))
        for shift in (-1000, -600, 600, 1000):
            assert em._rms(samples * 2.0 ** shift) == math.ldexp(rms, shift)
        assert em._rms(np.zeros(5)) == 0.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_kappa_mu(EnvelopeTrace(np.ones(500)))

    def test_degenerate_histogram(self):
        with pytest.raises(ValueError):
            fit_kappa_mu(EnvelopeTrace(np.full(5000, 2.0)))

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            EnvelopeTrace(np.asarray([1.0, -0.5, 2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="trace samples must be finite"):
            EnvelopeTrace(np.asarray([1.0, bad, 2.0]))

    @pytest.mark.parametrize("width,message", [
        (0.0, "bin width must be finite and > 0"),
        (-0.1, "bin width must be finite and > 0"),
        (math.nan, "bin width must be finite and > 0"),
        (math.inf, "bin width must be finite and > 0"),
        # about 4e5 bins for 5000 samples: refused before the edges are built
        (1e-5, "gives more bins than the 5000 samples")])
    def test_bad_bin_width_rejected(self, width, message):
        trace = sample_envelope(KappaMuParams(2.0, 1.5, 1.0), 5000, seed=3)
        with pytest.raises(ValueError, match=message):
            fit_kappa_mu(trace, width)


class TestHistogramWidthCap:
    """The default width obeys the cap a given width does: no more bins
    than samples. One far outlier otherwise asks for tens of thousands of
    bins (a slow fit that ends on a bound) or, at 1e9, about 3e10."""

    @pytest.mark.parametrize("outlier", [1e3, 1e9])
    def test_outlier_refused_before_any_array(self, outlier):
        samples = sample_envelope(KappaMuParams(2.0, 1.5, 1.0), 20_000, seed=1).samples
        samples = samples.copy()
        samples[0] = outlier
        message = ("default .Freedman-Diaconis. bin width .* gives more bins than "
                   "the 20000 samples; pass a wider bin width$")
        with pytest.raises(em.BinWidthError, match=message):
            em._histogram_density(samples, None)
        with pytest.raises(em.BinWidthError, match=message):
            fit_kappa_mu(EnvelopeTrace(samples))


#: fit options of ``fit_kappa_mu``, as scipy.optimize.minimize takes them
FIT_OPTIONS = {"maxiter": 400, "xatol": 1e-5, "fatol": 1e-12}


def scipy_nelder_mead(fun, start, bounds, options):
    """scipy's bounded Nelder-Mead and the value of ``fun`` at the best
    vertex after each iteration, as a callback sees it."""
    from scipy.optimize import minimize

    history = []
    res = minimize(fun, np.asarray(start, dtype=float), method="Nelder-Mead",
                   bounds=bounds, callback=lambda xk: history.append(fun(xk)),
                   options=options)
    return res, tuple(history)


def scipy_points(fun, start, bounds, options):
    """The points scipy's bounded Nelder-Mead passes to the objective, in
    order, as pairs of floats, and the values it gets back."""
    from scipy.optimize import minimize

    points, values = [], []

    def recorded(x):
        points.append(tuple(x.tolist()))
        values.append(fun(x))
        return values[-1]

    minimize(recorded, np.asarray(start, dtype=float), method="Nelder-Mead",
             bounds=bounds, options=options)
    return points, values


def transcription_points(fun, start, bounds, options):
    """The points ``estimate._nelder_mead`` yields, in order."""
    points = []

    def evaluate(batch):
        points.extend(batch)
        return [fun(p) for p in batch]

    em._lockstep([em._nelder_mead(start, bounds, **options)], evaluate)
    return points


def branches(values):
    """The steps a Nelder-Mead search took, read off the values of the
    points it evaluated, in order: after the first simplex, which branch
    each iteration takes depends on values alone."""
    fsim = sorted(values[:3], key=lambda f: (math.isnan(f), f))
    taken, i = [], 3
    while i < len(values):
        fr = values[i]
        i += 1
        if fr < fsim[0]:
            fe = values[i]
            i += 1
            taken.append("expansion accepted" if fe < fr else "expansion rejected")
            fsim[2] = min(fe, fr)
        elif fr < fsim[1]:
            taken.append("reflection accepted")
            fsim[2] = fr
        else:
            outside = fr < fsim[2]
            taken.append("outside contraction" if outside else "inside contraction")
            fc = values[i]
            i += 1
            if fc <= fr if outside else fc < fsim[2]:
                fsim[2] = fc
            else:
                taken.append("shrink")
                fsim[1:] = values[i:i + 2]
                i += 2
        fsim.sort(key=lambda f: (math.isnan(f), f))
    return taken


def golden_objective(name):
    """The fit objective of one point on a golden trace, on the histogram
    ``fit_kappa_mu`` builds."""
    kappa, mu, seed, kind = GOLDEN_TRACES[name]
    samples = sample_envelope(KappaMuParams(kappa, mu, 1.0), GOLDEN_SAMPLES, seed).samples
    if kind == "power":
        samples = samples ** 2
    samples = samples.astype("<f4").astype(float)  # as the trace file holds them
    if kind == "power":
        samples = np.sqrt(samples)
    r_hat = float(np.sqrt(np.mean(samples ** 2)))
    centers, dens = em._histogram_density(samples, None)

    def objective(theta):
        model = fading.envelope_pdf(KappaMuParams(float(theta[0]), float(theta[1]), 1.0),
                                    centers, r_hat)
        diff = model - dens
        return float(np.dot(diff, diff))

    return objective


def assert_same_run(run, res, history):
    assert run.x == tuple(res.x)
    assert run.fun == res.fun
    assert run.nit == res.nit
    assert run.history == history


class TestSimplexTranscription:
    """``estimate._nelder_mead`` against ``scipy.optimize.minimize``: the
    same best vertex, value, iteration count and callback values, to the
    last bit."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
    def test_fit_starts_match_scipy(self, name):
        # every start of a fit on the traces of the CLI golden file, the
        # lockstep row batches against scipy's one point at a time
        kappa, mu, seed, kind = GOLDEN_TRACES[name]
        samples = sample_envelope(KappaMuParams(kappa, mu, 1.0), GOLDEN_SAMPLES, seed).samples
        if kind == "power":
            samples = samples ** 2
        samples = samples.astype("<f4").astype(float)  # as the trace file holds them
        if kind == "power":
            samples = np.sqrt(samples)
        r_hat = float(np.sqrt(np.mean(samples ** 2)))
        centers, dens = em._histogram_density(samples, None)

        def objective(theta):
            model = fading.envelope_pdf(KappaMuParams(float(theta[0]), float(theta[1]), 1.0),
                                        centers, r_hat)
            diff = model - dens
            return float(np.dot(diff, diff))

        runs = em._simplex_runs(centers, dens, r_hat)
        assert len(runs) == len(em.DEFAULT_STARTS)
        for start, run in zip(em.DEFAULT_STARTS, runs):
            res, history = scipy_nelder_mead(objective, start,
                                             [em.KAPPA_BOUNDS, em.MU_BOUNDS], FIT_OPTIONS)
            assert_same_run(run, res, history)

    @staticmethod
    def rosenbrock(p):
        return (1.0 - p[0]) ** 2 + 100.0 * (p[1] - p[0] * p[0]) ** 2

    @staticmethod
    def outside(p):
        # the unconstrained optimum (5, -3) lies outside the unit box
        return (p[0] - 5.0) ** 2 + (p[1] + 3.0) ** 2 + 0.1 * p[0] * p[1]

    @staticmethod
    def walled(p):
        return math.inf if p[0] + p[1] > 1.2 else (p[0] - 0.9) ** 2 + (p[1] - 0.5) ** 2

    @staticmethod
    def holed(p):
        return math.nan if p[0] + p[1] > 1.2 else (p[0] - 0.9) ** 2 + (p[1] - 0.5) ** 2

    @staticmethod
    def saddle(p):
        # least along two edges of the unit box, so contractions miss
        return p[0] * p[1]

    CASES = {
        "rosenbrock": ("rosenbrock", (-1.2, 1.0), [(-2.0, 2.0), (-1.0, 3.0)], 400),
        "optimum outside": ("outside", (0.5, 0.5), [(0.0, 1.0), (0.0, 1.0)], 400),
        # a start on the upper bound is reflected inward, a zero one takes
        # the absolute step
        "reflect and zero": ("outside", (0.99, 0.0), [(0.0, 1.0), (0.0, 1.0)], 400),
        "inf region": ("walled", (0.2, 0.3), [(0.0, 1.0), (0.0, 1.0)], 400),
        # two vertices of the first simplex are NaN: sorted last, in order
        "nan region": ("holed", (0.6, 0.6), [(0.0, 1.0), (0.0, 1.0)], 400),
        "maxiter 5": ("rosenbrock", (-1.2, 1.0), [(-2.0, 2.0), (-1.0, 3.0)], 5),
        "shrink": ("saddle", (0.5, 0.5), [(0.0, 1.0), (0.0, 1.0)], 400),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_synthetic_objectives_match_scipy(self, case):
        name, start, bounds, maxiter = self.CASES[case]
        fun = getattr(self, name)
        options = dict(FIT_OPTIONS, maxiter=maxiter)
        res, history = scipy_nelder_mead(fun, start, bounds, options)
        values = []

        def evaluate(points):
            values.extend(fun(p) for p in points)
            return values[-len(points):]

        [run] = em._lockstep([em._nelder_mead(start, bounds, **options)], evaluate)
        assert_same_run(run, res, history)
        if maxiter == 5:
            assert run.nit == 5
        if name == "holed":
            assert [math.isnan(v) for v in values[:3]] == [False, True, True]

    #: the golden trace and start whose points are compared with scipy's
    GOLDEN_START = ("nakagami", em.DEFAULT_STARTS[4])

    def case_points(self, case):
        name, start, bounds, maxiter = self.CASES[case]
        fun = getattr(self, name)
        options = dict(FIT_OPTIONS, maxiter=maxiter)
        return (transcription_points(fun, start, bounds, options),
                *scipy_points(fun, start, bounds, options))

    def golden_points(self):
        name, start = self.GOLDEN_START
        objective = golden_objective(name)
        bounds = [em.KAPPA_BOUNDS, em.MU_BOUNDS]
        return (transcription_points(objective, start, bounds, FIT_OPTIONS),
                *scipy_points(objective, start, bounds, FIT_OPTIONS))

    @pytest.mark.parametrize("case", list(CASES) + ["golden start"])
    def test_points_match_scipy(self, case):
        # every point the objective sees, in scipy's order, to the last
        # bit; the points scipy's callbacks evaluate are not among them
        ours, theirs, _ = self.golden_points() if case == "golden start" else self.case_points(case)
        assert all(type(c) is float for p in ours for c in p)
        assert ours == theirs

    def test_cases_take_every_branch(self):
        taken = set(branches(self.golden_points()[2]))
        for case in self.CASES:
            taken.update(branches(self.case_points(case)[2]))
        assert taken == {"expansion accepted", "expansion rejected", "reflection accepted",
                         "outside contraction", "inside contraction", "shrink"}

    def test_vertex_order_is_argsorts(self):
        # every three values from a set with ties, signed zeros, infinities
        # and NaN: the order scipy's np.argsort gives the simplex
        pool = (0.0, -0.0, 1.0, math.inf, -math.inf, math.nan)
        for fsim in itertools.product(pool, repeat=3):
            order = em._sorted3(0, fsim[0], 1, fsim[1], 2, fsim[2])[::2]
            assert list(order) == np.argsort(np.array(fsim)).tolist(), fsim


class TestTraceIo:
    def test_csv_with_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("envelope\n1.0\n2.5\n0.25\n")
        tr = read_trace(path)
        assert np.allclose(tr.samples, [1.0, 2.5, 0.25])

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("1.0\n2.5\n\n0.25\n")
        tr = read_trace(path)
        assert np.allclose(tr.samples, [1.0, 2.5, 0.25])

    def test_binary_round_trip(self, tmp_path):
        path = tmp_path / "trace.kmu"
        values = np.asarray([0.5, 1.25, 3.0], dtype="<f4")
        write_trace_binary(path, EnvelopeTrace(values.astype(float)))
        tr = read_trace(path)
        assert np.allclose(tr.samples, values)
        assert path.read_bytes().startswith(b"KMUTRC01")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\nnot-a-number\n2.0\n")
        with pytest.raises(ValueError):
            read_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_trace(path)
