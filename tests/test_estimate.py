"""Trace normalization and fitting tests.

Recovery bands are derived from a repeated-seed spread measured over the
synthetic generator (8 to 10 seeds per configuration); each test here
pins one seed, so results are deterministic.
"""
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from kmusec import estimate as em
from kmusec.estimate import (EnvelopeTrace, fit_kappa_mu,
                             local_mean_normalize, read_trace,
                             sample_envelope, write_trace_binary)
from kmusec.fading import KappaMuParams


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
