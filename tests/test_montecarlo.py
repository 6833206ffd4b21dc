"""Monte Carlo oracle tests: reproducibility, calibration against the
analytic engine, and the shared-draw event inclusion."""
import math
import threading

import numpy as np
import pytest

from kmusec import montecarlo, secrecy
from kmusec.fading import KappaMuParams, _sample_snr_with
from kmusec.secrecy import WiretapPair

import mpref


def pair(km, um, gbm, ke, ue, gbe, rate=0.0):
    return WiretapPair(KappaMuParams(km, um, gbm), KappaMuParams(ke, ue, gbe), rate)


class TestReproducibility:
    def test_bitwise_identical(self):
        p = pair(2.0, 1.5, 2.0, 1.0, 0.8, 1.0)
        a = montecarlo.mc_spsc(p, 50_000, seed=3)
        b = montecarlo.mc_spsc(p, 50_000, seed=3)
        assert a == b

    def test_seed_changes_stream(self):
        p = pair(2.0, 1.5, 2.0, 1.0, 0.8, 1.0)
        a = montecarlo.mc_spsc(p, 50_000, seed=3)
        b = montecarlo.mc_spsc(p, 50_000, seed=4)
        assert a.estimate != b.estimate

    def test_all_metrics_in_one_pass(self):
        p = pair(1.07, 0.91, 2.0, 1.11, 0.92, 1.0, rate=0.3)
        spsc, exact, lower = montecarlo.mc_all(p, 1_200_000, seed=6)
        assert spsc == montecarlo.mc_spsc(p, 1_200_000, seed=6)
        assert (exact, lower) == montecarlo.mc_sop_both(p, 1_200_000, seed=6)

    def test_chunking_invisible(self):
        # several chunks (n above the internal chunk size)
        p = pair(2.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        big = montecarlo.mc_spsc(p, 1_200_000, seed=5)
        assert big.n == 1_200_000
        assert 0.0 <= big.estimate <= 1.0


class TestParallelChunks:
    # several full chunks and a partial last one
    N = 3 * montecarlo._CHUNK + 12_345
    PAIR = pair(1.07, 0.91, 2.0, 1.11, 0.92, 1.0, rate=0.3)

    @pytest.mark.parametrize("fn", [montecarlo.mc_spsc, montecarlo.mc_sop_both,
                                    montecarlo.mc_all])
    def test_worker_count_invisible(self, monkeypatch, fn):
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_usable_cores", lambda: workers)
            results.append(fn(self.PAIR, self.N, seed=40))
        assert results[0] == results[1] == results[2]

    def test_worker_count_invisible_in_batch(self, monkeypatch):
        # several chunks and one, at rates 0, 0.3 and 700 nats, in one pool:
        # each job's triple is the one it gets alone
        jobs = [(pair(1.07, 0.91, 2.0, 1.11, 0.92, 1.0, rate=0.0), self.N, 44),
                (self.PAIR, 50_000, 45),
                (pair(1.07, 0.91, 2.0, 1.11, 0.92, 1.0, rate=700.0), self.N, 46)]
        alone = [montecarlo.mc_all(*job) for job in jobs]
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_usable_cores", lambda: workers)
            assert montecarlo.mc_many(jobs) == alone

    def test_one_chunk_is_the_seed_stream(self):
        n = montecarlo._CHUNK
        rng = np.random.Generator(np.random.Philox(key=41))
        gm = _sample_snr_with(rng, self.PAIR.main, n)
        ge = _sample_snr_with(rng, self.PAIR.eve, n)
        est = montecarlo.mc_spsc(self.PAIR, n, seed=41)
        assert est.estimate == np.count_nonzero(gm > ge) / n
        assert type(est.estimate) is float  # not a numpy scalar: the CLI writes JSON

    def test_worker_exception_propagates(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        threads = set()

        def events(pair, gm, ge):
            threads.add(threading.current_thread())
            raise AssertionError("raised in a worker")
        monkeypatch.setattr(montecarlo, "_events", events)
        with pytest.raises(AssertionError, match="raised in a worker"):
            montecarlo.mc_all(self.PAIR, self.N, 43)
        assert threads and threading.main_thread() not in threads


class TestCalibration:
    def test_identical_channels(self):
        p = pair(2.0, 1.3, 1.0, 2.0, 1.3, 1.0)
        est = montecarlo.mc_spsc(p, 1_000_000, seed=10)
        assert abs(est.estimate - 0.5) <= 4.0 * est.std_error

    def test_rayleigh_ratio(self):
        p = pair(0.0, 1.0, 3.0, 0.0, 1.0, 1.0)
        est = montecarlo.mc_spsc(p, 1_000_000, seed=11)
        assert abs(est.estimate - 0.75) <= 4.0 * est.std_error

    def test_d2d_matches_series(self):
        p = pair(1.07, 0.91, 2.0, 1.11, 0.92, 1.0)
        est = montecarlo.mc_spsc(p, 1_000_000, seed=12)
        analytic = secrecy.spsc_series(p).value
        assert abs(est.estimate - analytic) <= 3.0 * est.std_error

    def test_sop_brackets_exact(self):
        p = pair(4.0, 1.4, 5.0, 2.0, 1.2, 1.0, rate=10 ** 0.1)
        est, _ = montecarlo.mc_sop_both(p, 1_000_000, seed=13)
        analytic = secrecy.sop_exact(p).value
        assert abs(est.estimate - analytic) <= 3.0 * est.std_error

    def test_std_error_definition(self):
        est = montecarlo.mc_spsc(pair(1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
                                 10_000, seed=14)
        expected = math.sqrt(est.estimate * (1.0 - est.estimate) / est.n)
        assert est.std_error == pytest.approx(expected, rel=1e-12)


class TestSharedDraws:
    def test_lower_below_exact(self):
        p = pair(3.0, 1.2, 1.0, 2.0, 0.9, 1.0, rate=0.8)
        exact, lower = montecarlo.mc_sop_both(p, 200_000, seed=20)
        assert lower.estimate <= exact.estimate
        assert exact.seed == lower.seed == 20

    def test_rate_zero_events_coincide(self):
        p = pair(3.0, 1.2, 1.0, 2.0, 0.9, 1.0, rate=0.0)
        exact, lower = montecarlo.mc_sop_both(p, 100_000, seed=21)
        assert exact.estimate == lower.estimate

    def test_identical_channels_rate_zero(self):
        p = pair(1.5, 1.1, 1.0, 1.5, 1.1, 1.0)
        _, est = montecarlo.mc_sop_both(p, 1_000_000, seed=23)
        assert abs(est.estimate - 0.5) <= 4.0 * est.std_error

    def test_rate_beyond_exp_overflow_saturates(self):
        # at 705 nats every drawn pair is in outage by its events, as the
        # analytic paths compute, while the spsc event on the same draws is
        # counted as usual; e^705 times a large SNR overflows to an infinite
        # threshold
        p = pair(1.07, 0.91, 1.0, 1.11, 0.92, 1.0, rate=705.0)
        spsc, exact, lower = montecarlo.mc_all(p, 20_000, seed=24)
        assert exact.estimate == lower.estimate == 1.0
        assert exact.std_error == lower.std_error == 0.0
        assert spsc == montecarlo.mc_spsc(p, 20_000, seed=24)
        assert 0.0 < spsc.estimate < 1.0
        assert secrecy.sop_exact(p).value == secrecy.sop_lower(p).value == 1.0

    def test_lower_bound_near_exp_overflow(self):
        # gamma laws, where an eavesdropper mu of 0.01 keeps SOP^L about
        # 9e-4 below 1 at 701 nats: the draws against the incomplete-beta
        # complement
        p = pair(0.0, 1.0, 1.0, 0.0, 0.01, 1.0, rate=701.0)
        _, lower = montecarlo.mc_sop_both(p, 200_000, seed=25)
        ref = 1.0 - float(mpref.gamma_escape(1.0, 0.01, 1.0, 1.0, 701.0))
        assert lower.estimate < 1.0
        assert abs(lower.estimate - ref) <= 3.0 * lower.std_error


#: gamma laws with mu 0.1 or less on both links, where many drawn SNRs
#: are tiny, and one kappa 1 pair
SMALL_MU_PAIRS = [(0.0, 0.02, 1.0, 0.0, 0.02, 1.0), (0.0, 0.05, 1.0, 0.0, 0.05, 1.0),
                  (0.0, 0.1, 1.0, 0.0, 0.1, 1.0), (0.0, 0.02, 3.0, 0.0, 0.1, 1.0),
                  (1.0, 0.05, 1.0, 1.0, 0.05, 1.0)]


class TestOutageEvents:
    """The exact outage event's threshold is expm1(R_S) + e^{R_S} gamma_E,
    as the quadrature forms it: it never rounds below the lower bound's
    e^{R_S} gamma_E, and at rate 0 it is gamma_E itself. The threshold
    e^{R_S} (1 + gamma_E) - 1 rounded a tiny gamma_E to 0 at rate 0, so
    the lower-bound event escaped the exact one on such draws."""

    @pytest.mark.parametrize("channels", SMALL_MU_PAIRS)
    def test_rate_zero_exact_is_spsc_complement(self, channels):
        n = 200_000
        spsc, exact, lower = montecarlo.mc_all(pair(*channels), n, seed=50)
        assert round(spsc.estimate * n) + round(exact.estimate * n) == n
        assert exact == lower

    @pytest.mark.parametrize("rate", [0.0, 0.5, 700.0])
    @pytest.mark.parametrize("channels", SMALL_MU_PAIRS)
    def test_lower_event_implies_exact(self, channels, rate):
        p = pair(*channels, rate=rate)
        for i in range(2):
            rng = np.random.Generator(np.random.Philox(key=51).jumped(i))
            gm = _sample_snr_with(rng, p.main, 100_000)
            ge = _sample_snr_with(rng, p.eve, 100_000)
            _, exact, lower = montecarlo._events(p, gm, ge)
            assert lower.any() and not (lower & ~exact).any()


class TestConvergence:
    def test_doubling_n_halves_std_error(self):
        p = pair(2.0, 1.5, 2.0, 1.0, 0.8, 1.0)
        a = montecarlo.mc_spsc(p, 500_000, seed=30)
        b = montecarlo.mc_spsc(p, 1_000_000, seed=30)
        assert b.std_error * math.sqrt(2.0) == pytest.approx(
            a.std_error, rel=0.05)

    def test_minimum_n(self):
        with pytest.raises(ValueError):
            montecarlo.mc_spsc(pair(1, 1, 1, 1, 1, 1), 999, seed=0)
        with pytest.raises(ValueError):
            montecarlo.mc_sop_both(pair(1, 1, 1, 1, 1, 1), 10, seed=0)

    @pytest.mark.parametrize("bad,match", [((999, 1), "n must be at least 1000"),
                                           ((1000, -1), "seed must be in")])
    def test_batch_checked_before_any_draw(self, monkeypatch, bad, match):
        draws = []
        monkeypatch.setattr(montecarlo, "_sample_snr_with", lambda *args: draws.append(args))
        jobs = [(pair(1, 1, 1, 1, 1, 1), 1000, 0), (pair(1, 1, 1, 1, 1, 1), *bad)]
        with pytest.raises(ValueError, match=match):
            montecarlo.mc_many(jobs)
        assert draws == []
        assert montecarlo.mc_many([]) == []

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_seed_range(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in 0\.\.2\*\*128 - 1"):
            montecarlo.mc_all(pair(1, 1, 1, 1, 1, 1), 1000, seed=seed)
        est = montecarlo.mc_spsc(pair(1, 1, 1, 1, 1, 1), 1000, seed=2 ** 128 - 1)
        assert est.seed == 2 ** 128 - 1
