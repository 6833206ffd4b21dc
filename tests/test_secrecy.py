"""Secrecy-metric tests.

Expected values marked "quadrature oracle" are 30-digit mpmath
integrations of the SPSC/outage integrands; Monte Carlo references were
drawn once with an independent generator (numpy PCG64, Poisson-gamma
mixture, 10^7 draws) and frozen together with their standard errors.
"""
import math

import numpy as np
import pytest

from kmusec import fading, secrecy
from kmusec.cli import SWEEP_VARIABLES, SweepSpec
from kmusec.errors import ConvergenceError, PrecisionError, QuadratureError
from kmusec.fading import KappaMuParams, make_special_case
from kmusec.secrecy import (ClosedFormParams, EvalResult, QuadSpec,
                            WiretapPair, secrecy_capacity, series_many,
                            sop_exact, sop_lower, spsc_closed_form,
                            spsc_rayleigh_reference, spsc_rice_reference,
                            spsc_series)
from kmusec.specfun import DEFAULT_CONTROL, SeriesControl

import mpref

RS_1DB = 10.0 ** 0.1  # the "1 dB" target rate read as 10^(1/10) nats
EPS = np.finfo(float).eps
#: cluster parameters of the gamma-law (kappa = 0) checks
GAMMA_LAW_MUS = (0.05, 0.3, 1.0, 2.0, 7.5, 40.0, 1000.0)


def pair(km, um, gbm, ke, ue, gbe, rate=0.0):
    return WiretapPair(KappaMuParams(km, um, gbm), KappaMuParams(ke, ue, gbe), rate)


class TestTypes:
    def test_rate_validation(self):
        for rate in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                pair(1, 1, 1, 1, 1, 1, rate=rate)

    def test_rate_range_ends_where_exp_overflows(self):
        assert math.exp(pair(1, 1, 1, 1, 1, 1, rate=secrecy._MAX_RATE).rate) < math.inf
        beyond = float(np.nextafter(secrecy._MAX_RATE, math.inf))
        with pytest.raises(OverflowError):
            math.exp(beyond)
        with pytest.raises(ValueError, match="rate must be between 0 and 709.78"):
            pair(1, 1, 1, 1, 1, 1, rate=beyond)

    def test_eval_result_validation(self):
        with pytest.raises(ValueError):
            EvalResult(value=1.2, terms_k=1, terms_l=1, est_error=0.0,
                       method="series")
        with pytest.raises(ValueError):
            EvalResult(value=0.5, terms_k=1, terms_l=1, est_error=-1.0,
                       method="series")

    def test_closed_form_params(self):
        cf = ClosedFormParams.from_pair(pair(4, 2, 2, 2, 3, 1))
        assert cf.mu_idx == 2
        assert cf.v_idx == 1
        assert cf.A == pytest.approx(math.sqrt(2 * 2 * 3))
        assert cf.B == pytest.approx(math.sqrt(2 * 4 * 2))
        # beta_M = 5 * 0.5 * 2 = 5, beta_E = 3 * 1 * 3 = 9
        assert cf.r == pytest.approx(math.sqrt(5.0 / 9.0), rel=1e-12)
        assert cf.R == pytest.approx(cf.r + 1.0 / cf.r, rel=1e-12)

    def test_closed_form_requires_integer_mu(self):
        with pytest.raises(ValueError):
            ClosedFormParams.from_pair(pair(4, 1.4, 2, 2, 1.2, 1))

    @pytest.mark.parametrize("gbm,gbe", [(1.0, 1e-320), (1e-320, 1.0), (1e308, 1e-308)])
    def test_closed_form_params_beyond_double_ratio(self, gbm, gbe):
        # a mean-SNR ratio beyond a double drives r to 0 or infinity
        with pytest.raises(PrecisionError, match="double precision"):
            ClosedFormParams.from_pair(pair(1, 1, gbm, 1, 1, gbe))


class TestSecrecyCapacity:
    def test_equal_snrs(self):
        assert secrecy_capacity(3.0, 3.0) == 0.0

    def test_unit_rate(self):
        assert secrecy_capacity(math.e - 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_clamped(self):
        assert secrecy_capacity(1.0, 2.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            secrecy_capacity(-1.0, 0.0)


class TestSpscSeries:
    def test_identical_channels(self):
        p = pair(2.0, 1.3, 1.7, 2.0, 1.3, 1.7)
        assert spsc_series(p).value == pytest.approx(0.5, abs=1e-6)

    def test_rayleigh_reduction(self):
        p = pair(0.0, 1.0, 3.0, 0.0, 1.0, 1.0)
        assert spsc_series(p).value == pytest.approx(0.75, abs=1e-6)

    @pytest.mark.parametrize("gbm,gbe", [(1.0, 1.0), (1.5, 1.0), (0.2, 3.0)])
    @pytest.mark.parametrize("mu_e", GAMMA_LAW_MUS)
    @pytest.mark.parametrize("mu_m", GAMMA_LAW_MUS)
    def test_gamma_laws_at_rate_zero(self, mu_m, mu_e, gbm, gbe):
        # kappa = 0 on both channels: every outer term past the first
        # weighs exactly 0 and no inner term is summed, so the series is
        # its k = 0 term; the stop rule ends after three small terms
        p = pair(0.0, mu_m, gbm, 0.0, mu_e, gbe)
        ref = mpref.gamma_escape(mu_m, mu_e, gbm, gbe, 0.0)
        spsc, lower = spsc_series(p), sop_lower(p)
        assert spsc.terms_k <= 4 and spsc.terms_l == 0
        # the term's rounding: log-gammas of size ln Gamma(mu_M + mu_E + 1)
        # cancel to its log, so the miss grows with that size; measured, it
        # is at most 5.3 eps (1 + that size) at mu 0.05 on both sides and
        # 1.2 eps (1 + that size) at mu 1,000
        tol = 8.0 * EPS * (1.0 + math.lgamma(mu_m + mu_e + 1.0))
        assert float(abs(spsc.value - ref)) <= tol
        assert float(abs(lower.value - (1 - ref))) <= tol
        # est_error counts that rounding too
        assert float(abs(spsc.value - ref)) <= spsc.est_error
        assert float(abs(lower.value - (1 - ref))) <= lower.est_error

    @pytest.mark.parametrize("ratio", [1.0, 0.3])
    def test_rayleigh_rounding_within_est_error(self, ratio):
        # Rayleigh on both links: SPSC is gbar_M / (gbar_M + gbar_E); the
        # series' rounding misses it by a few ulps, which est_error bounds
        p = pair(0.0, 1.0, ratio, 0.0, 1.0, 1.0)
        spsc, lower = spsc_series(p), sop_lower(p)
        with mpref.mp.workdps(mpref.DPS):
            ref = mpref.mp.mpf(ratio) / (mpref.mp.mpf(ratio) + 1)
            assert abs(spsc.value - ref) <= spsc.est_error
            assert abs(lower.value - (1 - ref)) <= lower.est_error
        assert 0.0 < spsc.est_error < 1e-14

    def test_d2d_against_monte_carlo(self):
        # frozen independent MC: 10^7 draws, estimate 0.6782541, se 1.477e-4
        p = pair(1.07, 0.91, 2.0, 1.11, 0.92, 1.0)
        assert abs(spsc_series(p).value - 0.6782541) <= 3.0 * 1.477e-4

    def test_d2d_against_quadrature(self):
        p = pair(1.07, 0.91, 2.0, 1.11, 0.92, 1.0)
        res = spsc_series(p)
        assert res.value == pytest.approx(0.6782330300047487, abs=5e-12)
        assert res.method == "series"
        assert res.terms_k > 0 and res.terms_l > 0

    @pytest.mark.parametrize("args,expected", [
        ((15.0, 1.0, 1000.0, 12.0, 1.0, 1.0), 0.9999999944500560),
        ((5.02, 0.70, 100.0, 7.17, 0.60, 1.0), 0.9962700423570864),
    ])
    def test_high_snr_ratio(self, args, expected):
        # hypergeometric argument near 1; quadrature/mixture oracle
        assert spsc_series(pair(*args)).value == pytest.approx(expected, abs=1e-11)

    def test_reported_error_bounds_truth(self):
        p = pair(1.07, 0.91, 2.0, 1.11, 0.92, 1.0)
        res = spsc_series(p)
        assert res.est_error >= abs(res.value - 0.6782330300047487) - 1e-12

    def test_scale_invariance(self):
        base = pair(4.0, 1.4, 2.0, 2.0, 1.2, 1.0)
        v0 = spsc_series(base).value
        for c in (0.1, 10.0):
            scaled = pair(4.0, 1.4, 2.0 * c, 2.0, 1.2, 1.0 * c)
            assert spsc_series(scaled).value == pytest.approx(v0, abs=1e-9)


class TestSpscClosedForm:
    @pytest.mark.parametrize("args,expected", [
        ((4.0, 2.0, 2.0, 2.0, 3.0, 1.0), 0.8621319494417362),
        ((3.0, 1.0, 1.0, 1.5, 2.0, 1.0), 0.4844349430750560),
        ((2.0, 3.0, 1.5, 4.0, 1.0, 1.0), 0.7264230486766377),
    ])
    def test_against_quadrature(self, args, expected):
        res = spsc_closed_form(pair(*args))
        assert res.method == "closed_form"
        assert res.value == pytest.approx(expected, abs=1e-10)

    def test_rice_rice_matches_reference(self):
        res = spsc_closed_form(pair(15.0, 1.0, 1.0, 12.0, 1.0, 1.0))
        ref = spsc_rice_reference(15.0, 12.0, 1.0, 1.0)
        assert res.value == pytest.approx(ref, abs=1e-10)

    def test_identical_integer_channels(self):
        res = spsc_closed_form(pair(3.0, 2.0, 1.0, 3.0, 2.0, 1.0))
        assert res.value == pytest.approx(0.5, abs=1e-9)

    def test_cross_oracle_with_series(self):
        p = pair(4.0, 2.0, 2.0, 2.0, 3.0, 1.0)
        assert spsc_closed_form(p).value == pytest.approx(
            spsc_series(p).value, abs=1e-8)

    def test_noninteger_mu_rejected(self):
        with pytest.raises(ValueError):
            spsc_closed_form(pair(4.0, 1.4, 2.0, 2.0, 1.2, 1.0))

    def test_low_kappa_delegates_to_series(self):
        res = spsc_closed_form(pair(1e-9, 1.0, 3.0, 1e-9, 1.0, 1.0))
        assert res.method == "series"
        assert res.value == pytest.approx(0.75, abs=1e-6)

    def test_m_sum_matches_brute_force(self):
        # widening the order sum changes nothing: binomials outside their
        # range are zero
        p = pair(4.0, 2.0, 2.0, 2.0, 3.0, 1.0)
        assert spsc_closed_form(p).value == pytest.approx(
            _closed_form_brute(p, extra=6), abs=1e-13)


def _closed_form_brute(p, extra=0):
    """Closed form re-derived with an extended order range and explicit
    zero binomials; test-local oracle."""
    from kmusec import specfun

    cf = ClosedFormParams.from_pair(p)
    A, B, r, R = cf.A, cf.B, cf.r, cf.R
    s1r2 = 1.0 + r * r
    pp = specfun.marcum_q(1.0, A * r / math.sqrt(s1r2), B / math.sqrt(s1r2))
    pp -= (math.exp(-((A * r - B) ** 2) / (2.0 * s1r2))
           * specfun.bessel_i_scaled(0.0, A * B * r / s1r2) / s1r2)

    def comb0(n, k):
        return math.comb(n, k) if 0 <= k <= n else 0.0

    total = 0.0
    for m in range(-cf.mu_idx - extra, cf.v_idx + extra + 1):
        inner = sum(comb0(cf.v_idx + k, k + m) * r ** (cf.v_idx - k + 1)
                    * R ** (-cf.v_idx - k - 1)
                    for k in range(1, cf.mu_idx + 1))
        inner -= sum(comb0(j, m) * r ** (j - 1) * R ** (-j - 1)
                     for j in range(1, cf.v_idx + 1))
        total += ((A / (B * r)) ** m
                  * specfun.bessel_i_scaled(abs(m), A * B / R) * inner)
    expo = -((A * math.sqrt(r) - B / math.sqrt(r)) ** 2) / (2.0 * R)
    return 1.0 - pp - math.exp(expo) * total


class TestSopLower:
    def test_rate_zero_is_spsc_complement(self):
        p = pair(3.0, 1.7, 2.0, 1.0, 0.8, 1.0)
        assert sop_lower(p).value + spsc_series(p).value == pytest.approx(
            1.0, abs=1e-8)

    def test_identical_channels_rate_zero(self):
        p = pair(2.0, 1.3, 1.0, 2.0, 1.3, 1.0)
        assert sop_lower(p).value == pytest.approx(0.5, abs=1e-6)

    def test_section_v_example_against_monte_carlo(self):
        # frozen independent MC: 10^7 draws, estimate 0.6988969, se 1.451e-4
        p = pair(4.0, 1.4, 2.0, 2.0, 1.2, 1.0, rate=RS_1DB)
        assert abs(sop_lower(p).value - 0.6988969) <= 3.0 * 1.451e-4

    def test_section_v_example_against_quadrature(self):
        p = pair(4.0, 1.4, 2.0, 2.0, 1.2, 1.0, rate=RS_1DB)
        assert sop_lower(p).value == pytest.approx(0.6985507742223868, abs=5e-12)

    def test_scale_invariance(self):
        base = pair(4.0, 1.4, 2.0, 2.0, 1.2, 1.0, rate=0.7)
        v0 = sop_lower(base).value
        for c in (0.1, 10.0):
            scaled = pair(4.0, 1.4, 2.0 * c, 2.0, 1.2, 1.0 * c, rate=0.7)
            assert sop_lower(scaled).value == pytest.approx(v0, abs=1e-9)

    @pytest.mark.parametrize("mu_m,mu_e", [(1.0, 0.01), (3.0, 0.02)])
    @pytest.mark.parametrize("rate", [699.0, 701.0, 705.0, 709.0])
    def test_gamma_laws_near_exp_overflow(self, mu_m, mu_e, rate):
        # kappa = 0 on both channels, against the incomplete-beta
        # complement; the small side Pr(gamma_M > e^R gamma_E) is the one
        # summed. At (3, 0.02) and 709 nats b_M e^R overflows a double
        p = pair(0.0, mu_m, 1.0, 0.0, mu_e, 1.0, rate=rate)
        if (mu_m, rate) == (3.0, 709.0):
            with pytest.raises(PrecisionError):
                sop_lower(p)
            return
        sides, _, _, _ = secrecy._survival(p, math.exp(rate), DEFAULT_CONTROL)
        assert sop_lower(p).value == sides[1]
        ref = mpref.gamma_escape(mu_m, mu_e, 1.0, 1.0, rate)
        assert float(abs(sides[0] - ref) / ref) <= 1e-12


class TestSeriesMany:
    # main rate (1 + kappa) mu / gamma_bar of 14 and 0.35 against the
    # eavesdropper's 3.6: the series runs with either channel first
    @pytest.mark.parametrize("gbm,main_first", [(0.5, True), (20.0, False)])
    @pytest.mark.parametrize("rate", [0.0, RS_1DB, 705.0])
    def test_equals_separate_calls(self, survival_calls, gbm, main_first, rate):
        p = pair(4.0, 1.4, gbm, 2.0, 1.2, 1.0, rate=rate)
        m_rate = fading.gamma_mixture(p.main)[2]
        assert (m_rate >= fading.gamma_mixture(p.eve)[2]) == main_first
        ctl = SeriesControl(abs_tol=1e-13)
        separate = (spsc_series(p, ctl), sop_lower(p, ctl))
        survival_calls.clear()
        assert series_many([p], ctl) == [separate]
        # one series at rate 0
        assert len(survival_calls) == {0.0: 1, RS_1DB: 2, 705.0: 2}[rate]

    def test_default_control(self):
        p = pair(1.07, 0.91, 1.0, 1.11, 0.92, 1.0)
        assert series_many([p]) == [(spsc_series(p), sop_lower(p))]

    def test_mixed_batch(self, survival_calls):
        # both channel orders at rates 0, 10^0.1 and 705 nats, then a
        # repeated pair: each distinct (main, eve, rate scale), scales 1,
        # e^(10^0.1) and e^705 per channel pair, costs one kernel call
        pairs = [pair(4.0, 1.4, gbm, 2.0, 1.2, 1.0, rate=rate)
                 for gbm in (0.5, 20.0) for rate in (0.0, RS_1DB, 705.0)]
        pairs.append(pairs[1])
        ctl = SeriesControl(abs_tol=1e-13)
        separate = [(spsc_series(p, ctl), sop_lower(p, ctl)) for p in pairs]
        survival_calls.clear()
        assert series_many(pairs, ctl) == separate
        assert len(survival_calls) == 6

    def test_empty(self, survival_calls):
        assert series_many([]) == []
        assert survival_calls == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("huge_at", [0, 1, 3])
    @pytest.mark.parametrize("max_terms", [10_000, 5])
    def test_error_equals_separate_calls(self, huge_at, max_terms):
        # good pairs around the mu = 1e308 pair of tests/test_cli.py's
        # exit-3 case, whose rate is not finite; under a 5-term cap the
        # good pairs' series fail too, and the first failing series, in
        # the order the single calls meet them, sets the error
        pairs = [pair(4.0, 1.4, gbm, 2.0, 1.2, 1.0, rate=RS_1DB) for gbm in (0.5, 20.0, 3.0)]
        pairs.insert(huge_at, pair(1.0, 1e308, 1.0, 1.0, 1.0, 1.0))
        ctl = SeriesControl(max_terms=max_terms)
        with pytest.raises(ConvergenceError) as separate:
            [(spsc_series(p, ctl), sop_lower(p, ctl)) for p in pairs]
        with pytest.raises(type(separate.value)) as batched:
            series_many(pairs, ctl)
        assert str(batched.value) == str(separate.value)
        if max_terms == 10_000:
            assert isinstance(batched.value, PrecisionError)


class TestSopExact:
    def test_rate_zero_identical_channels(self):
        p = pair(2.0, 1.3, 1.7, 2.0, 1.3, 1.7)
        assert sop_exact(p).value == pytest.approx(0.5, abs=1e-6)

    def test_huge_rate_saturates(self):
        p = pair(2.0, 1.3, 1.7, 2.0, 1.3, 1.7, rate=50.0)
        assert sop_exact(p).value == pytest.approx(1.0, abs=1e-9)

    def test_rate_beyond_exp_overflow(self):
        # e^1000 overflows a double: no such pair; at the largest rate whose
        # e^{R_S} is a double the quadrature runs and finds outage certain
        with pytest.raises(ValueError, match="rate must be between 0 and 709.78"):
            pair(2.0, 1.3, 1.7, 2.0, 1.3, 1.7, rate=1000.0)
        res = sop_exact(pair(2.0, 1.3, 1.7, 2.0, 1.3, 1.7, rate=secrecy._MAX_RATE))
        assert res.terms_k > 0
        assert abs(res.value - 1.0) <= res.est_error

    def test_fig4_style_against_monte_carlo(self):
        # frozen independent MC: 10^7 draws, estimate 0.6262911, se 1.530e-4
        p = pair(4.0, 1.4, 5.0, 2.0, 1.2, 1.0, rate=RS_1DB)
        res = sop_exact(p)
        assert abs(res.value - 0.6262911) <= 3.0 * 1.530e-4
        assert res.value >= sop_lower(p).value

    def test_fig4_style_against_quadrature_oracle(self):
        p = pair(4.0, 1.4, 5.0, 2.0, 1.2, 1.0, rate=RS_1DB)
        res = sop_exact(p)
        assert res.method == "quadrature"
        assert res.value == pytest.approx(0.6262002931212224, abs=2e-9)

    def test_complement_at_rate_zero(self):
        p = pair(4.0, 1.4, 2.0, 2.0, 1.2, 1.0)
        assert sop_exact(p).value + spsc_series(p).value == pytest.approx(
            1.0, abs=1e-6)

    @pytest.mark.parametrize("km", [1.0, 4.0, 10.0])
    @pytest.mark.parametrize("b", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("rate", [0.0, 0.5, RS_1DB])
    def test_bound_ordering_grid(self, km, b, rate):
        p = pair(km, 1.4, b, 2.0, 1.2, 1.0, rate=rate)
        gap = sop_exact(p).value - sop_lower(p).value
        assert gap >= -1e-9  # equality at rate 0 up to quadrature noise

    def test_tight_quadrature_control(self):
        p = pair(4.0, 1.4, 5.0, 2.0, 1.2, 1.0, rate=RS_1DB)
        res = sop_exact(p, QuadSpec(abs_tol=1e-11, rel_tol=1e-11, limit=300))
        assert res.value == pytest.approx(0.6262002931212224, abs=2e-10)

    @pytest.mark.parametrize("main,rate", [
        ((15.0, 1.0, 10.0 ** -0.4), 0.0),   # Rice/Rice at -4 dB
        ((15.0, 1.0, 10.0 ** 1.4), 0.0),    # 14 dB
        ((15.0, 1.0, 10.0 ** 3.8), 0.0),    # 38 dB, outage 7.9e-10
        ((4.0, 1.4, 10.0 ** 0.7), RS_1DB),  # fig4 at 7 dB
    ])
    def test_error_bound_against_mpmath(self, main, rate):
        eve = (12.0, 1.0, 1.0) if rate == 0.0 else (2.0, 1.2, 1.0)
        res = sop_exact(WiretapPair(KappaMuParams(*main), KappaMuParams(*eve), rate))
        miss = float(abs(res.value - mpref.sop_exact(main, eve, rate)))
        assert miss <= res.est_error
        assert miss <= 1e-9

    @pytest.mark.parametrize("main,eve", [
        ((3.0, 1.0, 1.0), (1.0, 0.05, 1.0)),
        ((5.02, 0.70, 10.0 ** 0.5), (7.17, 0.60, 1.0)),  # v2v's shapes at 5 dB
    ])
    def test_singular_eavesdropper_against_mpmath(self, main, eve):
        # mu_E < 1: the eavesdropper density diverges at the origin; at
        # mu_E 0.05 the first pass's smallest node has gamma_E near 1e-143
        res = sop_exact(WiretapPair(KappaMuParams(*main), KappaMuParams(*eve), 0.1))
        miss = float(abs(res.value - mpref.sop_exact(main, eve, 0.1)))
        assert miss <= res.est_error

    @pytest.mark.parametrize("mu_e,expected", [
        (0.05, 0.1270258802734558), (0.2, 0.21622792139473293),
        (0.5, 0.2552539955119921), (0.92, 0.2658899241257522),
        (2.0, 0.2687634647409759)])
    def test_singular_eavesdropper_origin(self, mu_e, expected):
        # the density diverges at gamma_E = 0 for mu_E < 1; the expected
        # values are scipy.integrate.quad (QUADPACK qags, 1e-9 tolerances)
        # on the same integral mapped by gamma_E = t/(1-t) alone
        p = WiretapPair(KappaMuParams(2.0, 1.5, 3.0), KappaMuParams(1.0, mu_e, 1.0), 0.3)
        assert sop_exact(p).value == pytest.approx(expected, abs=1e-9)

    def test_subinterval_limit_raises(self):
        p = WiretapPair(KappaMuParams(2.0, 1.5, 3.0), KappaMuParams(1.0, 0.5, 1.0), 0.3)
        with pytest.raises(QuadratureError):
            sop_exact(p, QuadSpec(limit=1))

    def test_non_finite_integrand_raises(self):
        # a NaN node used to leave no subinterval to bisect, and every
        # later pass evaluated nothing, without end
        def integrand(owner, t):
            return np.where(t > 0.5, np.nan, 1.0)
        with pytest.raises(QuadratureError, match="not finite"):
            secrecy._gauss_kronrod(integrand, QuadSpec())

    def test_tolerance_below_rounding_floor_raises_at_once(self, monkeypatch):
        # fig4 at 7 dB: the summed rounding floor is about 7e-15, which no
        # bisection lowers; the first pass (one distribution-function
        # call) already shows that 1e-15 cannot be met
        calls = []
        cdf = secrecy.fading._distribution

        def counted(kappa, mu, gbar, gamma):
            calls.append(np.size(gamma))
            return cdf(kappa, mu, gbar, gamma)

        monkeypatch.setattr(secrecy.fading, "_distribution", counted)
        p = pair(4.0, 1.4, 10.0 ** 0.7, 2.0, 1.2, 1.0, rate=RS_1DB)
        with pytest.raises(QuadratureError, match="rounding floor"):
            sop_exact(p, QuadSpec(abs_tol=1e-15, rel_tol=1e-15, limit=5000))
        assert calls == [secrecy._INITIAL_PIECES * secrecy._GK_NODES.size]


class TestSopExactMany:
    """One batched quadrature for many pairs gives each pair the result
    it gets alone, whichever pairs share the batch."""

    @staticmethod
    def sweep_pairs(variable, steps=7):
        # the pairs ``kmusec sweep`` builds over ``variable`` around fig4's
        # shapes at 5 dB
        bounds = {"gamma_bar_m_db": (-10.0, 30.0), "gamma_bar_e_db": (-10.0, 30.0),
                  "kappa_m": (0.5, 8.0), "kappa_e": (0.5, 8.0), "mu_m": (0.5, 3.0),
                  "mu_e": (0.3, 3.0), "rate": (0.0, 2.5)}[variable]
        fixed = pair(4.0, 1.4, 10.0 ** 0.5, 2.0, 1.2, 1.0, rate=RS_1DB)
        spec = SweepSpec(variable, *bounds, steps, fixed)
        return [spec.pair_at(value) for value in spec.grid()]

    @pytest.mark.parametrize("variable", sorted(SWEEP_VARIABLES))
    def test_sweep_batch_equals_single(self, variable):
        pairs = self.sweep_pairs(variable)
        assert secrecy.sop_exact_many(pairs) == [sop_exact(p) for p in pairs]

    def test_mixed_batch_equals_single(self):
        pairs = [p for v in sorted(SWEEP_VARIABLES) for p in self.sweep_pairs(v, 3)]
        pairs += [
            pair(0.0, 1.7, 2.0, 1.0, 0.5, 1.0, rate=0.3),  # kappa_M = 0: gamma law
            pair(0.0, 0.6, 0.5, 0.0, 2.0, 1.0),
            pair(3.0, 1.0, 1.0, 1.0, 0.05, 1.0, rate=0.1),  # gamma_E down to 1e-143
            pair(2.0, 1.3, 1.7, 2.0, 1.3, 1.7, rate=705.0),  # e^R near overflow
        ]
        order = np.random.default_rng(7).permutation(len(pairs))
        batch = secrecy.sop_exact_many([pairs[i] for i in order])
        assert len({p.eve for p in pairs}) > 10
        assert batch == [sop_exact(pairs[i]) for i in order]
        assert batch[list(order).index(len(pairs) - 1)].terms_k > 0

    def test_density_once_per_distinct_node(self, monkeypatch):
        # a sweep over the main channel shares the eavesdropper and its
        # first-pass nodes: one density call over 168 nodes for all points
        sizes = []
        density = secrecy.fading._density

        def counted(kappa, mu, gbar, levels):
            sizes.append(levels.g.size)
            return density(kappa, mu, gbar, levels)

        monkeypatch.setattr(secrecy.fading, "_density", counted)
        secrecy.sop_exact_many(self.sweep_pairs("gamma_bar_m_db", 41))
        assert sizes[0] == secrecy._INITIAL_PIECES * secrecy._GK_NODES.size

    def test_one_failing_point_fails_the_batch(self):
        # scipy's noncentral chi-square is NaN at kappa 1e9, mu 10
        good = pair(4.0, 1.4, 5.0, 2.0, 1.2, 1.0, rate=RS_1DB)
        bad = pair(1e9, 10.0, 1.0, 1.0, 1.0, 1.0, rate=0.1)
        with pytest.raises(QuadratureError, match="not finite"):
            secrecy.sop_exact_many([good, bad, good])

    def test_empty_and_saturated(self):
        assert secrecy.sop_exact_many([]) == []
        p = pair(2.0, 1.3, 1.7, 2.0, 1.3, 1.7, rate=705.0)
        assert secrecy.sop_exact_many((p, p)) == [sop_exact(p)] * 2


class TestSeriesTails:
    """SPSC and SOP^L far into the tails, where one side of
    Pr(gamma_M > e^R gamma_E) is many orders below the other; each must
    stay within its ``est_error`` of the 30-digit reference."""

    @pytest.mark.parametrize("main,db,eve", [
        ((0.5, 0.05), 30, (3.0, 3.0)),
        ((4.0, 1.4), 40, (2.0, 1.2)),
        ((1.07, 0.91), 50, (1.11, 0.92)),
        ((2.92, 0.75), 60, (3.6, 0.67)),
        ((5.02, 0.7), 80, (7.17, 0.6)),
        ((2.0, 1.5), 100, (1.5, 0.8)),
    ])
    def test_against_mpmath(self, main, db, eve):
        gbar_m = 10.0 ** (db / 10.0)
        outage = mpref.sop_exact(main + (gbar_m,), eve + (1.0,), 0.0)
        spsc = spsc_series(pair(*main, gbar_m, *eve, 1.0))
        assert abs(spsc.value - float(1 - outage)) <= spsc.est_error
        # Pr(gamma_M <= e^R gamma_E) is the rate-0 outage at gbar_M / e^R
        rate = 0.7
        lower = sop_lower(pair(*main, gbar_m * math.exp(rate), *eve, 1.0, rate=rate))
        assert abs(lower.value - float(outage)) <= lower.est_error

    @pytest.mark.parametrize("db", [60, 80, 100, 120])
    def test_rice_high_snr_asymptote(self, db):
        # Rice K = 1 on both links, gbar_E = 1: the outage is
        # 2 e^-1 / gbar_M with a relative correction O(gbar_M^-2)
        gbar_m = 10.0 ** (db / 10.0)
        outage = 0.7357588823428847 / gbar_m
        p = pair(1.0, 1.0, gbar_m, 1.0, 1.0, 1.0)
        spsc, lower = spsc_series(p), sop_lower(p)
        assert abs(spsc.value - (1.0 - outage)) <= spsc.est_error
        assert abs(lower.value - outage) <= lower.est_error


class TestMonotonicity:
    def test_spsc_nondecreasing_in_main_snr(self):
        vals = []
        for db in np.linspace(-10.0, 30.0, 11):
            p = pair(4.0, 1.4, 10.0 ** (db / 10.0), 2.0, 1.2, 1.0)
            vals.append(spsc_series(p).value)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_sop_nonincreasing_in_main_snr(self):
        vals = []
        for db in np.linspace(-10.0, 30.0, 9):
            p = pair(4.0, 1.4, 10.0 ** (db / 10.0), 2.0, 1.2, 1.0, rate=RS_1DB)
            vals.append(sop_exact(p).value)
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


class TestReferenceReductions:
    def test_rice_reference_symmetry(self):
        assert spsc_rice_reference(5.0, 5.0, 2.0, 2.0) == pytest.approx(
            0.5, abs=1e-12)

    def test_rice_reference_rayleigh_limit(self):
        assert spsc_rice_reference(1e-9, 1e-9, 3.0, 1.0) == pytest.approx(
            0.75, abs=1e-6)

    def test_rice_reference_interior(self):
        # quadrature of the SPSC integrand with Rice parameters
        assert spsc_rice_reference(15.0, 12.0, 2.0, 1.0) == pytest.approx(
            0.9043796097987888, abs=1e-10)

    @pytest.mark.parametrize("K", [2.0, 9.0])
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 4.0])
    def test_series_reduces_to_rice(self, K, ratio):
        p = pair(K, 1.0, ratio, K * 0.8, 1.0, 1.0)
        ref = spsc_rice_reference(K, K * 0.8, ratio, 1.0)
        assert spsc_series(p).value == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("gm,ge,expected", [
        (1.0, 1.0, 0.5), (3.0, 1.0, 0.75), (1.0, 4.0, 0.2)])
    def test_rayleigh_reference(self, gm, ge, expected):
        assert spsc_rayleigh_reference(gm, ge) == pytest.approx(expected, rel=1e-14)

    def test_series_reduces_to_rayleigh(self):
        for ratio in (0.5, 1.0, 3.0):
            p = pair(0.0, 1.0, ratio, 0.0, 1.0, 1.0)
            assert spsc_series(p).value == pytest.approx(
                spsc_rayleigh_reference(ratio, 1.0), abs=1e-6)

    def test_rice_reference_domain(self):
        with pytest.raises(ValueError):
            spsc_rice_reference(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            spsc_rayleigh_reference(-1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn,args", [
        (secrecy_capacity, (2.0, 1.0)),
        (spsc_rice_reference, (2.0, 1.5, 1.0, 1.0)),
        (spsc_rayleigh_reference, (1.0, 2.0)),
    ])
    def test_non_finite_input_refused(self, fn, args, bad):
        # as KappaMuParams refuses it: no NaN result, no ConvergenceError
        fn(*args)
        for i in range(len(args)):
            with pytest.raises(ValueError, match="must be finite"):
                fn(*args[:i], bad, *args[i + 1:])


class TestSeriesControlPropagation:
    def test_loose_control_converges_faster(self):
        p = pair(15.0, 1.0, 2.0, 12.0, 1.0, 1.0)
        tight = spsc_series(p, SeriesControl(abs_tol=1e-14))
        loose = spsc_series(p, SeriesControl(abs_tol=1e-6))
        assert loose.terms_k <= tight.terms_k
        assert abs(tight.value - loose.value) < 1e-5

    def test_term_cap_raises(self):
        from kmusec.errors import ConvergenceError
        p = pair(50.0, 10.0, 2.0, 45.0, 9.0, 1.0)
        with pytest.raises(ConvergenceError):
            spsc_series(p, SeriesControl(max_terms=20))
