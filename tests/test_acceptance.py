"""Acceptance gate: one test per criterion, each printing a PASS line
with its measured figure of merit (run pytest with -s or check the
captured output). Tolerances are pinned here, not configurable.

Run just this gate with:  pytest tests/test_acceptance.py -v
"""
import functools
import math
import time

import numpy as np
import pytest
from scipy.stats import kstest

from kmusec import estimate as em
from kmusec import fading, montecarlo, secrecy, specfun
from kmusec.fading import KappaMuParams
from kmusec.secrecy import WiretapPair

RS_1DB = 10.0 ** 0.1  # "1 dB" target rate as 10^(1/10) nats

#: measured parameter triples (kappa, mu) for both link ends
TABLE2 = {
    "d2d_main": (1.07, 0.91), "d2d_eve": (1.11, 0.92),
    "ban_main": (2.92, 0.75), "ban_eve": (3.60, 0.67),
    "v2v_main": (5.02, 0.70), "v2v_eve": (7.17, 0.60),
}


def pair(km, um, gbm, ke, ue, gbe, rate=0.0):
    return WiretapPair(KappaMuParams(km, um, gbm), KappaMuParams(ke, ue, gbe), rate)


def _report(num, name, detail):
    print(f"criterion {num:2d} PASS  {name}: {detail}")


def test_criterion_01_rayleigh_reduction():
    t0 = time.perf_counter()
    worst = 0.0
    for ratio in (0.1, 0.5, 1.0, 3.0, 10.0):
        p = pair(0.0, 1.0, ratio, 0.0, 1.0, 1.0)
        got = secrecy.spsc_series(p).value
        want = ratio / (ratio + 1.0)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 1.0
    _report(1, "rayleigh reduction", f"max |diff| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_rice_rice_reduction():
    t0 = time.perf_counter()
    worst = 0.0
    for ratio in (0.25, 0.5, 1.0, 2.0, 4.0):
        p = pair(15.0, 1.0, ratio, 12.0, 1.0, 1.0)
        ref = secrecy.spsc_rice_reference(15.0, 12.0, ratio, 1.0)
        worst = max(worst, abs(secrecy.spsc_series(p).value - ref))
        worst = max(worst, abs(secrecy.spsc_closed_form(p).value - ref))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 5.0
    _report(2, "rice/rice reduction", f"max |diff| {worst:.2e}, {elapsed:.2f}s")


def _integer_grid():
    configs = []
    for km in (1.0, 4.0, 10.0):
        for mu_m in (1.0, 2.0, 3.0):
            for b in (0.5, 1.0, 4.0):
                configs.append((km, mu_m, 2.0, 2.0, b))
    return configs


def test_criterion_03_oracle_triangle():
    t0 = time.perf_counter()
    configs = _integer_grid()
    assert len(configs) >= 27
    worst_pair = 0.0
    worst_mc = -math.inf
    for idx, (km, um, ke, ue, b) in enumerate(configs):
        p = pair(km, um, b, ke, ue, 1.0)
        s = secrecy.spsc_series(p).value
        c = secrecy.spsc_closed_form(p).value
        worst_pair = max(worst_pair, abs(s - c))
        mc = montecarlo.mc_spsc(p, 10_000_000, seed=1000 + idx)
        worst_mc = max(worst_mc, abs(s - mc.estimate) - 3.0 * mc.std_error,
                       abs(c - mc.estimate) - 3.0 * mc.std_error)
    elapsed = time.perf_counter() - t0
    assert worst_pair <= 1e-8
    assert worst_mc <= 0.0
    assert elapsed < 300.0
    _report(3, "oracle triangle (27 configs, 1e7-draw MC)",
            f"max |series-closed| {worst_pair:.2e}, "
            f"max MC excess beyond 3se {worst_mc:.2e}, {elapsed:.0f}s")


def _validation_grid():
    grid = [(km, um, 2.0, 2.0, b) for km in (1.0, 4.0, 10.0)
            for um in (1.0, 2.0, 3.0) for b in (0.5, 1.0, 4.0)]
    grid += [
        (4.0, 1.4, 2.0, 1.2, 5.0),      # the section-V shape
        (1.07, 0.91, 1.11, 0.92, 2.0),
        (2.92, 0.75, 3.60, 0.67, 1.0),
        (5.02, 0.70, 7.17, 0.60, 0.5),
    ]
    return grid


def test_criterion_04_complement_identity():
    worst = 0.0
    for km, um, ke, ue, b in _validation_grid():
        p = pair(km, um, b, ke, ue, 1.0, rate=0.0)
        total = secrecy.sop_lower(p).value + secrecy.spsc_series(p).value
        worst = max(worst, abs(total - 1.0))
    assert worst <= 1e-8
    _report(4, "complement identity at zero rate", f"max |sum-1| {worst:.2e}")


def test_criterion_05_bound_ordering():
    min_gap = math.inf
    for km in (1.0, 4.0, 10.0):
        for b in (0.5, 2.0, 8.0):
            for rate in (0.0, 0.5, RS_1DB):
                p = pair(km, 1.4, b, 2.0, 1.2, 1.0, rate=rate)
                gap = secrecy.sop_exact(p).value - secrecy.sop_lower(p).value
                min_gap = min(min_gap, gap)
    # equality holds analytically at zero rate; allow quadrature noise there
    assert min_gap >= -1e-9
    # shared-draw MC: the estimates must order exactly; the event inclusion
    # behind that, draw by draw, is tested in
    # test_montecarlo.py::TestOutageEvents::test_lower_event_implies_exact
    for rate in (0.0, 0.5, RS_1DB):
        p = pair(4.0, 1.4, 2.0, 2.0, 1.2, 1.0, rate=rate)
        exact, lower = montecarlo.mc_sop_both(p, 400_000, seed=77)
        assert lower.estimate <= exact.estimate
    _report(5, "bound ordering", f"min (exact - lower) gap {min_gap:.2e}")


def test_criterion_06_monotonicity():
    grid_db = np.linspace(-10.0, 30.0, 41)
    presets = {
        "fig2-rice": (15.0, 1.0, 12.0, 1.0),
        "fig2-nakagami": (0.0, 2.0, 0.0, 2.0),
        "fig2-rayleigh": (0.0, 1.0, 0.0, 1.0),
        "fig4": (4.0, 1.4, 2.0, 1.2),
    }
    for name, (km, um, ke, ue) in presets.items():
        spsc_vals = []
        sop_vals = []
        for db in grid_db:
            p = pair(km, um, 10.0 ** (db / 10.0), ke, ue, 1.0, rate=RS_1DB)
            spsc_vals.append(secrecy.spsc_series(p).value)
            sop_vals.append(secrecy.sop_exact(p).value)
        assert all(b >= a - 1e-12 for a, b in zip(spsc_vals, spsc_vals[1:])), name
        assert all(b <= a + 1e-9 for a, b in zip(sop_vals, sop_vals[1:])), name
    _report(6, "monotone sweeps", "4 presets x 41 points, both directions")


def test_criterion_07_sampler_ks():
    t0 = time.perf_counter()
    n = 1_000_000
    crit = 1.358 / math.sqrt(n)  # 5 percent level
    worst = 0.0
    for idx, (kappa, mu) in enumerate(TABLE2.values()):
        params = KappaMuParams(kappa, mu, 1.0)
        draws = fading.sample_snr(params, n, seed=500 + idx)
        stat = kstest(draws, functools.partial(fading.snr_cdf, params)).statistic
        worst = max(worst, stat / crit)
        assert stat < crit, (kappa, mu)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(7, "sampler KS at 5 percent (6 sets, n=1e6)",
            f"worst stat/crit {worst:.2f}, {elapsed:.0f}s")


def test_criterion_08_specfun_kernel():
    worst_q = 0.0
    for m in (0.5, 1.0, 1.4, 2.0, 3.5):
        for alpha in (0.0, 0.5, 1.0, 2.0, 4.0):
            for beta in (0.0, 0.5, 1.0, 2.0, 4.0):
                diff = abs(specfun.marcum_q(m, alpha, beta)
                           - specfun.marcum_q_reference(m, alpha, beta))
                worst_q = max(worst_q, diff)
    assert worst_q <= 1e-8

    worst_f = 0.0
    for b in (0.5, 2.0, 7.0):
        for z in (0.1, 0.5, 0.9):
            got = specfun.gauss_2f1(1.0, b, b, z)
            worst_f = max(worst_f, abs(got - 1.0 / (1.0 - z)) * (1.0 - z))
    assert worst_f <= 1e-12

    from scipy.integrate import quad
    worst_g = 0.0
    for s in (0.3, 1.0, 2.5, 5.5):
        for x in (0.2, 1.7, 6.0):
            lower, _ = quad(lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, x,
                            epsabs=1e-13, epsrel=1e-13)
            total = specfun.upper_incomplete_gamma(s, x) + lower
            gamma_s = math.exp(specfun.log_gamma(s))
            worst_g = max(worst_g, abs(total - gamma_s) / gamma_s)
    assert worst_g <= 1e-10
    _report(8, "special-function kernel",
            f"marcum max |diff| {worst_q:.2e} on the 125 grid, "
            f"2F1 identity {worst_f:.2e}, gamma closure {worst_g:.2e}")


def test_criterion_09_fit_recovery():
    t0 = time.perf_counter()
    worst = 0.0
    for kappa, mu in (TABLE2["d2d_main"], TABLE2["ban_main"], TABLE2["v2v_main"]):
        trace = em.sample_envelope(KappaMuParams(kappa, mu, 1.0),
                                   100_000, seed=1)
        fit = em.fit_kappa_mu(trace)
        err_k = abs(fit.kappa_hat - kappa) / kappa
        err_m = abs(fit.mu_hat - mu) / mu
        worst = max(worst, err_k, err_m)
        assert err_k <= 0.15 and err_m <= 0.15, (kappa, mu)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(9, "fit recovery (3 triples, n=1e5)",
            f"worst relative error {worst * 100:.1f} percent, {elapsed:.0f}s")


def test_criterion_10_symmetry():
    triples = [(5.02, 0.70, 1.04), (1.07, 0.91, 1.0), (2.92, 0.75, 2.0),
               (2.0, 1.3, 1.7), (15.0, 1.0, 0.5)]
    worst = 0.0
    for kappa, mu, gbar in triples:
        p = pair(kappa, mu, gbar, kappa, mu, gbar)
        worst = max(worst, abs(secrecy.spsc_series(p).value - 0.5))
    assert worst <= 1e-6
    _report(10, "identical-channel symmetry", f"max |spsc-0.5| {worst:.2e}")
