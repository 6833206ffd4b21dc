"""The kernel backend, ``kmusec._pykernels``, against 30-digit mpmath.

The library has one backend, the pure-Python kernels; ``backend_name()``
reports it. Each scalar kernel is checked on its grid against mpmath
(``mpref`` for the Marcum-Q and survival sums): values to ``REL``, and
a truncated series to its own ``est_error`` plus its rounding. The
survival series' 2F1 seeds are checked against ``hyp2f1`` directly. The
batched survival kernel is checked against the scalar one, which is its
reference: equal tuples, and equal errors.
"""
import inspect
import math
import random
import sys

import mpmath as mp
import pytest

import mpref
from kmusec import _pykernels as pyk
from kmusec.errors import ConvergenceError

REL = 5e-13
EPS = 2.0 ** -52


def _float(fn, *args):
    with mp.workdps(mpref.DPS):
        return float(fn(*args))


class TestScalarAgreement:
    @pytest.mark.parametrize("x", [1e-3, 0.5, 1.0, 7.3, 171.6, 1e6])
    def test_log_gamma(self, x):
        assert pyk.log_gamma(x) == pytest.approx(_float(mp.loggamma, x), rel=REL, abs=1e-13)

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5, 5.5, 40.0])
    @pytest.mark.parametrize("x", [0.0, 0.2, 1.7, 6.0, 80.0])
    def test_gammainc(self, s, x):
        ref = _float(lambda: mp.gammainc(s, x, mp.inf, regularized=True))
        assert pyk.gammainc_upper_reg(s, x) == pytest.approx(ref, rel=REL, abs=1e-300)

    @pytest.mark.parametrize("v", [-0.5, 0.0, 0.2, 1.0, 2.5, 9.0])
    @pytest.mark.parametrize("x", [0.0, 0.1, 3.4, 31.0, 140.0])
    def test_bessel_ie(self, v, x):
        if v < 0.0 and x == 0.0:
            return
        ref = _float(lambda: mp.besseli(v, x) * mp.exp(-mp.mpf(x)))
        assert pyk.bessel_ie(v, x) == pytest.approx(ref, rel=REL)

    @pytest.mark.parametrize("b,c,z", [
        (2.0, 2.0, 0.25), (4.1, 2.6, 0.62), (7.4, 3.3, 0.93),
        (12.2, 4.92, 0.999), (3.0, 2.0, 0.9), (0.5, 4.0, 0.3)])
    def test_gauss_2f1(self, b, c, z):
        assert pyk.gauss_2f1(1.0, b, c, z) == pytest.approx(
            _float(mp.hyp2f1, 1, b, c, z), rel=REL)

    @pytest.mark.parametrize("p,q,x", [
        (1.5, 2.0, 0.3), (0.92, 2.4, 0.68), (40.0, 1.2, 0.95)])
    def test_betainc(self, p, q, x):
        ref = _float(lambda: mp.betainc(p, q, 0, x, regularized=True))
        assert pyk.betainc_reg(p, q, x) == pytest.approx(ref, rel=REL)

    @pytest.mark.parametrize("m", [0.5, 1.0, 1.4, 3.5])
    @pytest.mark.parametrize("alpha", [0.0, 1.1, 4.0])
    @pytest.mark.parametrize("beta", [0.0, 0.9, 2.0, 40.0])
    def test_marcum(self, m, alpha, beta):
        # the truncation stays within est_error; the rest is the rounding
        # of the summed incomplete gammas, below 10 eps on this grid
        value, _, est_error = pyk.marcum_q_series(m, alpha, beta)
        ref = mpref.marcum_q(m, alpha, beta)
        assert abs(value - ref) <= est_error + 16 * EPS * ref
        assert 0.0 <= est_error <= 1e-12

    @pytest.mark.parametrize("m,alpha,beta", [
        (1.0, 150.0, 149.0), (1.0, 100.0, 99.5), (5.0, 120.0, 121.0),
        (3.0, 50.0, 49.0), (2.0, 38.0, 37.0)])
    def test_marcum_large_mean_within_est_error(self, m, alpha, beta):
        # Poisson means 722 to 11,250: the rounding of the log
        # prefactors, not the truncation, sets the error here
        value, _, est_error = pyk.marcum_q_series(m, alpha, beta)
        assert abs(value - float(mpref.marcum_q(m, alpha, beta))) <= est_error

    def test_marcum_large_intensity(self):
        # Poisson mean 722, summed from l0 = 0 in a scaled frame (l0 turns
        # positive only past a mean of about 1,661); the log prefactors at
        # that size round to about 1e-12 relative
        value, _, _ = pyk.marcum_q_series(2.0, 38.0, 37.0)
        assert value == pytest.approx(float(mpref.marcum_q(2.0, 38.0, 37.0)), rel=1e-11)

    def test_marcum_past_the_poisson_window_edge(self):
        # Poisson mean 1,700: the sum starts at l0 = 20, and the skipped
        # lower tail is part of est_error
        alpha = math.sqrt(3400.0)
        assert pyk._poisson_start(0.5 * alpha * alpha) == 20
        for beta in (0.95 * alpha, alpha, 1.05 * alpha):
            value, _, est_error = pyk.marcum_q_series(1.5, alpha, beta)
            assert abs(value - float(mpref.marcum_q(1.5, alpha, beta))) <= est_error


#: channel pairs as ``survival_series`` arguments (mu_m, mu_e, alpha_m,
#: alpha_e, beta_m, beta_e); the test puts the larger rate first
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
    # inner sums from l0 > 0 (alpha_m past about 1,661), and z near 1e-4
    (5.0, 3.0, 2000.0, 4.0, 90.5, 7.0),
    (1.5, 2.0, 3.0, 2.5, 1e4, 1.0),
]


class TestSurvivalAgreement:
    @pytest.mark.parametrize("args", SURVIVAL_CASES)
    def test_value_and_counts(self, args):
        mu_m, mu_e, alpha_m, alpha_e, beta_m, beta_e = args
        if beta_m < beta_e:
            # the larger rate first, as secrecy._survival_row orders the channels
            args = (mu_e, mu_m, alpha_e, alpha_m, beta_e, beta_m)
        value, _, _, est_error = pyk.survival_series(*args)
        assert abs(value - mpref.survival(*args)) <= est_error

    def test_smaller_rate_first_refused(self):
        # the z > 1/2 order, which no library call makes
        with pytest.raises(ValueError, match="requires beta_m >= beta_e"):
            pyk.survival_series(1.0, 1.0, 15.0, 12.0, 8.0, 13.0)


def _lines_run(functions, call):
    """``(call(), lines)``: the stripped source lines of ``functions`` that
    ``call()`` runs."""
    sources = {fn.__code__: inspect.getsourcelines(fn) for fn in functions}
    lines = set()

    def local(frame, event, arg):
        if event == "line":
            source, first = sources[frame.f_code]
            lines.add(source[frame.f_lineno - first].strip())
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code in sources else None)
    try:
        return call(), lines
    finally:
        sys.settrace(previous)


def _random_rows(seed, count):
    # larger rate first; Poisson means 0 on either side, up to 2,000 on the
    # inner side (l0 > 0 past about 1,661), mean-SNR ratios up to 1e4
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        mu_m, mu_e = (rng.choice([0.3, 0.5, 1.0, 2.0, 3.7, 10.0]) for _ in range(2))
        alpha_m = rng.choice([0.0, rng.uniform(0, 5), rng.uniform(0, 80),
                              rng.uniform(600, 2000)])
        alpha_e = rng.choice([0.0, rng.uniform(0, 5), rng.uniform(0, 80)])
        beta_m, beta_e = sorted((10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-2, 2)),
                                reverse=True)
        rows.append((mu_m, mu_e, alpha_m, alpha_e, beta_m, beta_e))
    return rows


def _count_scalar_calls(monkeypatch):
    """The positional arguments of each ``survival_series`` call made from
    here on, which still sums as before."""
    calls = []
    scalar = pyk.survival_series
    monkeypatch.setattr(pyk, "survival_series", lambda *args, **kwargs: calls.append(
        args) or scalar(*args, **kwargs))
    return calls


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSurvivalMany:
    """``survival_series_many`` returns what ``survival_series`` returns
    for each row, bit for bit, and raises what it raises."""

    def test_random_rows_singly_and_batched(self):
        rows = _random_rows(2024, 120)
        scalar = [pyk.survival_series(*row) for row in rows]
        assert pyk.survival_series_many(rows) == scalar
        assert [pyk.survival_series_many([row])[0] for row in rows] == scalar

    @pytest.mark.parametrize("abs_tol", [1e-12, 1e-14])
    def test_branch_rows(self, abs_tol):
        rows = [
            (1.0, 1.0, 0.0, 3.0, 2.0, 1.0),              # alpha_m = 0: no inner sums
            (2.0, 1.5, 4.0, 0.0, 2.0, 1.0),              # alpha_e = 0: one outer term
            (1.0, 1.0, 0.0, 0.0, 1.0, 1.0),              # both
            (5.0, 3.0, 2000.0, 4.0, 90.5, 7.0),          # l0 > 0
            (3.0, 3.0, 19.5, 0.1, 1.17, 0.55),           # alpha_e 0.1, long inner sums
            *SURVIVAL_CASES[:6],
        ]
        rows = [row if row[4] >= row[5] else (row[1], row[0], row[3], row[2], row[5], row[4])
                for row in rows]
        scalar = [pyk.survival_series(*row, abs_tol) for row in rows]
        assert pyk.survival_series_many(rows, abs_tol) == scalar
        assert [pyk.survival_series_many([row], abs_tol)[0] for row in rows] == scalar

    @pytest.mark.parametrize("abs_tol", [1e-12, 1e-14])
    def test_stop_test_skip_boundary(self, abs_tol):
        # the scalar kernel skips its inner stop test while l + 1 <= alpha_m,
        # the batched one never does: alpha_m on integers and their
        # neighbours, in (0, 1), 0, and 2,000, where the sums start at l0 = 181
        alphas = [v for a in (1.0, 2.0, 3.0, 27.0, 2000.0)
                  for v in (math.nextafter(a, 0.0), a, math.nextafter(a, math.inf))]
        alphas += [0.25, 0.999, 0.0]
        rows = [(mu_m, mu_e, alpha_m, alpha_e, beta_m, beta_e) for alpha_m in alphas
                for mu_m, mu_e, alpha_e, beta_m, beta_e in (
                    (1.0, 1.0, 2.0, 3.0, 1.0), (0.5, 2.0, 0.0, 1.0, 1.0), (3.7, 0.3, 5.0, 9.0, 0.3))]
        scalar = [pyk.survival_series(*row, abs_tol) for row in rows]
        assert pyk.survival_series_many(rows, abs_tol) == scalar
        assert [pyk.survival_series_many([row], abs_tol)[0] for row in rows] == scalar

    @pytest.mark.parametrize("row", [
        (2500.0, 60.0, 0.0, 0.0, 500.0, 240.0),        # shape 2,500 on the larger-rate side
        (10.5, 1.0, 10500.0, 1.0, 10510.5, 2000.0)])   # Poisson mean 10,500, l0 = 6,371
    def test_overflowed_term_refused(self, row):
        # the row's 2F1 seed overflows, so a term's log is +inf: both kernels
        # raise, the row alone and inside a batch of ordinary rows
        ordinary = [(1.0, 1.0, 15.0, 12.0, 8.0, 7.0), (2.0, 3.0, 8.0, 6.0, 9.0, 5.0)]
        expected = _outcome(lambda: pyk.survival_series(*row))
        assert issubclass(expected[0], ArithmeticError)
        assert _outcome(lambda: pyk.survival_series_many([row])) == expected
        assert _outcome(lambda: pyk.survival_series_many(ordinary[:1] + [row] + ordinary[1:])) \
            == expected

    @pytest.mark.parametrize("abs_tol", [1e-12, 1e-14])
    def test_poisson_window_edge(self, abs_tol):
        # the inner sums start at l0 = 0 up to alpha_m of about 1,661 and at
        # l0 = 1 just past it
        rows = [(mu_m, 1.0, alpha_m, alpha_e, beta_m, 1.0) for alpha_m in (1661.0, 1663.0)
                for mu_m, alpha_e, beta_m in ((1.0, 2.0, 2491.5), (3.0, 0.0, 1400.0))]
        assert [pyk._survival_constants(*row)[5] for row in rows] == [0, 0, 1, 1]
        scalar = [pyk.survival_series(*row, abs_tol) for row in rows]
        assert pyk.survival_series_many(rows, abs_tol) == scalar
        assert [pyk.survival_series_many([row], abs_tol)[0] for row in rows] == scalar

    def test_renormalization_and_rescale(self):
        # inner sums that outgrow 1e250 in their frame, and whose 2F1
        # ratio falls below 1e-200, each row on its own: from l0 = 0 at
        # Poisson means 590 and 700, and from l0 = 181 at 2,000
        rows = [(1.0, 500.0, 590.0, 1.0, 1.0, 1.0), (1.0, 1000.0, 700.0, 1.0, 1.0, 1.0),
                (1.0, 1000.0, 2000.0, 1.0, 1.0, 1.0)]
        for row in rows:
            scalar, ran = _lines_run([pyk.survival_series],
                                     lambda: pyk.survival_series(*row))
            assert {"t /= renorm", "e /= gh"} <= ran, row
            many, ran = _lines_run([pyk._inner_lockstep],
                                   lambda: pyk.survival_series_many([row]))
            assert {"log_scale[c] += ln_renorm", "e[low] /= gh[low]"} <= ran, row
            assert many == [scalar]

    def test_rows_get_exactly_their_columns(self, monkeypatch):
        # the outer stop depends on alpha_e alone, so the lockstep sums each
        # row's own outer terms and no more: a row with alpha_e 0.1 and long
        # inner sums, and a row whose term cap of 79 a column past its stop
        # would hit, alone and inside a batch, need no scalar call
        row = (3.0, 3.0, 19.5, 0.1, 1.17, 0.55)
        ordinary = [(1.0, 1.0, 15.0, 12.0, 8.0, 7.0), (2.0, 3.0, 8.0, 6.0, 9.0, 5.0)]
        batch = ordinary[:1] + [row] + ordinary[1:]
        scalar = [pyk.survival_series(*args) for args in batch]
        capped = ordinary[:1] + [(1.0, 2.0, 41.404, 28.814, 9.9919, 0.19309)] + ordinary[1:]
        scalar_capped = [pyk.survival_series(*args, 1e-12, max_terms=79) for args in capped]
        calls = _count_scalar_calls(monkeypatch)
        assert pyk.survival_series_many([row]) == [scalar[1]]
        assert pyk.survival_series_many(batch) == scalar
        assert pyk.survival_series_many(capped[1:2], 1e-12, 79) == scalar_capped[1:2]
        assert pyk.survival_series_many(capped, 1e-12, 79) == scalar_capped
        assert calls == []

    def test_scalar_fallbacks(self, monkeypatch):
        # where the lockstep cannot carry a batch, every row is summed by
        # the scalar kernel, once and in order: at a term cap past 2^53 -
        # l0 - 2 (which the scalar kernel checks only where an inner sum
        # runs, and these rows have none) none of them raises, and at a
        # cap the middle row's outer sum passes the batch raises its error
        huge = 2 ** 53
        rows = [(1.0, 1.0, 0.0, 3.0, 2.0, 1.0), (0.5, 2.0, 0.0, 0.0, 1.0, 1.0),
                (3.7, 0.3, 0.0, 5.0, 9.0, 0.3)]
        scalar = [pyk.survival_series(*args, 1e-12, max_terms=huge) for args in rows]
        ordinary = [(1.0, 1.0, 15.0, 12.0, 8.0, 7.0), (2.0, 3.0, 8.0, 6.0, 9.0, 5.0)]
        capped = ordinary[:1] + [(1.0, 2.0, 41.404, 28.814, 9.9919, 0.19309)] + ordinary[1:]
        expected = _outcome(lambda: pyk.survival_series(*capped[1], 1e-12, max_terms=60))
        assert issubclass(expected[0], ConvergenceError)
        calls = _count_scalar_calls(monkeypatch)
        assert pyk.survival_series_many(rows, 1e-12, huge) == scalar
        assert calls == [args + (1e-12,) for args in rows]
        calls.clear()
        assert _outcome(lambda: pyk.survival_series_many(capped, 1e-12, 60)) == expected
        assert calls == [args + (1e-12,) for args in capped[:2]]

    @pytest.mark.parametrize("max_terms", [1, 3, 20, 40, 60, 79, 200])
    def test_errors_equal_scalar(self, max_terms):
        # each row alone and in one batch, at term caps that stop inner
        # sums, seeds and outer sums; a batch raises its first failing
        # row's error (the last row, smaller rate first, always fails)
        rows = [(1.0, 1.0, 15.0, 12.0, 8.0, 7.0), (2.0, 3.0, 8.0, 6.0, 9.0, 5.0),
                (1.0, 2.0, 41.404, 28.814, 9.9919, 0.19309),
                (1.0, 1.0, 50.0, 30.0, 1.0, 1.0), (1.0, 1.0, 15.0, 12.0, 8.0, 13.0)]
        scalar = [_outcome(lambda: pyk.survival_series(*row, 1e-12, max_terms=max_terms))
                  for row in rows]
        for row, expected in zip(rows, scalar):
            assert _outcome(lambda: pyk.survival_series_many([row], 1e-12, max_terms)[0]) \
                == expected
        first_error = next(o for o in scalar if isinstance(o[0], type))
        assert _outcome(lambda: pyk.survival_series_many(rows, 1e-12, max_terms)) \
            == first_error


class TestOuterStop:
    """The survival series stops its outer sum on the Poisson(alpha_e)
    mass after its last term, which bounds the rest of the series (each
    outer term is at most its Poisson weight), and on nothing else."""

    ALPHAS = (0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 3.7, 5.0, 12.0, 28.814, 50.0, 100.0,
              300.0, 700.0, 1500.0)

    @pytest.mark.parametrize("abs_tol", [1e-8, 1e-12, 1e-14])
    def test_tail_bounds_poisson_mass(self, abs_tol):
        for alpha_e in self.ALPHAS:
            k, w_tail = pyk._outer_stop(alpha_e, math.log(alpha_e), abs_tol, 10000)
            with mp.workdps(30):
                # Pr(X >= k) for X ~ Poisson(alpha_e): the mass after term k - 1
                mass = mp.gammainc(k, 0, alpha_e, regularized=True)
            assert mass <= w_tail < 0.5 * abs_tol, (alpha_e, k)

    def test_alpha_e_zero_sums_one_outer_term(self):
        assert pyk._outer_stop(0.0, -math.inf, 1e-12, 10000) == (1, 0.0)
        rows = [(2.0, 1.5, 4.0, 0.0, 2.0, 1.0), (1.0, 1.0, 0.0, 0.0, 1.0, 1.0)]
        assert [pyk.survival_series(*row)[1] for row in rows] == [1, 1]
        assert [res[1] for res in pyk.survival_series_many(rows)] == [1, 1]


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


class TestBackendSelection:
    def test_active_backend_reported(self):
        from kmusec import backend_name
        assert backend_name() == "python"
