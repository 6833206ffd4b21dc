"""Special-function kernel tests.

Frozen expected values were computed with independent high-precision
oracles (40-digit mpmath arithmetic): Stirling-plus-recurrence for
log-gamma, adaptive quadrature of defining integrals for the incomplete
gamma and Marcum-Q, and extended-precision partial sums for the Bessel
and hypergeometric series.
"""
import math

import pytest
from scipy.integrate import quad

from kmusec import specfun
from kmusec.errors import ConvergenceError
from kmusec.specfun import SeriesControl


class TestSeriesControl:
    def test_defaults(self):
        ctl = SeriesControl()
        assert ctl.abs_tol == 1e-12
        assert ctl.max_terms == 10_000

    @pytest.mark.parametrize("kw", [dict(abs_tol=0.0), dict(abs_tol=-1e-3),
                                    dict(abs_tol=math.nan), dict(max_terms=0),
                                    dict(abs_tol=math.inf)])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            SeriesControl(**kw)


class TestLogGamma:
    def test_gamma_one(self):
        assert specfun.log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_half(self):
        assert specfun.log_gamma(0.5) == pytest.approx(
            0.5 * math.log(math.pi), rel=1e-14)

    def test_interior_point(self):
        # Stirling at x+20, recurrence down, 40-digit arithmetic
        assert specfun.log_gamma(7.3) == pytest.approx(
            7.147892523022249, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            specfun.log_gamma(x)

    @pytest.mark.parametrize("x", [1e-3, 0.1, 2.0, 171.6, 1e6])
    def test_recurrence_consistency(self, x):
        # Gamma(x+1) = x Gamma(x) to near machine accuracy
        lhs = specfun.log_gamma(x + 1.0)
        rhs = specfun.log_gamma(x) + math.log(x)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


class TestUpperIncompleteGamma:
    def test_at_zero_is_gamma(self):
        assert specfun.upper_incomplete_gamma(1.0, 0.0) == pytest.approx(1.0)
        assert specfun.upper_incomplete_gamma(3.0, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_exponential_special_case(self):
        assert specfun.upper_incomplete_gamma(1.0, 2.0) == pytest.approx(
            math.exp(-2.0), rel=1e-13)

    def test_interior_point(self):
        # adaptive quadrature of t^1.5 e^-t over [1.7, inf) to 1e-12
        assert specfun.upper_incomplete_gamma(2.5, 1.7) == pytest.approx(
            0.8488767894583206, rel=1e-12)

    def test_monotone_in_x(self):
        xs = [0.0, 0.3, 1.0, 2.5, 7.0, 20.0]
        vals = [specfun.upper_incomplete_gamma(2.2, x) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("s,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.1)])
    def test_domain(self, s, x):
        with pytest.raises(ValueError):
            specfun.upper_incomplete_gamma(s, x)

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5, 5.5])
    @pytest.mark.parametrize("x", [0.2, 1.7, 6.0])
    def test_closure_against_quadrature(self, s, x):
        # Gamma(s,x) + gamma(s,x) = Gamma(s), the lower part integrated
        # numerically
        lower, _ = quad(lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, x,
                        epsabs=1e-13, epsrel=1e-13)
        total = specfun.upper_incomplete_gamma(s, x) + lower
        assert total == pytest.approx(math.exp(specfun.log_gamma(s)), rel=1e-10)


class TestBesselI:
    def test_origin(self):
        assert specfun.bessel_i(0.0, 0.0) == 1.0
        assert specfun.bessel_i(1.5, 0.0) == 0.0
        assert specfun.bessel_i(3.0, 0.0) == 0.0

    def test_series_point(self):
        # extended-precision partial sums of the power series until the
        # term drops below 1e-30
        assert specfun.bessel_i(0.2, 3.4) == pytest.approx(
            6.731268726877334, rel=1e-13)

    @pytest.mark.parametrize("v,x,expected", [
        (0.2, 50.0, 0.05653877533220132),
        (2.5, 200.0, 0.027788452700665301),
        (1.4, 31.0, 0.06967120318023045),
        (-0.5, 5.0, 0.17842051152623320),
        (9.0, 140.0, 0.025245964350109182),
    ])
    def test_scaled_values(self, v, x, expected):
        assert specfun.bessel_i_scaled(v, x) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_negative_integer_order(self, m, x):
        assert specfun.bessel_i(-m, x) == specfun.bessel_i(m, x)

    def test_scaled_consistency(self):
        for v, x in [(0.0, 1.0), (1.3, 8.0), (0.7, 25.0)]:
            assert specfun.bessel_i(v, x) == pytest.approx(
                specfun.bessel_i_scaled(v, x) * math.exp(x), rel=1e-13)

    def test_rejects_unsupported_orders(self):
        with pytest.raises(ValueError):
            specfun.bessel_i(-1.5, 1.0)
        with pytest.raises(ValueError):
            specfun.bessel_i(0.5, -1.0)

    def test_overflow_to_inf(self):
        assert specfun.bessel_i(0.0, 800.0) == math.inf
        assert specfun.bessel_i_scaled(0.0, 800.0) > 0.0


class TestGauss2F1:
    def test_at_zero(self):
        assert specfun.gauss_2f1(1.0, 3.7, 2.2, 0.0) == 1.0

    def test_binomial_special_case(self):
        # 2F1(1, b; b; z) = 1/(1-z)
        assert specfun.gauss_2f1(1.0, 2.0, 2.0, 0.25) == pytest.approx(
            4.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("b", [0.5, 2.0, 7.0])
    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_geometric_identity(self, b, z):
        assert specfun.gauss_2f1(1.0, b, b, z) == pytest.approx(
            1.0 / (1.0 - z), rel=1e-12)

    def test_series_point(self):
        # direct Gauss series, 30-digit arithmetic
        assert specfun.gauss_2f1(1.0, 4.1, 2.6, 0.62) == pytest.approx(
            5.598202964688685, rel=1e-10)

    @pytest.mark.parametrize("b,c,z,expected", [
        (7.4, 3.3, 0.93, 44604.29819129023),
        (12.2, 4.92, 0.999, 2.021153927723983e22),
        (3.0, 2.5, 0.75, 5.836798304624581),
    ])
    def test_near_unit_argument(self, b, c, z, expected):
        assert specfun.gauss_2f1(1.0, b, c, z) == pytest.approx(expected, rel=1e-10)

    def test_at_least_one_for_positive_params(self):
        for b, c, z in [(0.3, 4.0, 0.4), (5.0, 1.2, 0.8), (2.0, 2.0, 0.0)]:
            assert specfun.gauss_2f1(1.0, b, c, z) >= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.gauss_2f1(1.0, 2.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            specfun.gauss_2f1(1.0, 2.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            specfun.gauss_2f1(1.0, 2.0, 2.0, -0.1)

    def test_non_convergence_raises(self):
        with pytest.raises(ConvergenceError):
            specfun.gauss_2f1(0.5, 1.7, 2.6, 0.9999,
                              ctl=SeriesControl(max_terms=50))


class TestMarcumQ:
    def test_full_mass(self):
        assert specfun.marcum_q(1.0, 0.0, 0.0) == 1.0
        assert specfun.marcum_q(2.0, 1.3, 0.0) == 1.0

    def test_zero_alpha_reduces_to_gamma(self):
        # only the l = 0 term survives: Gamma(2.5, 1.3^2/2)/Gamma(2.5)
        assert specfun.marcum_q(2.5, 0.0, 1.3) == pytest.approx(
            0.8901571729815416, rel=1e-13)

    def test_interior_point(self):
        # adaptive quadrature of the defining integral to 1e-10
        assert specfun.marcum_q(1.4, 1.1, 0.9) == pytest.approx(
            0.8915989765173613, abs=1e-10)

    @pytest.mark.parametrize("m,alpha", [(0.5, 0.7), (1.0, 2.0), (3.5, 4.0)])
    def test_bounds_and_monotonicity(self, m, alpha):
        betas = [0.0, 0.4, 1.0, 2.0, 4.0, 8.0]
        vals = [specfun.marcum_q(m, alpha, b) for b in betas]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.marcum_q(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            specfun.marcum_q(1.0, -1.0, 1.0)

    def test_detail_reports_terms(self):
        res = specfun.marcum_q_detail(1.4, 1.1, 0.9)
        assert res.terms > 0
        assert res.est_error >= 0.0

    @pytest.mark.parametrize("m,alpha,beta", [
        (2.0, 40.0, 5.0), (1.5, 55.0, 50.0), (1.0, 60.0, 64.0),
        (1.0, 70.0, 68.0)])
    def test_large_noncentrality(self, m, alpha, beta):
        # Poisson intensities above the exp underflow range; checked
        # against an independent noncentral chi-square implementation
        from scipy.stats import ncx2
        ref = float(ncx2.sf(beta * beta, 2.0 * m, alpha * alpha))
        assert specfun.marcum_q(m, alpha, beta) == pytest.approx(ref, abs=1e-10)


class TestMarcumQReference:
    def test_full_mass(self):
        assert specfun.marcum_q_reference(1.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-11)

    def test_interior_point(self):
        # quadrature oracle value, 30-digit arithmetic
        assert specfun.marcum_q_reference(1.0, 2.0, 2.0) == pytest.approx(
            0.6035009606119933, abs=1e-10)

    @pytest.mark.parametrize("m", [0.5, 1.4, 3.5])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
    def test_series_agreement_sample(self, m, alpha, beta):
        # subset of the full 5x5x5 acceptance grid
        assert specfun.marcum_q(m, alpha, beta) == pytest.approx(
            specfun.marcum_q_reference(m, alpha, beta), abs=1e-8)

    @pytest.mark.parametrize("m,alpha,beta", [
        (0.5, 0.5, 1.0), (1.0, 2.0, 2.0), (1.4, 1.1, 0.9),
        (2.0, 4.0, 3.0), (3.5, 1.0, 4.0)])
    def test_reported_error_bounds_truth(self, m, alpha, beta):
        res = specfun.marcum_q_detail(m, alpha, beta)
        oracle = specfun.marcum_q_reference(m, alpha, beta)
        assert res.est_error >= abs(res.value - oracle) - 1e-12


#: each public function with valid arguments by name, and the name its
#: errors give
_PUBLIC = [
    (specfun.log_gamma, "log_gamma", dict(x=2.0)),
    (specfun.upper_incomplete_gamma, "upper_incomplete_gamma", dict(s=1.5, x=0.7)),
    (specfun.bessel_i, "bessel_i", dict(v=1.0, x=2.0)),
    (specfun.bessel_i_scaled, "bessel_i_scaled", dict(v=1.0, x=2.0)),
    (specfun.gauss_2f1, "gauss_2f1", dict(a=1.0, b=2.0, c=2.5, z=0.3)),
    (specfun.marcum_q, "marcum_q", dict(m=1.0, alpha=1.0, beta=1.0)),
    (specfun.marcum_q_detail, "marcum_q", dict(m=1.0, alpha=1.0, beta=1.0)),
    (specfun.marcum_q_reference, "marcum_q_reference", dict(m=1.0, alpha=1.0, beta=1.0)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn,name,args,arg", [
    pytest.param(fn, name, args, arg, id=f"{fn.__name__}-{arg}")
    for fn, name, args in _PUBLIC for arg in args])
def test_non_finite_arguments_refused(fn, name, args, arg, bad):
    # refused before any kernel runs: no ConvergenceError after a term cap,
    # no leaked conversion error and no finite value at an infinite argument
    fn(**args)  # the valid arguments pass
    with pytest.raises(ValueError, match=f"^{name} requires a finite {arg}, got {bad}$"):
        fn(**dict(args, **{arg: bad}))
