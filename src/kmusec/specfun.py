"""Self-contained special-function kernel.

Log-gamma, incomplete gamma, modified Bessel I of real order, Gauss
hypergeometric 2F1 and the generalized Marcum Q-function. The Marcum
Q-function alone has a slow quadrature reference, ``marcum_q_reference``,
usable as an internal oracle; the tests check the others against mpmath.
All functions are pure; the heavy series live in ``kmusec._pykernels``.
"""
import math
from dataclasses import dataclass

from kmusec import _pykernels as _k
from kmusec.errors import QuadratureError


@dataclass(frozen=True)
class SeriesControl:
    """Truncation tolerances and caps for all infinite-series evaluations."""

    abs_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and positive, got {self.abs_tol}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_CONTROL = SeriesControl()


@dataclass(frozen=True)
class MarcumResult:
    """Marcum-Q value with convergence diagnostics."""

    value: float
    terms: int
    est_error: float


def _finite(fn, **args):
    # the arguments as floats, in order; NaN and +-inf refused, naming fn
    # and the argument
    out = []
    for name, value in args.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{fn} requires a finite {name}, got {value}")
        out.append(value)
    return out


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    (x,) = _finite("log_gamma", x=x)
    return _k.log_gamma(x)


def upper_incomplete_gamma(s, x):
    """Upper incomplete gamma Gamma(s, x) for s > 0, x >= 0."""
    s, x = _finite("upper_incomplete_gamma", s=s, x=x)
    q = _k.gammainc_upper_reg(s, x)
    if q == 0.0:
        return 0.0
    return q * math.exp(math.lgamma(s))


def bessel_i(v, x):
    """Modified Bessel function of the first kind I_v(x).

    Supports orders v > -1 plus negative integers (mapped through
    I_{-n} = I_n). Overflows to inf around x ~ 700 like the true value.
    """
    return _k.bessel_i(*_finite("bessel_i", v=v, x=x))


def bessel_i_scaled(v, x):
    """Overflow-safe variant e^-x I_v(x)."""
    return _k.bessel_ie(*_finite("bessel_i_scaled", v=v, x=x))


def gauss_2f1(a, b, c, z, ctl=None):
    """Gauss hypergeometric 2F1(a, b; c; z) on 0 <= z < 1 with c > 0.

    Raises ConvergenceError if the series cap is reached first.
    """
    ctl = ctl or DEFAULT_CONTROL
    a, b, c, z = _finite("gauss_2f1", a=a, b=b, c=c, z=z)
    if c <= 0.0:
        raise ValueError(f"gauss_2f1 requires c > 0, got {c}")
    if not 0.0 <= z < 1.0:
        raise ValueError(f"gauss_2f1 requires 0 <= z < 1, got {z}")
    return _k.gauss_2f1(a, b, c, z, ctl.max_terms)


def _marcum_args(fn, m, alpha, beta):
    # finite m > 0 and alpha, beta >= 0 as floats
    m, alpha, beta = _finite(fn, m=m, alpha=alpha, beta=beta)
    if m <= 0.0:
        raise ValueError(f"{fn} requires m > 0, got {m}")
    if alpha < 0.0 or beta < 0.0:
        raise ValueError(f"{fn} requires alpha, beta >= 0")
    return m, alpha, beta


def marcum_q(m, alpha, beta, ctl=None):
    """Generalized Marcum Q_m(alpha, beta) for m > 0, alpha, beta >= 0."""
    return marcum_q_detail(m, alpha, beta, ctl).value


def marcum_q_detail(m, alpha, beta, ctl=None):
    """Marcum Q with term count and a rigorous truncation-error bound."""
    ctl = ctl or DEFAULT_CONTROL
    m, alpha, beta = _marcum_args("marcum_q", m, alpha, beta)
    value, terms, est = _k.marcum_q_series(m, alpha, beta, ctl.abs_tol, ctl.max_terms)
    return MarcumResult(value=value, terms=terms, est_error=est)


def marcum_q_reference(m, alpha, beta):
    """Marcum Q by adaptive quadrature of its defining integral.

    Slow; used as an internal oracle for :func:`marcum_q`.
    """
    from scipy.integrate import quad

    m, alpha, beta = _marcum_args("marcum_q_reference", m, alpha, beta)
    if beta == 0.0:
        return 1.0
    if alpha == 0.0:
        # integrand limit: x^(2m-1) e^(-x^2/2) / (2^(m-1) Gamma(m))
        pref = math.exp(-(m - 1.0) * math.log(2.0) - math.lgamma(m))

        def f(x):
            return pref * x ** (2.0 * m - 1.0) * math.exp(-0.5 * x * x)
    else:
        # x^m e^{-(x^2+a^2)/2} I_{m-1}(a x) / a^{m-1}, with the scaled
        # Bessel folded into the exponent: exp(-(x-a)^2/2)
        lpref = -(m - 1.0) * math.log(alpha)

        def f(x):
            if x == 0.0:
                return 0.0
            lg = m * math.log(x) - 0.5 * (x - alpha) ** 2 + lpref
            return math.exp(lg) * _k.bessel_ie(m - 1.0, alpha * x)

    out = quad(f, beta, math.inf, epsabs=1e-12, epsrel=1e-12, limit=300,
               full_output=1)
    if len(out) > 3:
        raise QuadratureError(f"Marcum-Q reference quadrature: {out[3]}")
    return min(max(out[0], 0.0), 1.0)
