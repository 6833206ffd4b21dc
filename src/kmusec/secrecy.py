"""Secrecy metrics for the kappa-mu wiretap pair.

Probability of strictly positive secrecy capacity (SPSC) through the
double series and, for integer cluster counts, an exact closed form;
secure outage probability exact (adaptive quadrature) and as the
analytical lower bound (series). Rates are in nats throughout; the CLI
converts from bits.
"""
import math
from dataclasses import dataclass

from kmusec import fading
from kmusec._backend import kernels as _k
from kmusec.errors import QuadratureError
from kmusec.fading import KappaMuParams, PropCoefficients, integer_mu
from kmusec.specfun import DEFAULT_CONTROL

#: below this kappa the closed form is ill-conditioned (powers of A/(Br)
#: with A or B near zero) and evaluation falls back to the series
KAPPA_MIN_CLOSED_FORM = 1e-6

#: beyond this rate e^{R_S} overflows a double; the outage is 1 to well
#: below any representable tolerance (the threshold exceeds all mass)
_RATE_SATURATION = 700.0


@dataclass(frozen=True)
class WiretapPair:
    """Main and eavesdropper channels plus the target secrecy rate R_S
    in nats (>= 0). Channels are independent by assumption."""

    main: KappaMuParams
    eve: KappaMuParams
    rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.rate < math.inf:
            raise ValueError(f"rate must be finite and >= 0 nats, got {self.rate}")


@dataclass(frozen=True)
class EvalResult:
    """A metric value in [0, 1] plus convergence diagnostics."""

    value: float
    terms_k: int
    terms_l: int
    est_error: float
    method: str

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"metric value outside [0, 1]: {self.value}")
        if not self.est_error >= 0.0:
            raise ValueError("est_error must be >= 0")


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances for the adaptive quadrature paths."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    limit: int = 200


@dataclass(frozen=True)
class ClosedFormParams:
    """Derived quantities of the integer-mu closed form: noncentrality
    amplitudes A (eavesdropper) and B (main), rate ratio r, R = r + 1/r,
    and the index bounds mu_idx = mu_E - 1, v_idx = mu_M - 1."""

    A: float
    B: float
    r: float
    R: float
    mu_idx: int
    v_idx: int

    @classmethod
    def from_pair(cls, pair):
        mu_m = integer_mu(pair.main.mu)
        if mu_m is None:
            raise ValueError("closed form requires integer mu for the main channel")
        mu_e = integer_mu(pair.eve.mu)
        if mu_e is None:
            raise ValueError("closed form requires integer mu for the eavesdropper")
        c = PropCoefficients.from_channels(pair.main, pair.eve)
        r = math.sqrt(c.beta_m / c.beta_e)
        return cls(
            A=math.sqrt(2.0 * pair.eve.kappa * mu_e),
            B=math.sqrt(2.0 * pair.main.kappa * mu_m),
            r=r,
            R=r + 1.0 / r,
            mu_idx=mu_e - 1,
            v_idx=mu_m - 1,
        )


def secrecy_capacity(gamma_m, gamma_e):
    """Secrecy capacity in nats for one SNR realization: the positive
    part of ln(1+gamma_M) - ln(1+gamma_E)."""
    if gamma_m < 0.0 or gamma_e < 0.0:
        raise ValueError("SNRs must be >= 0")
    if gamma_m <= gamma_e:
        return 0.0
    return math.log1p(gamma_m) - math.log1p(gamma_e)


def _survival(pair, rate_scale, ctl):
    """Kernel call for Pr(gamma_M > s * gamma_E), s = rate_scale."""
    main = pair.main.with_kappa_floor()
    eve = pair.eve.with_kappa_floor()
    c = PropCoefficients.from_channels(main, eve)
    return _k.survival_series(
        main.mu, eve.mu, c.alpha_m, c.alpha_e,
        c.beta_m * rate_scale, c.beta_e,
        ctl.abs_tol, ctl.rel_tol, ctl.max_terms,
    )


def spsc_series(pair, ctl=None):
    """Probability of strictly positive secrecy capacity,
    Pr(gamma_M > gamma_E), by the double series (any real mu > 0)."""
    ctl = ctl or DEFAULT_CONTROL
    value, kt, lt, err = _survival(pair, 1.0, ctl)
    return EvalResult(value=value, terms_k=kt, terms_l=lt, est_error=err,
                      method="series")


def sop_lower(pair, ctl=None):
    """Lower bound of the secure outage probability,
    Pr(gamma_M <= e^{R_S} gamma_E), by the two-part series.

    The leading single series telescopes to unity (it is the sum of the
    Poisson weights in k), so the bound is one minus the double series
    taken with beta_M scaled by e^{R_S}.
    """
    ctl = ctl or DEFAULT_CONTROL
    if pair.rate > _RATE_SATURATION:
        return EvalResult(value=1.0, terms_k=0, terms_l=0, est_error=0.0,
                          method="series")
    value, kt, lt, err = _survival(pair, math.exp(pair.rate), ctl)
    return EvalResult(value=min(max(1.0 - value, 0.0), 1.0),
                      terms_k=kt, terms_l=lt, est_error=err, method="series")


def sop_exact(pair, quad_ctl=None):
    """Exact secure outage probability
    Pr(gamma_M <= e^{R_S}(1 + gamma_E) - 1), by adaptive quadrature on
    the half-line mapped to (0, 1) through gamma_E = t/(1-t)."""
    from scipy.integrate import quad

    quad_ctl = quad_ctl or QuadSpec()
    if pair.rate > _RATE_SATURATION:
        return EvalResult(value=1.0, terms_k=0, terms_l=0, est_error=0.0,
                          method="quadrature")
    ers = math.exp(pair.rate)
    main, eve = pair.main, pair.eve
    ctl = DEFAULT_CONTROL

    def integrand(t):
        x = t / (1.0 - t)
        jac = 1.0 / ((1.0 - t) * (1.0 - t))
        f_e = fading.snr_pdf(eve, x)
        if f_e == 0.0:
            return 0.0
        thr = ers * (1.0 + x) - 1.0
        return f_e * fading.snr_cdf(main, thr, ctl) * jac

    out = quad(integrand, 0.0, 1.0, epsabs=quad_ctl.abs_tol,
               epsrel=quad_ctl.rel_tol, limit=quad_ctl.limit, full_output=1)
    if len(out) > 3:
        raise QuadratureError(f"secure outage quadrature: {out[3]}")
    value, abserr, info = out
    return EvalResult(value=min(max(value, 0.0), 1.0),
                      terms_k=int(info["neval"]), terms_l=0,
                      est_error=abserr, method="quadrature")


def spsc_closed_form(pair, ctl=None):
    """Exact closed-form SPSC for positive integer mu on both channels.

    Delegates silently to the series when either kappa sits below the
    conditioning floor. The sign of the correction term follows the
    derivation of the formula (cross-checked against the series and
    quadrature evaluations); empty inner sums contribute zero.
    """
    ctl = ctl or DEFAULT_CONTROL
    cf = ClosedFormParams.from_pair(pair)  # validates integer mu first
    if min(pair.main.kappa, pair.eve.kappa) < KAPPA_MIN_CLOSED_FORM:
        return spsc_series(pair, ctl)
    A, B, r, R = cf.A, cf.B, cf.r, cf.R

    # leading term: the (0, 0)-order probability through Marcum Q_1
    s1r2 = 1.0 + r * r
    q_val, q_terms, q_err = _k.marcum_q_series(
        1.0, A * r / math.sqrt(s1r2), B / math.sqrt(s1r2),
        ctl.abs_tol, ctl.max_terms)
    # exp(-(A^2 r^2 + B^2)/(2(1+r^2))) I_0(A B r/(1+r^2)), scaled Bessel:
    # the exponent collapses to -(Ar - B)^2 / (2(1+r^2)) <= 0
    x0 = A * B * r / s1r2
    p00 = q_val - math.exp(-((A * r - B) ** 2) / (2.0 * s1r2) + math.log(
        _k.bessel_ie(0.0, x0))) / s1r2

    # correction sum over Bessel orders m with binomial weights; binomials
    # outside their range are zero, so empty sums drop out naturally
    xm = A * B / R
    # scaled-Bessel exponent: -(A^2 r + B^2/r)/(2R) + AB/R collapses to
    # -(A sqrt(r) - B/sqrt(r))^2 / (2R) <= 0
    expo = -((A * math.sqrt(r) - B / math.sqrt(r)) ** 2) / (2.0 * R)
    corr = 0.0
    for m in range(-cf.mu_idx, cf.v_idx + 1):
        inner = 0.0
        for k in range(1, cf.mu_idx + 1):
            if 0 <= k + m <= cf.v_idx + k:
                inner += (math.comb(cf.v_idx + k, k + m)
                          * r ** (cf.v_idx - k + 1) * R ** (-cf.v_idx - k - 1))
        for j in range(1, cf.v_idx + 1):
            if 0 <= m <= j:
                inner -= math.comb(j, m) * r ** (j - 1) * R ** (-j - 1)
        if inner != 0.0:
            corr += (A / (B * r)) ** m * _k.bessel_ie(abs(m), xm) * inner
    value = 1.0 - p00 - math.exp(expo) * corr
    return EvalResult(value=min(max(value, 0.0), 1.0),
                      terms_k=cf.mu_idx + cf.v_idx + 1, terms_l=q_terms,
                      est_error=q_err + 1e-15, method="closed_form")


def spsc_rice_reference(K_m, K_e, gbar_m, gbar_e, ctl=None):
    """SPSC for Rice/Rice channels by the dedicated closed form
    (test oracle for the mu = 1 reduction)."""
    ctl = ctl or DEFAULT_CONTROL
    if K_m <= 0.0 or K_e <= 0.0:
        raise ValueError("Rice factors must be positive")
    a = 1.0 / gbar_m
    b = 1.0 / gbar_e
    den = b * (1.0 + K_e) + a * (1.0 + K_m)
    q_val, _, _ = _k.marcum_q_series(
        1.0,
        math.sqrt(2.0 * K_e * a * (1.0 + K_m) / den),
        math.sqrt(2.0 * K_m * b * (1.0 + K_e) / den),
        ctl.abs_tol, ctl.max_terms)
    w = b * (1.0 + K_e) / den
    expo = -(a * K_e * (1.0 + K_m) + b * K_m * (1.0 + K_e)) / den
    x0 = 2.0 * math.sqrt(a * b * K_m * K_e * (1.0 + K_e) * (1.0 + K_m)) / den
    val = 1.0 - q_val + w * math.exp(expo + x0) * _k.bessel_ie(0.0, x0)
    return min(max(val, 0.0), 1.0)


def spsc_rayleigh_reference(gbar_m, gbar_e):
    """SPSC for Rayleigh/Rayleigh channels: gbar_M / (gbar_M + gbar_E)."""
    if gbar_m <= 0.0 or gbar_e <= 0.0:
        raise ValueError("mean SNRs must be positive")
    return gbar_m / (gbar_m + gbar_e)
