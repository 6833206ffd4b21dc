"""Secrecy metrics for the kappa-mu wiretap pair.

Probability of strictly positive secrecy capacity (SPSC) through the
double series and, for integer cluster counts, an exact closed form;
secure outage probability exact (adaptive Gauss-Kronrod quadrature) and as the
analytical lower bound (series). The batched entry points are
``series_many``, which returns SPSC and the lower bound of many pairs and
sums the survival series once per distinct probability among them, and
``sop_exact_many``, which evaluates their exact SOPs in one batched
quadrature. Each pair's results equal, field for field, what the
single-pair functions give it alone, whichever pairs share the batch.
Rates are in nats throughout; the CLI converts from bits.
"""
import math
import sys
from dataclasses import dataclass

import numpy as np

from kmusec import fading
from kmusec._backend import kernels as _k
from kmusec.errors import ConvergenceError, PrecisionError, QuadratureError
from kmusec.fading import KappaMuParams, integer_mu
from kmusec.specfun import DEFAULT_CONTROL

#: below this kappa the closed form is ill-conditioned (powers of A/(Br)
#: with A or B near zero) and evaluation falls back to the series
KAPPA_MIN_CLOSED_FORM = 1e-6

#: the largest rate in nats (about 1,024 bits) whose e^{R_S} is a double
_MAX_RATE = math.log(sys.float_info.max)


@dataclass(frozen=True)
class WiretapPair:
    """Main and eavesdropper channels plus the target secrecy rate R_S
    in nats, 0 <= R_S <= ``_MAX_RATE`` (about 709.78), the largest rate
    whose e^{R_S} is a double. Channels are independent by assumption."""

    main: KappaMuParams
    eve: KappaMuParams
    rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.rate <= _MAX_RATE:
            raise ValueError(f"rate must be between 0 and {_MAX_RATE!r} nats, "
                             f"where e^rate is a double, got {self.rate}")


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
    """Tolerances for the adaptive quadrature paths: the estimated error
    must fall to max(abs_tol, rel_tol |value|) within ``limit``
    subintervals."""

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
        r = math.sqrt(fading.gamma_mixture(pair.main)[2]
                      / fading.gamma_mixture(pair.eve)[2])
        A = math.sqrt(2.0 * pair.eve.kappa * mu_e)
        B = math.sqrt(2.0 * pair.main.kappa * mu_m)
        if not (0.0 < r < math.inf and math.isfinite(A) and math.isfinite(B)):
            # a mean-SNR ratio beyond a double drives r to 0 or infinity
            raise _double_failure("closed form", f"r = {r}, A = {A}, B = {B}")
        return cls(A=A, B=B, r=r, R=r + 1.0 / r, mu_idx=mu_e - 1, v_idx=mu_m - 1)


def secrecy_capacity(gamma_m, gamma_e):
    """Secrecy capacity in nats for one SNR realization: the positive
    part of ln(1+gamma_M) - ln(1+gamma_E)."""
    if not (0.0 <= gamma_m < math.inf and 0.0 <= gamma_e < math.inf):
        raise ValueError(f"SNRs must be finite and >= 0, got {gamma_m}, {gamma_e}")
    if gamma_m <= gamma_e:
        return 0.0
    return math.log1p(gamma_m) - math.log1p(gamma_e)


def _double_failure(what, cause):
    """PrecisionError for an evaluation that valid input drove out of
    double precision, as huge finite shapes (kappa 1e200, say) drive the
    kernels."""
    return PrecisionError(f"{what} cannot be evaluated in double precision ({cause})")


def _survival(pair, rate_scale, ctl):
    """``((Pr(gamma_M > s gamma_E), Pr(gamma_M <= s gamma_E)), k_terms,
    l_terms, est_error)`` for s = rate_scale.

    The kernel sums Pr(X > Y) with its hypergeometric factor at
    z = beta_Y / (beta_X + beta_Y), where it loses the small side as
    z -> 1. The channel with the larger rate (s beta_M for the main link)
    goes first, so that z <= 1/2; the other side is one minus the sum,
    and ``est_error`` bounds both, the rounding of that difference
    included."""
    m_shape, m_mean, m_rate = fading.gamma_mixture(pair.main)
    e_shape, e_mean, e_rate = fading.gamma_mixture(pair.eve)
    m_rate *= rate_scale
    if not all(map(math.isfinite, (m_shape, m_mean, m_rate, e_shape, e_mean, e_rate))):
        # at mu 1e308, say, the rate (1+kappa) mu / gbar overflows, and so
        # may the main rate times e^{R_S} near ``_MAX_RATE``
        raise _double_failure("survival series",
                              "a gamma-mixture shape, mean or rate is not finite")
    try:
        if m_rate >= e_rate:
            value, kt, lt, err = _k.survival_series(
                m_shape, e_shape, m_mean, e_mean, m_rate, e_rate,
                ctl.abs_tol, max_terms=ctl.max_terms)
            sides = (value, 1.0 - value)
        else:
            value, kt, lt, err = _k.survival_series(
                e_shape, m_shape, e_mean, m_mean, e_rate, m_rate,
                ctl.abs_tol, max_terms=ctl.max_terms)
            sides = (1.0 - value, value)
    except (ArithmeticError, ValueError) as exc:
        raise _double_failure("survival series", exc) from exc
    # one minus the sum rounds by at most half an ulp of 1, and by at
    # most the sum itself
    return sides, kt, lt, err + min(value, 2.0 ** -54)


def _series_result(survival, side):
    """The ``EvalResult`` of one side (0: upper, 1: lower) of a
    ``_survival`` evaluation."""
    sides, kt, lt, err = survival
    return EvalResult(value=sides[side], terms_k=kt, terms_l=lt, est_error=err,
                      method="series")


def spsc_series(pair, ctl=None):
    """Probability of strictly positive secrecy capacity,
    Pr(gamma_M > gamma_E), by the double series (any real mu > 0)."""
    return _series_result(_survival(pair, 1.0, ctl or DEFAULT_CONTROL), 0)


def sop_lower(pair, ctl=None):
    """Lower bound of the secure outage probability,
    Pr(gamma_M <= e^{R_S} gamma_E), by the two-part series.

    The leading single series telescopes to unity (it is the sum of the
    Poisson weights in k), so the bound is the complement of the double
    series taken with beta_M scaled by e^{R_S}.
    """
    return _series_result(_survival(pair, math.exp(pair.rate), ctl or DEFAULT_CONTROL), 1)


def series_many(pairs, ctl=None):
    """``[(spsc_series(pair, ctl), sop_lower(pair, ctl)) for pair in
    pairs]``, summing the survival series once per distinct (main, eve,
    rate scale) of the batch. SPSC is the upper side at scale 1 and SOP^L
    the lower side at scale e^{R_S}, so at rate 0 both come from one
    series, and SPSC is summed once for all rates of a channel pair."""
    ctl = ctl or DEFAULT_CONTROL
    survivals = {}

    def series(pair, scale, side):
        key = (pair.main, pair.eve, scale)
        if key not in survivals:
            survivals[key] = _survival(pair, scale, ctl)
        return _series_result(survivals[key], side)

    return [(series(pair, 1.0, 0), series(pair, math.exp(pair.rate), 1))
            for pair in pairs]


def _gauss_kronrod_21():
    # QUADPACK's G10K21 pair on [-1, 1] (Piessens et al., 1983): the 21
    # Kronrod nodes, and the weights as columns (Kronrod, Gauss); the
    # 10-point Gauss rule uses every second node and is zero elsewhere
    half = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
            0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
            0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
            0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
            0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
            0.0)
    wk = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
          0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
          0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
          0.123491976262065851077600525452120, 0.134709217311473325928054001771707,
          0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
          0.149445554002916905664936468389821)
    wg = (0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
          0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
          0.0, 0.295524224714752870173892994651338, 0.0)
    nodes = np.concatenate([-np.asarray(half), np.asarray(half[-2::-1])])
    weights = np.array([wk + wk[-2::-1], wg + wg[-2::-1]]).T
    return nodes, weights


_GK_NODES, _GK_WEIGHTS = _gauss_kronrod_21()

#: relative error bounds of the outage integrand's factors: the density
#: is held to 1e-12 and the distribution function to 1e-13 against
#: 30-digit mpmath in tests/test_fading.py; the distribution function
#: may flush values below 1e-60 to zero
_PDF_REL_ERR = 1e-12
_CDF_REL_ERR = 1e-13
_CDF_ABS_ERR = 1e-60

#: rounding floor of a summed quadrature result, in ulps of the value
_ROUNDING_ULPS = 8

#: equal pieces of (0, 1) in the first quadrature pass
_INITIAL_PIECES = 8


def _gauss_kronrod(integrand, quad_ctl, points=1):
    """Adaptive G10K21 quadrature over (0, 1) of ``points`` integrands at
    once.

    ``integrand(owner, t)`` takes rows of nodes ``t``, row i belonging to
    point ``owner[i]``, and gives each row values that depend on that row
    alone. Each point runs its own adaptive scheme. Its first pass splits
    (0, 1) into ``_INITIAL_PIECES`` equal pieces (fewer if
    ``quad_ctl.limit`` is smaller), so that a single rule's error estimate
    is never trusted on its own. Every pass evaluates the 21 nodes of all
    new subintervals of all open points in one call, then bisects each
    subinterval whose error estimate exceeds its share (its length) of its
    point's tolerance, or the worst one if none does. The rules are summed
    row by row by ``np.einsum``, whose rows do not depend on the row count
    (a BLAS matmul's do), so a point's result does not depend on the batch.
    QuadratureError is raised for the whole batch when a point meets a
    non-finite value or error estimate, a tolerance below the summed
    rounding floors of its subintervals (which bisection does not lower),
    or more than ``quad_ctl.limit`` subintervals. Returns a list of
    (value, error estimate, evaluations), one per point."""
    eps = np.finfo(float).eps
    n0 = max(min(quad_ctl.limit, _INITIAL_PIECES), 1)
    first = (np.arange(n0) / n0, np.arange(1, n0 + 1) / n0)
    empty = np.zeros(0)
    new = {p: first for p in range(points)}  # subintervals still to evaluate
    kept = {p: (empty,) * 5 for p in range(points)}  # lo, hi, val, err, floor
    neval = [0] * points
    results = [None] * points
    while new:
        open_ = list(new)
        counts = [new[p][0].size for p in open_]
        a = np.concatenate([new[p][0] for p in open_])
        b = np.concatenate([new[p][1] for p in open_])
        half = 0.5 * (b - a)
        f = integrand(np.repeat(open_, counts),
                      ((a + b) * 0.5)[:, None] + half[:, None] * _GK_NODES)
        kronrod, gauss = np.einsum("ij,jk->ik", f, _GK_WEIGHTS).T
        # QUADPACK's error estimate: |K - G| scaled by the integrand's
        # spread about its mean, floored at 50 eps of the absolute integral
        resasc = half * np.einsum("ij,j->i", np.abs(f - 0.5 * kronrod[:, None]),
                                  _GK_WEIGHTS[:, 0])
        fl = 50.0 * eps * half * np.einsum("ij,j->i", np.abs(f), _GK_WEIGHTS[:, 0])
        e = half * np.abs(kronrod - gauss)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = resasc * np.minimum(1.0, (200.0 * e / resasc) ** 1.5)
        e = np.maximum(np.where((resasc > 0.0) & (e > 0.0), scaled, e), fl)
        ends = np.cumsum(counts).tolist()
        evaluated = (a, b, half * kronrod, e, fl)
        new = {}
        for p, start, end in zip(open_, [0] + ends, ends):
            neval[p] += (end - start) * _GK_NODES.size
            lo, hi, val, err, floor = (np.concatenate([old, x[start:end]])
                                       for old, x in zip(kept[p], evaluated))
            value, error = float(val.sum()), float(err.sum())
            if not (math.isfinite(value) and math.isfinite(error)):
                raise QuadratureError(
                    f"secure outage quadrature: the integrand is not finite "
                    f"(value {value:.3g}, error estimate {error:.3g})")
            tol = max(quad_ctl.abs_tol, quad_ctl.rel_tol * abs(value))
            if error <= tol:
                results[p] = (value, error, neval[p])
                continue
            rounding = float(floor.sum())
            if tol < rounding:
                raise QuadratureError(
                    f"secure outage quadrature: the tolerance {tol:.3g} is below "
                    f"the rounding floor {rounding:.3g} of the estimate")
            split = err > tol * (hi - lo)
            if not split.any():
                split = err == err.max()
            if lo.size + np.count_nonzero(split) > quad_ctl.limit:
                raise QuadratureError(
                    f"secure outage quadrature: the limit of {quad_ctl.limit} subintervals "
                    f"was reached with error estimate {error:.3g} above {tol:.3g}")
            mid = 0.5 * (lo[split] + hi[split])
            new[p] = (np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]]))
            keep = ~split
            kept[p] = (lo[keep], hi[keep], val[keep], err[keep], floor[keep])
    return results


def sop_exact(pair, quad_ctl=None):
    """Exact secure outage probability
    Pr(gamma_M <= e^{R_S}(1 + gamma_E) - 1): ``sop_exact_many([pair],
    quad_ctl)[0]``."""
    return sop_exact_many([pair], quad_ctl)[0]


def sop_exact_many(pairs, quad_ctl=None):
    """Exact secure outage probability of each pair, by vectorized
    adaptive Gauss-Kronrod quadrature over t in (0, 1), all pairs in one
    batch: a pass evaluates the open subintervals of every pair in one
    integrand call. Each pair keeps its own tolerance, bisection and
    checks, and its ``EvalResult`` equals, field for field, the one it gets
    alone; one failing pair raises QuadratureError for the batch.

    The map gamma_E = gamma_bar_E u^(1/m), u = t/(1-t), m = min(mu_E, 1)/2
    turns the eavesdropper's law near the origin, C gamma_E^(mu_E - 1) /
    gamma_bar_E^mu_E, into the integrand (C/m) u^(mu_E/m - 1): 2 C u / mu_E
    for mu_E <= 1, bounded where the density diverges, and 2 C u^(2 mu_E - 1)
    above, smooth enough that the rule converges fast. Scaling by
    gamma_bar_E keeps the body of the law near t = 1/2 at any mean SNR.
    The density and the Jacobian dgamma_E/dt = gamma_E (1+u) / (m t) are
    one log-domain line of ``fading._density``, at ln gamma_E = ln
    gamma_bar_E + ln(u) / m, exact also where gamma_E underflows, with
    power 1 and weight ln(1+u) - ln m - ln t. It is evaluated once per
    distinct eavesdropper channel on its distinct nodes, which pairs of a
    sweep share. ``est_error`` adds the errors of the density and
    distribution function and a rounding floor to the quadrature
    estimate; ``terms_k`` counts integrand evaluations. Every rate up to
    ``_MAX_RATE`` is integrated: where e^{R_S} times a level overflows, the
    threshold is infinite and F_M there is 1."""
    quad_ctl = quad_ctl or QuadSpec()
    pairs = list(pairs)
    if not pairs:
        return []
    index = {}  # distinct eavesdropper channels, numbered in order of appearance
    channel = np.array([index.setdefault(pair.eve, len(index)) for pair in pairs])
    channels = list(index)
    ers = np.array([math.exp(pair.rate) for pair in pairs])
    offset = np.array([math.expm1(pair.rate) for pair in pairs])
    kappa_m, mu_m, gbar_m = (np.array(v) for v in zip(
        *((pair.main.kappa, pair.main.mu, pair.main.gamma_bar) for pair in pairs)))

    def levels(eve, t):
        # one eavesdropper channel's nodes t as density levels x, with the
        # map's Jacobian x (1 + u) / (m t) as x^1 e^w
        m = 0.5 * min(eve.mu, 1.0)
        u = t / (1.0 - t)
        return fading._Levels(eve.gamma_bar * u ** (1.0 / m),
                              math.log(eve.gamma_bar) + np.log(u) / m, 1.0,
                              np.log1p(u) - math.log(m) - np.log(t))

    def integrand(owner, t):
        # f_E(x) dx/dt F_M(e^R (1 + x) - 1)
        rows = channel[owner]  # eavesdropper channel of each row of nodes
        dens, x = np.empty(t.shape), np.empty(t.shape)
        with np.errstate(over="ignore"):
            for c, eve in enumerate(channels):
                sel = rows == c
                nodes, where = np.unique(t[sel], return_inverse=True)
                where = where.reshape(-1, t.shape[1])
                at = levels(eve, nodes)
                dens[sel] = fading._density(eve.kappa, eve.mu, eve.gamma_bar, at)[where]
                x[sel] = at.g[where]
            threshold = offset[owner, None] + ers[owner, None] * x
        return dens * fading._distribution(kappa_m[owner, None], mu_m[owner, None],
                                           gbar_m[owner, None], threshold)

    return [EvalResult(value=min(max(value, 0.0), 1.0), terms_k=neval, terms_l=0,
                       est_error=(error + (_PDF_REL_ERR + _CDF_REL_ERR) * abs(value)
                                  + _CDF_ABS_ERR + _ROUNDING_ULPS * math.ulp(value)),
                       method="quadrature")
            for value, error, neval in _gauss_kronrod(integrand, quad_ctl, len(pairs))]


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
    try:
        value, q_terms, q_err = _closed_form_sum(cf, ctl)
    except (ArithmeticError, ValueError) as exc:
        raise _double_failure("closed form", exc) from exc
    return EvalResult(value=min(max(value, 0.0), 1.0),
                      terms_k=cf.mu_idx + cf.v_idx + 1, terms_l=q_terms,
                      est_error=q_err + 1e-15, method="closed_form")


def _closed_form_sum(cf, ctl):
    """``(value, Marcum-Q terms, Marcum-Q est_error)`` of the closed form;
    the value is not yet clipped to [0, 1]."""
    if cf.mu_idx + cf.v_idx + 1 > ctl.max_terms:
        raise ConvergenceError(
            f"closed form needs {cf.mu_idx + cf.v_idx + 1} Bessel orders, "
            f"more than max_terms={ctl.max_terms}")
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

    # correction sum over Bessel orders m with binomial weights; the loops
    # run only where the binomials are nonzero (0 <= k + m, 0 <= m <= j),
    # and an order whose inner sums are empty drops out
    xm = A * B / R
    # scaled-Bessel exponent: -(A^2 r + B^2/r)/(2R) + AB/R collapses to
    # -(A sqrt(r) - B/sqrt(r))^2 / (2R) <= 0
    expo = -((A * math.sqrt(r) - B / math.sqrt(r)) ** 2) / (2.0 * R)
    corr = 0.0
    for m in range(-cf.mu_idx, cf.v_idx + 1):
        inner = 0.0
        for k in range(max(1, -m), cf.mu_idx + 1):
            inner += (math.comb(cf.v_idx + k, k + m)
                      * r ** (cf.v_idx - k + 1) * R ** (-cf.v_idx - k - 1))
        if m >= 0:
            for j in range(max(1, m), cf.v_idx + 1):
                inner -= math.comb(j, m) * r ** (j - 1) * R ** (-j - 1)
        if inner != 0.0:
            corr += (A / (B * r)) ** m * _k.bessel_ie(abs(m), xm) * inner
    return 1.0 - p00 - math.exp(expo) * corr, q_terms, q_err


def spsc_rice_reference(K_m, K_e, gbar_m, gbar_e, ctl=None):
    """SPSC for Rice/Rice channels by the dedicated closed form
    (test oracle for the mu = 1 reduction)."""
    ctl = ctl or DEFAULT_CONTROL
    if not (0.0 < K_m < math.inf and 0.0 < K_e < math.inf):
        raise ValueError(f"Rice factors must be finite and positive, got {K_m}, {K_e}")
    _check_mean_snrs(gbar_m, gbar_e)
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
    _check_mean_snrs(gbar_m, gbar_e)
    return gbar_m / (gbar_m + gbar_e)


def _check_mean_snrs(gbar_m, gbar_e):
    if not (0.0 < gbar_m < math.inf and 0.0 < gbar_e < math.inf):
        raise ValueError(f"mean SNRs must be finite and positive, got {gbar_m}, {gbar_e}")
