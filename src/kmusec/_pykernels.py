"""Pure-Python numerical kernels.

The hot series of the library (Marcum-Q, the survival double series)
and the scalar special functions behind ``kmusec.specfun``. Everything
here is free of module state, so concurrent use is safe, and everything
is scalar except ``survival_series_many``, which sums the survival
series of many rows at once in numpy and returns, bit for bit, what
``survival_series`` returns for each. ``secrecy.series_many`` (a sweep's
or a validation's series) calls it; single pairs stay on the scalar
kernel, which is also the reference the batched one is tested against.

Conventions used throughout:

* gamma-family magnitudes are assembled in the log domain and
  exponentiated once per term, so factors such as Gamma(mu+k+l) never
  overflow on their own;
* every truncated series reports a rigorous upper bound on its
  truncation error, obtained from a geometric majorant of the term
  ratios (valid because the majorant ratios are provably decreasing).
"""
import math

import numpy as np

from kmusec.errors import ConvergenceError

_LOG_TINY = -745.0  # below this, exp() underflows to zero


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def gammainc_upper_reg(s, x, tol=1e-16, max_iter=500):
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x)/Gamma(s).

    Series expansion of the lower function for x < s + 1, Lentz
    continued fraction otherwise (the usual regime split).
    """
    if s <= 0.0:
        raise ValueError(f"gammainc_upper_reg requires s > 0, got {s}")
    if x < 0.0:
        raise ValueError(f"gammainc_upper_reg requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    log_pref = s * math.log(x) - x - math.lgamma(s)
    if x < s + 1.0:
        # P(s, x) by series, then complement
        ap = s
        term = 1.0 / s
        total = term
        for _ in range(max_iter):
            ap += 1.0
            term *= x / ap
            total += term
            if term < total * tol:
                break
        else:
            raise ConvergenceError("incomplete gamma series did not converge")
        return 1.0 - total * math.exp(log_pref)
    # Q(s, x) by continued fraction (modified Lentz)
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, max_iter):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            return math.exp(log_pref) * h
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


def _bessel_ie_series(v, x):
    # scaled power series: e^-x sum_k (x/2)^(v+2k) / (k! Gamma(v+k+1));
    # all terms positive and the scaled peak term is O(1/sqrt(x)), so
    # there is no overflow for any x
    half = 0.5 * x
    term = math.exp(v * math.log(half) - math.lgamma(v + 1.0) - x)
    total = term
    hh = half * half
    k = 0.0
    while True:
        k += 1.0
        term *= hh / (k * (v + k))
        total += term
        if term <= total * 1e-17:
            return total
        if k > 1e6:
            raise ConvergenceError("Bessel series did not converge")


def _bessel_ie_asym(v, x):
    # large-argument expansion of e^-x I_v(x); truncated at the smallest
    # term, whose size bounds the error of the expansion
    fourv2 = 4.0 * v * v
    total = 1.0
    term = 1.0
    prev = math.inf
    for k in range(1, 40):
        term *= -(fourv2 - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if prev < 1e-17 * abs(total):
            break
    return total / math.sqrt(2.0 * math.pi * x)


def bessel_ie(v, x):
    """Scaled modified Bessel function of the first kind, e^-x I_v(x).

    Orders v > -1 are supported directly; negative integer orders map to
    their positive twin. The power series is used up to moderate
    argument and the scaled asymptotic expansion beyond; the switch
    point grows with v^2 so the expansion is only used where it reaches
    double precision.
    """
    if x < 0.0:
        raise ValueError(f"bessel_ie requires x >= 0, got {x}")
    if v < 0.0:
        if v == math.floor(v):
            v = -v
        elif v <= -1.0:
            raise ValueError(f"unsupported Bessel order {v}")
    if x == 0.0:
        if v == 0.0:
            return 1.0
        if v > 0.0:
            return 0.0
        raise ValueError("order < 0 diverges at x = 0")
    if x > 30.0 and 2.0 * x > 3.0 * v * v + 19.0:
        return _bessel_ie_asym(v, x)
    return _bessel_ie_series(v, x)


def bessel_i(v, x):
    """Unscaled I_v(x); overflows to inf near x ~ 700 as the true value does."""
    ie = bessel_ie(v, x)
    if x > 709.0:
        return math.inf if ie > 0.0 else 0.0
    return ie * math.exp(x)


def betainc_reg(p, q, x, tol=1e-16, max_iter=400):
    """Regularized incomplete beta I_x(p, q) by Lentz continued fraction."""
    if p <= 0.0 or q <= 0.0:
        raise ValueError("betainc_reg requires p, q > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (p + 1.0) / (p + q + 2.0):
        return 1.0 - betainc_reg(q, p, 1.0 - x, tol, max_iter)
    log_pref = (math.lgamma(p + q) - math.lgamma(p) - math.lgamma(q)
                + p * math.log(x) + q * math.log1p(-x))
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (p + q) * x / (p + 1.0)
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter):
        m2 = 2 * m
        aa = m * (q - m) * x / ((p + m2 - 1.0) * (p + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(p + m) * (p + q + m) * x / ((p + m2) * (p + m2 + 1.0))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            return math.exp(log_pref) * h / p
    raise ConvergenceError("incomplete beta continued fraction did not converge")


def _gauss_series(a, b, c, z, rel_tol, max_terms):
    # direct Gauss series; stop on a geometric tail bound once the term
    # ratio has dropped below 1 (the ratios decrease monotonically for
    # b > c and are bounded by z otherwise)
    term = 1.0
    total = 1.0
    for n in range(max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        total += term
        ratio = abs(z * (a + n + 1.0) * (b + n + 1.0) / ((c + n + 1.0) * (n + 2.0)))
        if ratio < 1.0 and abs(term) * ratio / (1.0 - ratio) <= rel_tol * abs(total):
            return total
    raise ConvergenceError("2F1 series did not converge within the term cap")


def _pfaff_terminating(a, c, z, n_top):
    # 2F1(a, b; c; z) = (1-z)^-a 2F1(a, c-b; c; w), w = z/(z-1); when
    # c - b is a nonpositive integer the transformed series is a
    # polynomial of degree b - c, exact for any z in [0, 1).
    # Kahan-compensated summation keeps the alternating-coefficient
    # polynomial accurate.
    w = z / (z - 1.0)
    cb = -float(n_top - 1)
    term = 1.0
    total = 1.0
    comp = 0.0
    for n in range(n_top - 1):
        term *= (a + n) * (cb + n) / ((c + n) * (1.0 + n)) * w
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total * (1.0 - z) ** (-a)


def _log_f1_beta(b, c, z):
    # ln 2F1(1, b; c; z) through the regularized incomplete beta:
    #   2F1(1, b; c; z) = p B(p, q) I_z(p, q) / (z^p (1-z)^q),
    # p = c - 1, q = b - c + 1. Stable for z -> 1 where the direct
    # series stalls. Returns -inf when I_z underflows; the true value is
    # then irrelevant at working precision in every caller.
    p = c - 1.0
    q = b - c + 1.0
    iz = betainc_reg(p, q, z)
    if iz <= 0.0:
        return -math.inf
    lbeta = math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    return (math.log(p) + lbeta + math.log(iz)
            - p * math.log(z) - q * math.log1p(-z))


def gauss_2f1(a, b, c, z, rel_tol=1e-12, max_terms=10000):
    """Gauss hypergeometric 2F1(a, b; c; z) for 0 <= z < 1, c > 0.

    Dispatch: exact terminating transform when c - b is a nonpositive
    integer, direct series for z <= 0.5, incomplete-beta form for the
    a = 1 shape at z > 0.5, direct series with a term cap otherwise.
    """
    if z == 0.0:
        return 1.0
    cb = c - b
    if cb <= 0.0 and cb == math.floor(cb):
        return _pfaff_terminating(a, c, z, int(-cb) + 1)
    if z <= 0.5:
        return _gauss_series(a, b, c, z, rel_tol, max_terms)
    if a == 1.0 and c > 1.0 and b - c + 1.0 > 0.0:
        return math.exp(_log_f1_beta(b, c, z))
    return _gauss_series(a, b, c, z, rel_tol, max_terms)


def marcum_q_series(m, alpha, beta, abs_tol=1e-12, max_terms=10000):
    """Generalized Marcum Q_m(alpha, beta) by the Poisson-weighted
    incomplete-gamma series.

    Returns ``(value, terms, est_error)``. ``est_error`` bounds the
    truncation error rigorously: every remaining term is a Poisson weight
    times a regularized upper gamma <= 1, and the remaining Poisson mass
    is bounded geometrically because the weight ratios x/(l+1) decrease.
    It adds for rounding 8 eps times the value times the sum of the
    magnitudes of the addends of the two log prefactors (of the Poisson
    weights and of the gamma increments: lgamma, l ln x, x) and the term
    count: a log's absolute error is relative in the value, and each term
    adds a few eps.
    """
    if beta == 0.0:
        return 1.0, 0, 0.0
    x = 0.5 * alpha * alpha
    y = 0.5 * beta * beta
    # deep upper tail: every series term is a Poisson weight times
    # Q(s, y) with s <= m + x + 40 sqrt(x) + 30 up to e-800 of Poisson
    # mass; Gamma(s, y) <= 2 y^(s-1) e^-y for s - 1 <= y/2 bounds the lot
    s_hi = m + x + 40.0 * math.sqrt(x) + 31.0
    if y > 2.0 * s_hi:
        bound_log = (s_hi - 1.0) * math.log(y) - y - math.lgamma(s_hi) + math.log(2.0)
        if bound_log < math.log(abs_tol) - 2.0:
            return 0.0, 0, math.exp(max(bound_log, _LOG_TINY)) + 1e-300
    if x == 0.0:
        return gammainc_upper_reg(m, y), 1, 0.0
    # for very large x, skip the negligible lower Poisson tail
    l0 = 0
    skipped = 0.0
    if x > 600.0:
        l0 = int(x - 40.0 * math.sqrt(x) - 30.0)
        if l0 < 0:
            l0 = 0
    # Poisson weights run in a frame scaled by the starting weight, so the
    # significant l range stays reachable even when that weight underflows
    ln_scale = -x
    if l0 > 0:
        lg_l0 = math.lgamma(l0 + 1.0)
        ln_scale = l0 * math.log(x) - x - lg_l0
        rho_d = l0 / x
        skipped = math.exp(ln_scale + math.log(rho_d / (1.0 - rho_d)))
    w = 1.0
    q = gammainc_upper_reg(m + l0, y)
    # increment of the regularized gamma along l; carried in log form
    # while it sits below the representable range, since it can grow back
    # above it whenever m + l < y
    ln_y = math.log(y)
    lg_e = math.lgamma(m + l0 + 1.0)
    ln_e = (m + l0) * ln_y - y - lg_e
    e = math.exp(ln_e) if ln_e > -700.0 else 0.0
    # magnitudes of the addends of ln_scale and ln_e, whose rounding is
    # relative in the value
    mag = x + abs((m + l0) * ln_y) + y + abs(lg_e)
    if l0 > 0:
        mag += l0 * abs(math.log(x)) + lg_l0
    total = w * q
    ln_abs_tol = math.log(abs_tol)
    renorm = 1e250
    l = l0
    while True:
        l += 1
        if l - l0 > max_terms:
            raise ConvergenceError(
                f"Marcum-Q series hit the {max_terms}-term cap before abs_tol")
        w *= x / l
        q += e
        if e > 0.0:
            e *= y / (m + l)
        else:
            ln_e += ln_y - math.log(m + l)
            if ln_e > -700.0:
                e = math.exp(ln_e)
        total += w * q
        if w > renorm:
            w /= renorm
            total /= renorm
            ln_scale += math.log(renorm)
        rho = x / (l + 1.0)
        if rho < 1.0 and w > 0.0:
            ln_tail = ln_scale + math.log(w) + math.log(rho / (1.0 - rho))
            if ln_tail < ln_abs_tol:
                value = math.exp(ln_scale + math.log(total)) if total > 0.0 else 0.0
                tail = math.exp(ln_tail)
                rounding = 8.0 * 2.220446049250313e-16 * (mag + (l - l0 + 1)) * value
                return min(value, 1.0), l - l0 + 1, tail + skipped + rounding
        elif w == 0.0:
            value = math.exp(ln_scale + math.log(total)) if total > 0.0 else 0.0
            rounding = 8.0 * 2.220446049250313e-16 * (mag + (l - l0 + 1)) * value
            return min(value, 1.0), l - l0 + 1, skipped + rounding


def _seed_block(mu_e, k, q0, z, max_terms, seeds):
    # seeds[i] = 2F1(1, p+q0; p+1; z) at p = mu_e+k+i, i < 32: the Gauss
    # series at the top of the block, the rest down from it by
    # F(p) = 1 + z (p+q0)/(p+1) F(p+1), where every step adds positive
    # terms (upward the relation cancels by about 1/z per step)
    f = _gauss_series(1.0, mu_e + (k + 31) + q0, mu_e + (k + 31) + 1.0, z, 1e-15, max_terms)
    seeds[31] = f
    for i in range(30, -1, -1):
        p = mu_e + (k + i)
        f = 1.0 + z * (p + q0) / (p + 1.0) * f
        seeds[i] = f


def _survival_constants(mu_m, mu_e, alpha_m, alpha_e, beta_m, beta_e):
    # the constants of one survival series that do not depend on k, shared
    # by survival_series and survival_series_many: z and the logs of z,
    # 1 - z and alpha_e, the first inner index l0 with the l0 part of each
    # term's log (ln_l0) and the log of the mass skipped below it, q0 and
    # its lgamma, and the magnitudes behind the rounding term
    if beta_m < beta_e:
        raise ValueError(f"survival_series requires beta_m >= beta_e, "
                         f"got {beta_m} < {beta_e}")
    total_be = beta_m + beta_e
    z = beta_e / total_be
    ln_z = math.log(beta_e) - math.log(total_be)
    ln_1mz = math.log(beta_m) - math.log(total_be)
    one_mz = beta_m / total_be
    ln_ae = math.log(alpha_e) if alpha_e > 0.0 else -math.inf
    ln_am = math.log(alpha_m) if alpha_m > 0.0 else 0.0
    # start the inner sums above the negligible lower Poisson tail of alpha_m
    l0 = 0
    if alpha_m > 600.0:
        l0 = int(alpha_m - 40.0 * math.sqrt(alpha_m) - 30.0)
        if l0 < 0:
            l0 = 0
    ln_skip_l = -math.inf
    if l0 > 0:
        rho_d = l0 / alpha_m
        ln_skip_l = (l0 * ln_am - alpha_m - math.lgamma(l0 + 1.0)
                     + math.log(rho_d / (1.0 - rho_d)))
    q0 = mu_m + l0
    lg_q0 = math.lgamma(q0)
    # magnitudes of the addends of a term's log that do not depend on k,
    # and of the logs behind ln_z and ln_1mz, whose rounding p and q0 scale
    mag0 = alpha_m + abs(lg_q0)
    mag_z = abs(math.log(beta_e)) + abs(math.log(total_be))
    mag_1mz = abs(math.log(beta_m)) + abs(math.log(total_be))
    if l0 > 0:
        mag0 += l0 * ln_am + math.lgamma(l0 + 1.0)
    ln_l0 = l0 * ln_am - math.lgamma(l0 + 1.0) if l0 > 0 else 0.0
    return (z, ln_z, ln_1mz, one_mz, ln_ae, l0, ln_l0, ln_skip_l, q0, lg_q0,
            mag0, mag_z, mag_1mz)


def survival_series(mu_m, mu_e, alpha_m, alpha_e, beta_m, beta_e,
                    abs_tol=1e-12, rel_tol=1e-10, max_terms=10000):
    """Double series for Pr(gamma_M > gamma_E) between two channels with
    gamma-family parameters (mu, alpha = kappa*mu, beta = (1+kappa)*mu/gbar).

    Term (k, l) is assembled from log-gamma differences and one
    hypergeometric factor F_l = 2F1(1, mu_e+k+mu_m+l; mu_e+k+1; z) with
    z = beta_e/(beta_m+beta_e). F is seeded once per k and advanced over
    l with the stable two-term contiguous recurrence

        F_{l+1} = ((mu_m+l) F_l + (mu_e+k)) / ((1-z)(mu_e+k+mu_m+l)),

    carried in the normalization gh_l = (1-z)^(l-l0) F_l / F_l0, which
    is non-increasing and rescaled before it can underflow. The seeds come
    in blocks of 32 outer terms: the Gauss series sums the seed at the top
    of a block, and the exact relation (DLMF 15.5)

        F(k) = 1 + z (p+q0)/(p+1) F(k+1),  p = mu_e+k, q0 = mu_m+l0,

    fills the rest downward, each step adding positive terms (upward it
    would cancel by about 1/z per step). The Gauss series needs z <= 1/2,
    so the channel with the larger rate goes first (beta_m >= beta_e, as
    ``secrecy._survival`` orders them); the other order raises
    ``ValueError``. Each inner sum runs in a log-scaled frame
    (terms relative to the starting term, renormalized on growth), so the
    l range near the Poisson mode of alpha_m stays reachable even when
    the l = 0 term underflows; its stop test is taken in logs, and only
    once a linear pre-test against the tolerance in that frame, widened
    by a relative 1e-9, shows it can pass.

    Returns ``(value, k_terms, l_terms_max, est_error)``; ``est_error``
    adds the geometric bound of every truncated inner sum and of the
    outer tail (each outer term is at most its Poisson weight in k), and
    for rounding 8 eps times each outer term times the sum of the
    magnitudes of its log's addends and the count of its inner terms
    (the log's absolute error is relative in the term, and each inner
    step adds a few eps; 8 eps also covers the seeds' 1e-15 truncation).

    ``survival_series_many`` sums the series of many rows at once and
    returns, bit for bit, what this kernel returns for each row: a change
    to the recurrence, the stop tests or the error terms here must change
    it too.
    """
    (z, ln_z, ln_1mz, one_mz, ln_ae, l0, ln_l0, ln_skip_l, q0, lg_q0,
     mag0, mag_z, mag_1mz) = _survival_constants(
         mu_m, mu_e, alpha_m, alpha_e, beta_m, beta_e)
    ln_abs_tol = math.log(abs_tol)
    renorm = 1e250
    ln_renorm = math.log(renorm)

    total = 0.0
    est_error = 0.0
    l_max = 0
    small_run = 0  # consecutive outer terms below abs_tol / 10
    seeds = [0.0] * 32
    k = 0
    while True:
        p = mu_e + k
        # seed F at l = l0
        if (k & 31) == 0:
            _seed_block(mu_e, k, q0, z, max_terms, seeds)
        f0 = seeds[k & 31]
        ln_f0 = math.log(f0)
        inv_f0 = 1.0 / f0
        # log of the (k, l0) term: Poisson weights in k and l0, gamma
        # factors, powers of z and 1-z, and the hypergeometric seed; mag
        # sums the magnitudes of its addends
        log_wk = -alpha_e - math.lgamma(k + 1.0)
        mag = mag0 - log_wk
        if k > 0:
            log_wk += k * ln_ae
            mag += abs(k * ln_ae)
        lg_p = math.lgamma(p)
        lg_pq = math.lgamma(p + q0)
        log_ts = (log_wk + p * ln_z + q0 * ln_1mz - alpha_m
                  - lg_p - math.log(p) - lg_q0 + lg_pq + ln_f0)
        mag += (p * mag_z + q0 * mag_1mz + abs(lg_p) + abs(math.log(p))
                + abs(lg_pq) + abs(ln_f0))
        if l0 > 0:
            log_ts += ln_l0
        # inner sum in a frame scaled by exp(log_scale)
        log_scale = log_ts if math.isfinite(log_ts) else -math.inf
        t = 1.0 if math.isfinite(log_ts) else 0.0
        acc = t
        gh = 1.0        # (1-z)^(l-l0) F_l / F_l0, starts at 1, non-increasing
        e = inv_f0      # (1-z)^(l-l0) / F_l0; always <= gh
        l = l0
        ln_inner_tol = ln_abs_tol - math.log(8.0 * (1.0 + float(k) * k))
        if alpha_m > 0.0 and t > 0.0:
            # the stop tolerance in the frame, clamped to the double range
            tol_frame = math.exp(min(max(ln_inner_tol - log_scale, -700.0), 700.0)) * (1.0 + 1e-9)
            while True:
                num = (mu_m + l) * gh + p * e
                t *= alpha_m * num / ((l + 1.0) * (mu_m + l) * gh)
                gh = num / (p + mu_m + l)
                e *= one_mz
                if gh < 1e-200:
                    # the term update only sees e/gh, so a joint rescale is exact
                    e /= gh
                    gh = 1.0
                l += 1
                acc += t
                if t == 0.0:
                    break
                if t > renorm:
                    t /= renorm
                    acc /= renorm
                    log_scale += ln_renorm
                    tol_frame = math.exp(min(max(ln_inner_tol - log_scale, -700.0), 700.0)) * (1.0 + 1e-9)
                # majorant of all later term ratios (uses F_{l+1}/F_l <= 1/(1-z))
                rho = alpha_m * (1.0 + p / (mu_m + l)) / (l + 1.0)
                # the linear pre-test passes wherever the log test can, so
                # the logs run once per sum, not once per term
                if rho < 1.0 and t * rho <= tol_frame * (1.0 - rho):
                    ln_tail = log_scale + math.log(t) + math.log(rho / (1.0 - rho))
                    if ln_tail <= ln_inner_tol:
                        est_error += math.exp(ln_tail)
                        break
                if l - l0 > max_terms:
                    raise ConvergenceError(
                        f"inner series hit the {max_terms}-term cap before abs_tol")
        ln_inner = log_scale + math.log(acc) if acc > 0.0 else -math.inf
        inner = math.exp(ln_inner) if ln_inner > _LOG_TINY else 0.0
        if ln_skip_l > -math.inf:
            # mass skipped below l0, bounded by the lower Poisson tail
            skip = log_wk + ln_skip_l
            est_error += math.exp(skip) if skip > _LOG_TINY else 0.0
        if inner > 0.0:
            # rounding: the log's absolute error is relative in the term
            est_error += 8.0 * 2.220446049250313e-16 * (mag + (l - l0 + 1)) * inner
        if l > l_max:
            l_max = l
        total += inner

        # outer stopping: past the Poisson mode the remaining outer mass is
        # bounded by the Poisson tail in k; a run of small terms is also
        # required so that a non-monotone start cannot exit early
        small_run = small_run + 1 if inner < abs_tol / 10.0 else 0
        k += 1
        if k > alpha_e and small_run >= 3:
            rho_k = alpha_e / (k + 1.0)
            w_tail = math.exp(log_wk) * rho_k / (1.0 - rho_k)
            if w_tail < 0.5 * abs_tol:
                est_error += w_tail
                break
        if k > max_terms:
            raise ConvergenceError(
                f"outer series hit the {max_terms}-term cap before abs_tol")
    return min(total, 1.0), k, l_max, est_error


def _outer_tail(alpha_e, ln_ae, k):
    # the Poisson tail that survival_series' outer stop weighs after outer
    # term k: the term's log weight, formed as the kernel forms it, times
    # rho/(1-rho)
    log_wk = -alpha_e - math.lgamma(k + 1.0)
    if k > 0:
        log_wk += k * ln_ae
    rho_k = alpha_e / (k + 2.0)
    return math.exp(log_wk) * rho_k / (1.0 - rho_k)


def _first_tail_pass(alpha_e, ln_ae, abs_tol, max_terms):
    # a k <= max_terms past alpha_e - 1 whose Poisson tail passes the outer
    # stop and whose predecessor's does not (the first such k while the
    # tail falls), found by doubling and bisection; None if there is none
    lo = max(0, math.floor(alpha_e)) - 1  # the tail after lo is not tested
    if lo >= max_terms:
        return None
    step = 1
    hi = lo + 1
    while not _outer_tail(alpha_e, ln_ae, hi) < 0.5 * abs_tol:
        if hi >= max_terms:
            return None
        lo, step = hi, 2 * step
        hi = min(lo + step, max_terms)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _outer_tail(alpha_e, ln_ae, mid) < 0.5 * abs_tol:
            hi = mid
        else:
            lo = mid
    return hi


def _mapped(fn, values, bad, where=None):
    # fn over the floats of a 1-D array, called on each as the scalar kernel
    # calls it; an element fn raises on reads NaN and sets bad[where[i]]
    values = values.tolist()
    try:
        return np.array([fn(v) for v in values], dtype=float)
    except (ArithmeticError, ValueError):
        out = []
        for i, v in enumerate(values):
            try:
                out.append(fn(v))
            except (ArithmeticError, ValueError):
                out.append(math.nan)
                bad[i if where is None else where[i]] = True
        return np.array(out, dtype=float)


def _mapped_unique(fn, values, bad):
    # _mapped over the distinct values only, which the columns of a sweep
    # share (p = mu_e + k, say)
    distinct, inverse = np.unique(values, return_inverse=True)
    bad_distinct = np.zeros(distinct.size, dtype=bool)
    out = _mapped(fn, distinct, bad_distinct)[inverse]
    bad |= bad_distinct[inverse]
    return out


class _Row:
    """A row of ``survival_series_many``: its arguments and constants, its
    2F1 seeds so far, the per-column results of its columns summed so far,
    how many columns it wants, and, once known, its result (``None`` while
    unknown, and for a row left to the scalar kernel)."""

    def __init__(self, args, constants, wanted):
        self.args = args
        self.constants = constants
        self.wanted = wanted
        self.seeds = []
        self.columns = None
        self.result = None


def survival_series_many(rows, abs_tol=1e-12, max_terms=10000):
    """``[survival_series(*row, abs_tol, max_terms=max_terms) for row in
    rows]``, equal bit for bit, with the inner sums of all rows summed
    together.

    A row holds the six channel arguments of ``survival_series``, the
    larger rate first; a change to that kernel's recurrence, stop tests or
    error terms must change this one too. Each (row, k) inner sum is a
    column here, and all columns of the batch advance over l together as
    numpy arrays: each step makes the scalar kernel's float operations in
    its order, every lgamma, log and exp is ``math``'s, mapped over the
    elements, and the outer sums are taken left to right (``np.cumsum``),
    so each row's result is the scalar one. The outer stop depends on the
    inner sums only through its run of small terms: a row first gets the
    columns up to one past the first k whose Poisson tail passes (most
    rows stop at that k or the next), then four more at a time until the
    run stops it, and columns past its stop are discarded. A row the lockstep cannot carry, because one of its
    columns raised or hit a term cap or its l would pass 2^53, is summed
    by ``survival_series`` itself, which raises that row's error; rows
    are finished in order, so a batch raises its first failing row's
    error. A batch of one costs several times the scalar kernel, which is
    what single pairs use.
    """
    rows = [tuple(row) for row in rows]
    batch = {}
    for i, args in enumerate(rows):
        try:
            constants = _survival_constants(*args)
            first = _first_tail_pass(args[3], constants[4], abs_tol, max_terms)
        except (ArithmeticError, ValueError):
            continue
        if first is not None and constants[5] + max_terms + 2 < 2 ** 53:
            batch[i] = _Row(args, constants, min(max(first, 2) + 2, max_terms + 1))
    pending = list(batch.values())
    while pending:
        pending = _survival_stops(_survival_columns(pending, abs_tol, max_terms),
                                  abs_tol, max_terms)
    return [batch[i].result if i in batch and batch[i].result is not None
            else survival_series(*args, abs_tol, max_terms=max_terms)
            for i, args in enumerate(rows)]


def _survival_columns(rows, abs_tol, max_terms):
    # sums each row's columns from its last summed one up to the one it
    # wants, and appends their inner sums, addends of est_error (inner
    # tail, skipped mass, rounding), inner steps and failures to
    # row.columns; returns the rows whose seeds could be had
    ln_abs_tol = math.log(abs_tol)
    summed, consts, ks, seeds = [], [], [], []
    for row in rows:
        start = 0 if row.columns is None else row.columns["inner"].size
        (z, ln_z, ln_1mz, one_mz, ln_ae, l0, ln_l0, ln_skip_l, q0, lg_q0,
         mag0, mag_z, mag_1mz) = row.constants
        mu_m, mu_e, alpha_m, alpha_e = row.args[:4]
        try:
            while len(row.seeds) < row.wanted:
                block = [0.0] * 32
                _seed_block(mu_e, len(row.seeds), q0, z, max_terms, block)
                row.seeds.extend(block)
        except (ArithmeticError, ValueError, ConvergenceError):
            continue  # left to the scalar kernel, which raises or sums it
        summed.append(row)
        consts.append((mu_m, mu_e, alpha_m, alpha_e, one_mz, ln_z, ln_1mz, ln_ae, l0,
                       ln_l0, ln_skip_l, q0, lg_q0, mag0, mag_z, mag_1mz))
        ks.append(np.arange(start, row.wanted))
        seeds.extend(row.seeds[start:row.wanted])
    if not summed:
        return summed
    counts = [k.size for k in ks]
    (mu_m, mu_e, alpha_m, alpha_e, one_mz, ln_z, ln_1mz, ln_ae, l0, ln_l0, ln_skip_l,
     q0, lg_q0, mag0, mag_z, mag_1mz) = np.repeat(np.array(consts), counts, axis=0).T
    k = np.concatenate(ks).astype(float)
    f0 = np.array(seeds)
    n = k.size
    bad = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        # the log of each (k, l0) term and the magnitude of its addends
        p = mu_e + k
        ln_f0 = _mapped(math.log, f0, bad)
        log_wk = -alpha_e - _mapped_unique(math.lgamma, k + 1.0, bad)
        mag = mag0 - log_wk
        k_ln_ae = k * ln_ae
        later = k > 0.0
        log_wk = np.where(later, log_wk + k_ln_ae, log_wk)
        mag = np.where(later, mag + np.abs(k_ln_ae), mag)
        lg_p = _mapped_unique(math.lgamma, p, bad)
        ln_p = _mapped_unique(math.log, p, bad)
        lg_pq = _mapped_unique(math.lgamma, p + q0, bad)
        log_ts = (log_wk + p * ln_z + q0 * ln_1mz - alpha_m
                  - lg_p - ln_p - lg_q0 + lg_pq + ln_f0)
        mag = mag + (p * mag_z + q0 * mag_1mz + np.abs(lg_p) + np.abs(ln_p)
                     + np.abs(lg_pq) + np.abs(ln_f0))
        log_ts = np.where(l0 > 0.0, log_ts + ln_l0, log_ts)
        finite = np.isfinite(log_ts)
        log_scale = np.where(finite, log_ts, -math.inf)
        acc = finite.astype(float)
        ln_inner_tol = ln_abs_tol - _mapped_unique(math.log, 8.0 * (1.0 + k * k), bad)
        steps = np.zeros(n)
        tail = np.zeros(n)
        looped = np.flatnonzero((alpha_m > 0.0) & (acc > 0.0))
        if looped.size:
            frame = np.minimum(np.maximum(ln_inner_tol[looped] - log_scale[looped], -700.0),
                               700.0)
            tol_frame = _mapped(math.exp, frame, bad, looped) * (1.0 + 1e-9)
            _inner_lockstep(looped, p, mu_m, alpha_m, one_mz, l0, 1.0 / f0, tol_frame,
                            log_scale, ln_inner_tol, max_terms, acc, steps, tail, bad)
        ln_inner = np.full(n, -math.inf)
        pos = np.flatnonzero(acc > 0.0)
        ln_inner[pos] = log_scale[pos] + _mapped(math.log, acc[pos], bad, pos)
        inner = np.zeros(n)
        pos = np.flatnonzero(ln_inner > _LOG_TINY)
        inner[pos] = _mapped(math.exp, ln_inner[pos], bad, pos)
        skip = np.zeros(n)
        skip_log = log_wk + ln_skip_l
        pos = np.flatnonzero((ln_skip_l > -math.inf) & (skip_log > _LOG_TINY))
        skip[pos] = _mapped(math.exp, skip_log[pos], bad, pos)
        rounding = np.where(inner > 0.0, 8.0 * 2.220446049250313e-16
                            * (mag + (steps + 1.0)) * inner, 0.0)
    addends = np.stack([tail, skip, rounding], axis=1)
    for row, part in zip(summed, np.split(np.arange(n), np.cumsum(counts)[:-1])):
        new = {"inner": inner[part], "log_wk": log_wk[part], "addends": addends[part],
               "steps": steps[part], "bad": bad[part]}
        if row.columns is not None:
            new = {key: np.concatenate([row.columns[key], value]) for key, value in new.items()}
        row.columns = new
    return summed


def _inner_lockstep(cols, p, mu_m, alpha_m, one_mz, l0, inv_f0, tol_frame, log_scale,
                    ln_inner_tol, max_terms, acc, steps, tail, bad):
    # the inner sums of columns ``cols``, each started at t = 1 in its
    # frame, all advanced over l together; as a column stops it writes its
    # sum (acc), its steps past l0, its tail bound and its frame
    # (log_scale), and marks bad a column that hit the term cap or raised.
    # Stopped columns run on, their values unused, until a quarter of the
    # state has stopped and is dropped in one copy.
    renorm = 1e250
    ln_renorm = math.log(renorm)
    ones = np.ones(cols.size)
    # t, acc, gh, e, l, l + 1, mu_m + l, mu_m, p, p + mu_m, alpha_m, 1 - z,
    # tol_frame and the column of each inner sum
    state = np.array([ones, ones, ones, inv_f0[cols], l0[cols], l0[cols] + 1.0,
                      mu_m[cols] + l0[cols], mu_m[cols], p[cols], p[cols] + mu_m[cols],
                      alpha_m[cols], one_mz[cols], tol_frame, cols])
    live = np.ones(cols.size, dtype=bool)
    stopped_since = 0
    i = 0
    while live.size:
        i += 1
        t, acc_, gh, e, l, l1, ml, mu, pp, pm, am, omz, tol, col = state
        num = ml * gh + pp * e
        t *= am * num / (l1 * ml * gh)
        np.divide(num, pm + l, out=gh)
        e *= omz
        # fmin and fmax skip the NaN a stopped column may carry
        if np.fmin.reduce(gh) < 1e-200:
            # the term update only sees e/gh, so a joint rescale is exact
            low = gh < 1e-200
            e[low] /= gh[low]
            gh[low] = 1.0
        l[:] = l1
        acc_ += t
        np.add(mu, l, out=ml)
        l1 += 1.0
        stopped = []
        if np.fmin.reduce(t) == 0.0:
            js = np.flatnonzero(t == 0.0)
            js = js[live[js]]
            live[js] = False
            stopped.append(js)
        if np.fmax.reduce(t) > renorm:
            js = np.flatnonzero(t > renorm)
            js = js[live[js]]
            c = col[js].astype(int)
            t[js] /= renorm
            acc_[js] /= renorm
            log_scale[c] += ln_renorm
            frame = np.minimum(np.maximum(ln_inner_tol[c] - log_scale[c], -700.0), 700.0)
            tol[js] = _mapped(math.exp, frame, bad, c) * (1.0 + 1e-9)
        rho = am * (1.0 + pp / ml) / l1
        near = (rho < 1.0) & (t * rho <= tol * (1.0 - rho))
        if near.any():
            # the stop test in logs, where the linear pre-test passes
            js = np.flatnonzero(near)
            js = js[live[js]]
            c = col[js].astype(int)
            ratio = rho[js] / (1.0 - rho[js])
            ln_tail = (log_scale[c] + _mapped(math.log, t[js], bad, c)
                       + _mapped(math.log, ratio, bad, c))
            done = ln_tail <= ln_inner_tol[c]
            tail[c[done]] = _mapped(math.exp, ln_tail[done], bad, c[done])
            done |= bad[c]
            live[js[done]] = False
            stopped.append(js[done])
        if stopped:
            js = np.concatenate(stopped)
            c = col[js].astype(int)
            acc[c] = acc_[js]
            steps[c] = i
            stopped_since += js.size
        if i > max_terms:
            bad[col[live].astype(int)] = True
            break
        if 4 * stopped_since >= live.size:
            state = state[:, live]
            live = np.ones(state.shape[1], dtype=bool)
            stopped_since = 0


def _survival_stops(rows, abs_tol, max_terms):
    # survival_series' outer stop over the rows' summed columns, one array
    # row per row, padded with columns that are never small: sets
    # row.result, or leaves it None for the scalar kernel, and returns the
    # rows that need more columns
    if not rows:
        return rows
    width = max(row.columns["inner"].size for row in rows)
    inner = np.full((len(rows), width), math.inf)
    log_wk = np.zeros((len(rows), width))
    addends = np.zeros((len(rows), width, 3))
    steps = np.zeros((len(rows), width))
    for r, row in enumerate(rows):
        n = row.columns["inner"].size
        inner[r, :n] = row.columns["inner"]
        log_wk[r, :n] = row.columns["log_wk"]
        addends[r, :n] = row.columns["addends"]
        steps[r, :n] = row.columns["steps"]
    failed = np.array([row.columns["bad"].any() for row in rows])
    alpha_e = np.array([row.args[3] for row in rows])
    # a run of three small outer terms past the Poisson mode of alpha_e,
    # where the Poisson tail in k passes
    small = inner < abs_tol / 10.0
    run = small[:, 2:] & small[:, 1:-1] & small[:, :-2]
    run &= np.arange(3.0, width + 1.0) > alpha_e[:, None]
    run[failed] = False
    rs, cs = np.nonzero(run)
    cs = cs + 2
    with np.errstate(all="ignore"):
        w_tail = _mapped(math.exp, log_wk[rs, cs], failed, rs)
        rho_k = alpha_e[rs] / (cs + 2.0)
        w_tail = w_tail * rho_k / (1.0 - rho_k)
        # left to right along each row, as the scalar kernel adds
        total = np.cumsum(inner, axis=1)
        est_error = np.cumsum(addends.reshape(len(rows), 3 * width), axis=1)
    passed = w_tail < 0.5 * abs_tol
    stopping, first = np.unique(rs[passed], return_index=True)
    stops = dict(zip(stopping.tolist(), zip(cs[passed][first].tolist(),
                                            w_tail[passed][first].tolist())))
    more = []
    for r, row in enumerate(rows):
        if failed[r]:
            continue
        if r in stops:
            c, w = stops[r]
            row.result = (min(float(total[r, c]), 1.0), c + 1,
                          row.constants[5] + int(steps[r, :c + 1].max()),
                          float(est_error[r, 3 * c + 2]) + w)
        elif row.columns["inner"].size <= max_terms:
            row.wanted = min(row.columns["inner"].size + 4, max_terms + 1)
            more.append(row)
    return more
