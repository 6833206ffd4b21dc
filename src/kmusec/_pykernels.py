"""Pure-Python numerical kernels.

This module is the fallback twin of the compiled extension
``kmusec._ckernels``; both expose the same functions with the same
algorithms, and the test suite checks that they agree. Everything here
is scalar and free of module state, so concurrent use is safe.

Conventions used throughout:

* gamma-family magnitudes are assembled in the log domain and
  exponentiated once per term, so factors such as Gamma(mu+k+l) never
  overflow on their own;
* every truncated series reports a rigorous upper bound on its
  truncation error, obtained from a geometric majorant of the term
  ratios (valid because the majorant ratios are provably decreasing).
"""
import math

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

    Returns ``(value, terms, est_error)``. ``est_error`` is a rigorous
    upper bound on the truncation error: every remaining term is a
    Poisson weight times a regularized upper gamma <= 1, and the
    remaining Poisson mass is bounded geometrically because the weight
    ratios x/(l+1) decrease.
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
        ln_scale = l0 * math.log(x) - x - math.lgamma(l0 + 1.0)
        rho_d = l0 / x
        skipped = math.exp(ln_scale + math.log(rho_d / (1.0 - rho_d)))
    w = 1.0
    q = gammainc_upper_reg(m + l0, y)
    # increment of the regularized gamma along l; carried in log form
    # while it sits below the representable range, since it can grow back
    # above it whenever m + l < y
    ln_y = math.log(y)
    ln_e = (m + l0) * ln_y - y - math.lgamma(m + l0 + 1.0)
    e = math.exp(ln_e) if ln_e > -700.0 else 0.0
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
                return min(value, 1.0), l - l0 + 1, tail + skipped
        elif w == 0.0:
            value = math.exp(ln_scale + math.log(total)) if total > 0.0 else 0.0
            return min(value, 1.0), l - l0 + 1, skipped


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
    is non-increasing and rescaled before it can underflow. For z <= 1/2
    the seeds come in blocks of 32 outer terms: the Gauss series sums the
    seed at the top of a block, and the exact relation (DLMF 15.5)

        F(k) = 1 + z (p+q0)/(p+1) F(k+1),  p = mu_e+k, q0 = mu_m+l0,

    fills the rest downward, each step adding positive terms (upward it
    would cancel by about 1/z per step). For z > 1/2 each seed comes from
    the incomplete-beta form. Each inner sum runs in a log-scaled frame
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
    """
    total_be = beta_m + beta_e
    z = beta_e / total_be
    ln_z = math.log(beta_e) - math.log(total_be)
    ln_1mz = math.log(beta_m) - math.log(total_be)
    one_mz = beta_m / total_be
    ln_ae = math.log(alpha_e) if alpha_e > 0.0 else -math.inf
    ln_am = math.log(alpha_m) if alpha_m > 0.0 else 0.0
    ln_abs_tol = math.log(abs_tol)
    renorm = 1e250
    ln_renorm = math.log(renorm)

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
    # magnitudes of the addends of log_ts (below) that do not depend on k,
    # and of the logs behind ln_z and ln_1mz, whose rounding p and q0 scale
    mag0 = alpha_m + abs(lg_q0)
    mag_z = abs(math.log(beta_e)) + abs(math.log(total_be))
    mag_1mz = abs(math.log(beta_m)) + abs(math.log(total_be))
    if l0 > 0:
        mag0 += l0 * ln_am + math.lgamma(l0 + 1.0)

    total = 0.0
    est_error = 0.0
    l_max = 0
    small_run = 0  # consecutive outer terms below abs_tol / 10
    seeds = [0.0] * 32
    k = 0
    while True:
        p = mu_e + k
        # seed F at l = l0
        if z <= 0.5:
            if (k & 31) == 0:
                _seed_block(mu_e, k, q0, z, max_terms, seeds)
            f0 = seeds[k & 31]
            ln_f0 = math.log(f0)
            inv_f0 = 1.0 / f0
        else:
            ln_f0 = _log_f1_beta(p + q0, p + 1.0, z)
            inv_f0 = math.exp(-ln_f0) if -ln_f0 > _LOG_TINY else 0.0
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
            log_ts += l0 * ln_am - math.lgamma(l0 + 1.0)
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
