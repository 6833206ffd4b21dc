# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled numerical kernels.

Twin of ``kmusec._pykernels`` with identical algorithms; see that module
for the commentary. The test suite asserts agreement between the two.
"""
from libc.math cimport (INFINITY, exp, fabs, floor, lgamma as c_lgamma, log,
                        log1p, sqrt)

from kmusec.errors import ConvergenceError

cdef double _LOG_TINY = -745.0
cdef double _PI = 3.141592653589793238462643383279503


def log_gamma(double x):
    """ln Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return c_lgamma(x)


cdef double _gammainc_upper_reg(double s, double x, double tol,
                                int max_iter) except -1.0:
    cdef double log_pref, ap, term, total, tiny, b, c, d, h, an, delta
    cdef int i, converged
    if x == 0.0:
        return 1.0
    log_pref = s * log(x) - x - c_lgamma(s)
    if x < s + 1.0:
        ap = s
        term = 1.0 / s
        total = term
        converged = 0
        for i in range(max_iter):
            ap += 1.0
            term *= x / ap
            total += term
            if term < total * tol:
                converged = 1
                break
        if not converged:
            raise ConvergenceError("incomplete gamma series did not converge")
        return 1.0 - total * exp(log_pref)
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, max_iter):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if fabs(d) < tiny:
            d = tiny
        c = b + an / c
        if fabs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if fabs(delta - 1.0) < tol:
            return exp(log_pref) * h
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


def gammainc_upper_reg(double s, double x, double tol=1e-16, int max_iter=500):
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x)/Gamma(s)."""
    if s <= 0.0:
        raise ValueError(f"gammainc_upper_reg requires s > 0, got {s}")
    if x < 0.0:
        raise ValueError(f"gammainc_upper_reg requires x >= 0, got {x}")
    return _gammainc_upper_reg(s, x, tol, max_iter)


cdef double _bessel_ie_series(double v, double x) except -1.0:
    cdef double half = 0.5 * x
    cdef double term = exp(v * log(half) - c_lgamma(v + 1.0) - x)
    cdef double total = term
    cdef double hh = half * half
    cdef double k = 0.0
    while True:
        k += 1.0
        term *= hh / (k * (v + k))
        total += term
        if term <= total * 1e-17:
            return total
        if k > 1e6:
            raise ConvergenceError("Bessel series did not converge")


cdef double _bessel_ie_asym(double v, double x):
    cdef double fourv2 = 4.0 * v * v
    cdef double total = 1.0
    cdef double term = 1.0
    cdef double prev = INFINITY
    cdef int k
    for k in range(1, 40):
        term *= -(fourv2 - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        if fabs(term) >= prev:
            break
        total += term
        prev = fabs(term)
        if prev < 1e-17 * fabs(total):
            break
    return total / sqrt(2.0 * _PI * x)


cdef double _bessel_ie(double v, double x) except -1.0:
    if x < 0.0:
        raise ValueError(f"bessel_ie requires x >= 0, got {x}")
    if v < 0.0:
        if v == floor(v):
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


def bessel_ie(double v, double x):
    """Scaled modified Bessel function of the first kind, e^-x I_v(x)."""
    return _bessel_ie(v, x)


def bessel_i(double v, double x):
    """Unscaled I_v(x); overflows to inf near x ~ 700 as the true value does."""
    cdef double ie = _bessel_ie(v, x)
    if x > 709.0:
        return INFINITY if ie > 0.0 else 0.0
    return ie * exp(x)


cdef double _betainc_reg(double p, double q, double x, double tol,
                         int max_iter) except -1.0:
    cdef double log_pref, tiny, c, d, h, aa, delta
    cdef int m, m2
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (p + 1.0) / (p + q + 2.0):
        return 1.0 - _betainc_reg(q, p, 1.0 - x, tol, max_iter)
    log_pref = (c_lgamma(p + q) - c_lgamma(p) - c_lgamma(q)
                + p * log(x) + q * log1p(-x))
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (p + q) * x / (p + 1.0)
    if fabs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter):
        m2 = 2 * m
        aa = m * (q - m) * x / ((p + m2 - 1.0) * (p + m2))
        d = 1.0 + aa * d
        if fabs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if fabs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(p + m) * (p + q + m) * x / ((p + m2) * (p + m2 + 1.0))
        d = 1.0 + aa * d
        if fabs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if fabs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if fabs(delta - 1.0) < tol:
            return exp(log_pref) * h / p
    raise ConvergenceError("incomplete beta continued fraction did not converge")


def betainc_reg(double p, double q, double x, double tol=1e-16,
                int max_iter=400):
    """Regularized incomplete beta I_x(p, q) by Lentz continued fraction."""
    if p <= 0.0 or q <= 0.0:
        raise ValueError("betainc_reg requires p, q > 0")
    return _betainc_reg(p, q, x, tol, max_iter)


cdef double _gauss_series(double a, double b, double c, double z,
                          double rel_tol, long max_terms) except -1.0:
    cdef double term = 1.0
    cdef double total = 1.0
    cdef double ratio
    cdef long n
    for n in range(max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        total += term
        ratio = fabs(z * (a + n + 1.0) * (b + n + 1.0)
                     / ((c + n + 1.0) * (n + 2.0)))
        if ratio < 1.0 and fabs(term) * ratio / (1.0 - ratio) <= rel_tol * fabs(total):
            return total
    raise ConvergenceError("2F1 series did not converge within the term cap")


cdef double _pfaff_terminating(double a, double c, double z, long n_top):
    cdef double w = z / (z - 1.0)
    cdef double cb = -<double>(n_top - 1)
    cdef double term = 1.0
    cdef double total = 1.0
    cdef double comp = 0.0
    cdef double y, t
    cdef long n
    for n in range(n_top - 1):
        term *= (a + n) * (cb + n) / ((c + n) * (1.0 + n)) * w
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total * (1.0 - z) ** (-a)


cdef double _log_f1_beta(double b, double c, double z) except? -1.0:
    cdef double p = c - 1.0
    cdef double q = b - c + 1.0
    cdef double iz = _betainc_reg(p, q, z, 1e-16, 400)
    cdef double lbeta
    if iz <= 0.0:
        return -INFINITY
    lbeta = c_lgamma(p) + c_lgamma(q) - c_lgamma(p + q)
    return log(p) + lbeta + log(iz) - p * log(z) - q * log1p(-z)


def gauss_2f1(double a, double b, double c, double z, double rel_tol=1e-12,
              long max_terms=10000):
    """Gauss hypergeometric 2F1(a, b; c; z) for 0 <= z < 1, c > 0."""
    cdef double cb
    if z == 0.0:
        return 1.0
    cb = c - b
    if cb <= 0.0 and cb == floor(cb):
        return _pfaff_terminating(a, c, z, <long>(-cb) + 1)
    if z <= 0.5:
        return _gauss_series(a, b, c, z, rel_tol, max_terms)
    if a == 1.0 and c > 1.0 and b - c + 1.0 > 0.0:
        return exp(_log_f1_beta(b, c, z))
    return _gauss_series(a, b, c, z, rel_tol, max_terms)


def marcum_q_series(double m, double alpha, double beta, double abs_tol=1e-12,
                    long max_terms=10000):
    """Generalized Marcum Q_m(alpha, beta) by the Poisson-weighted
    incomplete-gamma series; returns (value, terms, est_error)."""
    cdef double x, y, s_hi, bound_log, w, rho_d, skipped, q, e, total, rho
    cdef double ln_scale, ln_abs_tol, ln_tail, renorm, tail, value, ln_y, ln_e
    cdef long l0, l
    if beta == 0.0:
        return 1.0, 0, 0.0
    x = 0.5 * alpha * alpha
    y = 0.5 * beta * beta
    s_hi = m + x + 40.0 * sqrt(x) + 31.0
    if y > 2.0 * s_hi:
        bound_log = (s_hi - 1.0) * log(y) - y - c_lgamma(s_hi) + log(2.0)
        if bound_log < log(abs_tol) - 2.0:
            return 0.0, 0, exp(max(bound_log, _LOG_TINY)) + 1e-300
    if x == 0.0:
        return _gammainc_upper_reg(m, y, 1e-16, 500), 1, 0.0
    l0 = 0
    skipped = 0.0
    if x > 600.0:
        l0 = <long>(x - 40.0 * sqrt(x) - 30.0)
        if l0 < 0:
            l0 = 0
    # Poisson weights run in a frame scaled by the starting weight, so the
    # significant l range stays reachable even when that weight underflows
    ln_scale = -x
    if l0 > 0:
        ln_scale = l0 * log(x) - x - c_lgamma(l0 + 1.0)
        rho_d = l0 / x
        skipped = exp(ln_scale + log(rho_d / (1.0 - rho_d)))
    w = 1.0
    q = _gammainc_upper_reg(m + l0, y, 1e-16, 500)
    # increment of the regularized gamma along l; carried in log form
    # while it sits below the representable range, since it can grow back
    # above it whenever m + l < y
    ln_y = log(y)
    ln_e = (m + l0) * ln_y - y - c_lgamma(m + l0 + 1.0)
    e = exp(ln_e) if ln_e > -700.0 else 0.0
    total = w * q
    ln_abs_tol = log(abs_tol)
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
            ln_e += ln_y - log(m + l)
            if ln_e > -700.0:
                e = exp(ln_e)
        total += w * q
        if w > renorm:
            w /= renorm
            total /= renorm
            ln_scale += log(renorm)
        rho = x / (l + 1.0)
        if rho < 1.0 and w > 0.0:
            ln_tail = ln_scale + log(w) + log(rho / (1.0 - rho))
            if ln_tail < ln_abs_tol:
                value = exp(ln_scale + log(total)) if total > 0.0 else 0.0
                tail = exp(ln_tail)
                return min(value, 1.0), l - l0 + 1, tail + skipped
        elif w == 0.0:
            value = exp(ln_scale + log(total)) if total > 0.0 else 0.0
            return min(value, 1.0), l - l0 + 1, skipped


cdef int _seed_block(double mu_e, long k, double q0, double z, long max_terms,
                     double *seeds) except -1:
    cdef double f = _gauss_series(1.0, mu_e + (k + 31) + q0, mu_e + (k + 31) + 1.0,
                                  z, 1e-15, max_terms)
    cdef double p
    cdef int i
    seeds[31] = f
    for i in range(30, -1, -1):
        p = mu_e + (k + i)
        f = 1.0 + z * (p + q0) / (p + 1.0) * f
        seeds[i] = f
    return 0


def survival_series(double mu_m, double mu_e, double alpha_m, double alpha_e,
                    double beta_m, double beta_e, double abs_tol=1e-12,
                    double rel_tol=1e-10, long max_terms=10000):
    """Double series for Pr(gamma_M > gamma_E); see the pure-Python twin
    for the block seeds, the stop pre-test and the rounding bound.
    Returns (value, k_terms, l_terms_max, est_error)."""
    cdef double total_be = beta_m + beta_e
    cdef double z = beta_e / total_be
    cdef double ln_z = log(beta_e) - log(total_be)
    cdef double ln_1mz = log(beta_m) - log(total_be)
    cdef double one_mz = beta_m / total_be
    cdef double ln_ae = log(alpha_e) if alpha_e > 0.0 else -INFINITY
    cdef double ln_am = log(alpha_m) if alpha_m > 0.0 else 0.0
    cdef double ln_abs_tol = log(abs_tol)
    cdef double renorm = 1e250
    cdef double ln_renorm = log(renorm)

    cdef long l0 = 0
    cdef double rho_d, ln_skip_l
    ln_skip_l = -INFINITY
    if alpha_m > 600.0:
        l0 = <long>(alpha_m - 40.0 * sqrt(alpha_m) - 30.0)
        if l0 < 0:
            l0 = 0
    if l0 > 0:
        rho_d = l0 / alpha_m
        ln_skip_l = (l0 * ln_am - alpha_m - c_lgamma(l0 + 1.0)
                     + log(rho_d / (1.0 - rho_d)))
    cdef double q0 = mu_m + l0
    cdef double lg_q0 = c_lgamma(q0)
    cdef double mag0 = alpha_m + fabs(lg_q0)
    cdef double mag_z = fabs(log(beta_e)) + fabs(log(total_be))
    cdef double mag_1mz = fabs(log(beta_m)) + fabs(log(total_be))
    if l0 > 0:
        mag0 += l0 * ln_am + c_lgamma(l0 + 1.0)

    cdef double total = 0.0
    cdef double est_error = 0.0
    cdef long l_max = 0
    cdef int small_run = 0
    cdef double seeds[32]
    cdef long k = 0
    cdef long l
    cdef double p, f0, ln_f0, inv_f0, log_wk, mag, lg_p, lg_pq, log_ts, log_scale
    cdef double t, acc, gh, e, num, rho, ln_tail, ln_inner, inner, skip
    cdef double ln_inner_tol, tol_frame, rho_k, w_tail
    while True:
        p = mu_e + k
        if z <= 0.5:
            if (k & 31) == 0:
                _seed_block(mu_e, k, q0, z, max_terms, seeds)
            f0 = seeds[k & 31]
            ln_f0 = log(f0)
            inv_f0 = 1.0 / f0
        else:
            ln_f0 = _log_f1_beta(p + q0, p + 1.0, z)
            inv_f0 = exp(-ln_f0) if -ln_f0 > _LOG_TINY else 0.0
        log_wk = -alpha_e - c_lgamma(k + 1.0)
        mag = mag0 - log_wk
        if k > 0:
            log_wk += k * ln_ae
            mag += fabs(k * ln_ae)
        lg_p = c_lgamma(p)
        lg_pq = c_lgamma(p + q0)
        log_ts = (log_wk + p * ln_z + q0 * ln_1mz - alpha_m
                  - lg_p - log(p) - lg_q0 + lg_pq + ln_f0)
        mag += (p * mag_z + q0 * mag_1mz + fabs(lg_p) + fabs(log(p))
                + fabs(lg_pq) + fabs(ln_f0))
        if l0 > 0:
            log_ts += l0 * ln_am - c_lgamma(l0 + 1.0)
        if log_ts == log_ts and -INFINITY < log_ts < INFINITY:  # finite
            log_scale = log_ts
            t = 1.0
        else:
            log_scale = -INFINITY
            t = 0.0
        acc = t
        gh = 1.0
        e = inv_f0
        l = l0
        ln_inner_tol = ln_abs_tol - log(8.0 * (1.0 + <double>k * k))
        if alpha_m > 0.0 and t > 0.0:
            tol_frame = exp(min(max(ln_inner_tol - log_scale, -700.0), 700.0)) * (1.0 + 1e-9)
            while True:
                num = (mu_m + l) * gh + p * e
                t *= alpha_m * num / ((l + 1.0) * (mu_m + l) * gh)
                gh = num / (p + mu_m + l)
                e *= one_mz
                if gh < 1e-200:
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
                    tol_frame = exp(min(max(ln_inner_tol - log_scale, -700.0), 700.0)) * (1.0 + 1e-9)
                rho = alpha_m * (1.0 + p / (mu_m + l)) / (l + 1.0)
                if rho < 1.0 and t * rho <= tol_frame * (1.0 - rho):
                    ln_tail = log_scale + log(t) + log(rho / (1.0 - rho))
                    if ln_tail <= ln_inner_tol:
                        est_error += exp(ln_tail)
                        break
                if l - l0 > max_terms:
                    raise ConvergenceError(
                        f"inner series hit the {max_terms}-term cap before abs_tol")
        ln_inner = log_scale + log(acc) if acc > 0.0 else -INFINITY
        inner = exp(ln_inner) if ln_inner > _LOG_TINY else 0.0
        if ln_skip_l > -INFINITY:
            skip = log_wk + ln_skip_l
            est_error += exp(skip) if skip > _LOG_TINY else 0.0
        if inner > 0.0:
            est_error += 8.0 * 2.220446049250313e-16 * (mag + (l - l0 + 1)) * inner
        if l > l_max:
            l_max = l
        total += inner

        small_run = small_run + 1 if inner < abs_tol / 10.0 else 0
        k += 1
        if k > alpha_e and small_run >= 3:
            rho_k = alpha_e / (k + 1.0)
            w_tail = exp(log_wk) * rho_k / (1.0 - rho_k)
            if w_tail < 0.5 * abs_tol:
                est_error += w_tail
                break
        if k > max_terms:
            raise ConvergenceError(
                f"outer series hit the {max_terms}-term cap before abs_tol")
    return min(total, 1.0), k, l_max, est_error
