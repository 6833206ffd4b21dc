"""30-digit mpmath references for the kappa-mu model and exact SOP.

Textbook formulas evaluated independently of the library: the scaled
Bessel function, the density in its Bessel form, the distribution
function as the Poisson mixture of regularized gamma laws, and the
secure outage probability as a tanh-sinh integral of their product.
"""
import mpmath as mp

DPS = 30


def snr_pdf(kappa, mu, gamma_bar, g):
    """kappa-mu SNR density (kappa = 0: gamma law)."""
    with mp.workdps(DPS):
        k, mu, gb, g = (mp.mpf(v) for v in (kappa, mu, gamma_bar, g))
        if k == 0:
            return mu ** mu * g ** (mu - 1) * mp.exp(-mu * g / gb) / (
                mp.gamma(mu) * gb ** mu)
        return (mu * (1 + k) ** ((mu + 1) / 2) * g ** ((mu - 1) / 2)
                / (k ** ((mu - 1) / 2) * mp.exp(mu * k) * gb ** ((mu + 1) / 2))
                * mp.exp(-mu * (1 + k) * g / gb)
                * mp.besseli(mu - 1, 2 * mu * mp.sqrt(k * (1 + k) * g / gb)))


def envelope_pdf(kappa, mu, r_hat, r):
    """kappa-mu envelope density (kappa = 0: Nakagami-m)."""
    with mp.workdps(DPS):
        k, mu, rh = (mp.mpf(v) for v in (kappa, mu, r_hat))
        rho = mp.mpf(r) / rh
        if k == 0:
            return 2 * mu ** mu * rho ** (2 * mu - 1) * mp.exp(-mu * rho ** 2) / (
                mp.gamma(mu) * rh)
        return (2 * mu * (1 + k) ** ((mu + 1) / 2) * rho ** mu
                / (k ** ((mu - 1) / 2) * mp.exp(mu * k) * rh)
                * mp.exp(-mu * (1 + k) * rho ** 2)
                * mp.besseli(mu - 1, 2 * mu * mp.sqrt(k * (1 + k)) * rho))


def log_bessel_ie(nu, x):
    """ln(e^-x I_nu(x)), the log of the scaled modified Bessel function of
    the first kind, so that values below the double range stay comparable."""
    with mp.workdps(DPS):
        x = mp.mpf(x)
        return mp.log(mp.besseli(mp.mpf(nu), x)) - x


def snr_cdf(kappa, mu, gamma_bar, g):
    """kappa-mu SNR distribution function: sum over n of the Poisson
    weights of mean kappa mu times P(mu + n, (1+kappa) mu g / gamma_bar).
    The weights are cut where they fall below 1e-35 of their peak; the
    regularized gammas come from one evaluation at the top order and the
    stable downward recurrence P(a, y) = P(a+1, y) + y^a e^-y / Gamma(a+1)."""
    with mp.workdps(DPS):
        k, mu, gb, g = (mp.mpf(v) for v in (kappa, mu, gamma_bar, g))
        y = (1 + k) * mu * g / gb
        lam = k * mu
        top = int(lam + 25 * mp.sqrt(lam) + 60) if lam > 0 else 0
        p = mp.gammainc(mu + top, 0, y, regularized=True)
        if lam == 0 or y == 0:
            return p
        term = mp.exp(-y + (mu + top - 1) * mp.log(y) - mp.loggamma(mu + top))
        weight = mp.exp(-lam + top * mp.log(lam) - mp.loggamma(top + 1))
        total = weight * p
        for n in range(top, 0, -1):
            p += term
            term *= (mu + n - 1) / y
            weight *= n / lam
            total += weight * p
        return total


def sop_exact(main, eve, rate):
    """Pr(gamma_M <= e^R (1 + gamma_E) - 1) for (kappa, mu, gamma_bar)
    triples ``main`` and ``eve``: the integral of the eavesdropper density
    times the main distribution function. Up to gamma_E = 50 gamma_bar_E
    it is taken over v = (gamma_E / gamma_bar_E)^mu_E, in which the
    density's law near the origin, C gamma_E^(mu_E - 1) /
    gamma_bar_E^mu_E, becomes the bounded C / mu_E, which tanh-sinh
    resolves also for mu_E < 1, where it diverges in gamma_E; the tail
    beyond is taken over gamma_E itself."""
    with mp.workdps(DPS):
        ers = mp.exp(mp.mpf(rate))
        mu, gb = mp.mpf(eve[1]), mp.mpf(eve[2])

        def in_x(x):
            return snr_pdf(*eve, x) * snr_cdf(*main, ers * (1 + x) - 1)

        def in_v(v):
            x = gb * v ** (1 / mu)
            return in_x(x) * x / (mu * v)

        cuts = (0.25, 1, 3, 8, 20, 50)
        return (mp.quad(in_v, [0] + [mp.mpf(c) ** mu for c in cuts])
                + mp.quad(in_x, [gb * cuts[-1], mp.inf]))


def gamma_escape(mu_m, mu_e, gamma_bar_m, gamma_bar_e, rate):
    """Pr(gamma_M > e^R gamma_E) for gamma laws (kappa = 0 on both
    channels): with rates b = mu / gamma_bar, gamma_E b_E / (gamma_M b_M +
    gamma_E b_E) is Beta(mu_E, mu_M), so the probability is I_w(mu_E, mu_M)
    at w = b_E / (b_M e^R + b_E)."""
    with mp.workdps(DPS):
        b_m = mp.mpf(mu_m) / mp.mpf(gamma_bar_m)
        b_e = mp.mpf(mu_e) / mp.mpf(gamma_bar_e)
        w = b_e / (b_m * mp.exp(mp.mpf(rate)) + b_e)
        return mp.betainc(mu_e, mu_m, 0, w, regularized=True)


def _poisson(lam):
    """``(n0, weights)``: the Poisson(lam) weights e^-lam lam^n / n! for
    n = n0, n0 + 1, ..., cut on each side of the mode where they fall
    below 1e-40; past the cut the weights shrink at least geometrically,
    so the mass left out is of that order."""
    if lam == 0:
        return 0, [mp.mpf(1)]
    mode = int(lam)
    peak = mp.exp(-lam + mode * mp.log(lam) - mp.loggamma(mode + 1))
    below, w, n = [], peak, mode
    while n > 0:
        w = w * n / lam
        n -= 1
        if w < 1e-40:
            break
        below.append(w)
    above, w, n = [peak], peak, mode
    while True:
        n += 1
        w = w * lam / n
        if w < 1e-40:
            break
        above.append(w)
    return mode - len(below), below[::-1] + above


def survival(mu_m, mu_e, alpha_m, alpha_e, beta_m, beta_e):
    """Pr(X_M > X_E) for independent X | l ~ Gamma(mu + l, rate beta),
    l ~ Poisson(alpha), one set per channel: the sum over k and l of the
    Poisson weights of means alpha_E and alpha_M times I_z(mu_E + k,
    mu_M + l), z = beta_E / (beta_M + beta_E). One ``betainc`` at the top
    k and the lowest l seeds all of I: downward in its first argument by
    I_z(a, b) = I_z(a+1, b) + z^a (1-z)^b / (a B(a, b)) (DLMF 8.17.20),
    then upward in its second by I_z(a, b+1) = I_z(a, b) + z^a (1-z)^b /
    (b B(a, b)) (DLMF 8.17.21); every step adds a positive term, and
    each increment follows from its neighbour by a rational factor.
    Identical channels give exactly 1/2 by symmetry, without a sum."""
    if (mu_m, alpha_m, beta_m) == (mu_e, alpha_e, beta_e):
        return mp.mpf(1) / 2
    with mp.workdps(DPS):
        mu_m, mu_e, beta_m, beta_e = (mp.mpf(v) for v in (mu_m, mu_e, beta_m, beta_e))
        z = beta_e / (beta_m + beta_e)
        k0, wk = _poisson(mp.mpf(alpha_e))
        l0, wl = _poisson(mp.mpf(alpha_m))
        b0 = mu_m + l0
        a = mu_e + k0 + len(wk) - 1
        ib = mp.betainc(a, b0, 0, z, regularized=True)
        # e = z^a (1-z)^b0 / (a B(a, b0)), the step down from a
        e = mp.exp(a * mp.log(z) + b0 * mp.log1p(-z) + mp.loggamma(a + b0)
                   - mp.loggamma(a + 1) - mp.loggamma(b0))
        total = 0
        for j in range(len(wk) - 1, -1, -1):
            if j < len(wk) - 1:
                e *= (a + 1) / (z * (a + b0))
                ib += e
            # the inner sum over l; d = z^a (1-z)^b / (b B(a, b))
            i, d, inner = ib, e * a / b0, 0
            for n, w in enumerate(wl):
                b = b0 + n
                inner += w * i
                i += d
                d *= (1 - z) * (a + b) / (b + 1)
            total += wk[j] * inner
            a -= 1
        return total


def marcum_q(m, alpha, beta):
    """Generalized Marcum Q_m(alpha, beta): the sum over l of the Poisson
    weights of mean alpha^2 / 2 times Q(m + l, beta^2 / 2), the regularized
    upper gamma. One ``gammainc`` at the lowest l seeds all of Q, upward by
    Q(a+1, y) = Q(a, y) + y^a e^-y / Gamma(a+1) (DLMF 8.8.6), each step
    adding a positive term."""
    if beta == 0:
        return mp.mpf(1)
    with mp.workdps(DPS):
        y = mp.mpf(beta) ** 2 / 2
        l0, weights = _poisson(mp.mpf(alpha) ** 2 / 2)
        a = mp.mpf(m) + l0
        q = mp.gammainc(a, y, mp.inf, regularized=True)
        e = mp.exp(a * mp.log(y) - y - mp.loggamma(a + 1))
        total = 0
        for w in weights:
            total += w * q
            q += e
            e *= y / (a + 1)
            a += 1
        return total
