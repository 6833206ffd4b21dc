"""The kappa-mu channel model.

Parameter container, SNR PDF/CDF, envelope PDF, random sampling and the
special-case factories (Rayleigh, Rice, Nakagami-m, One-Sided Gaussian).
SNR is linear throughout; gamma_bar is the mean SNR.
"""
import functools
import math
from dataclasses import dataclass

import numpy as np

# the density's Bessel factor comes from its power series at small
# argument, from scipy.special's ive at larger, and from the kernels only
# beyond ive's range; the distribution function runs on scipy.special
from kmusec._backend import kernels as _k

#: the former kappa -> 0 stand-in: every path takes kappa = 0 itself, the
#: gamma law, and no library code reads it; kmubench/workloads.py imports it
EPSILON_KAPPA = 1e-9

#: the scenario tags ``make_special_case`` accepts
SPECIAL_CASES = ("rayleigh", "rice", "nakagami_m", "one_sided_gaussian", "kappa_mu")


@dataclass(frozen=True)
class KappaMuParams:
    """One channel's fading triple: dominant-to-scattered power ratio
    kappa >= 0, cluster parameter mu > 0, mean SNR gamma_bar > 0 (linear)."""

    kappa: float
    mu: float
    gamma_bar: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        if not 0.0 < self.gamma_bar < math.inf:
            raise ValueError(f"gamma_bar must be finite and > 0, got {self.gamma_bar}")


def integer_mu(mu):
    """``mu`` as an int when it lies within 1e-9 of an integer >= 1, else
    None: the cluster construction and the closed form need such a mu."""
    n = round(mu)
    return n if n >= 1 and abs(mu - n) <= 1e-9 else None


def gamma_mixture(params):
    """``(shape, poisson_mean, rate)`` = (mu, kappa mu, (1+kappa) mu / gbar):
    the SNR is Gamma(shape + P, rate) with P ~ Poisson(poisson_mean)."""
    kappa, mu = params.kappa, params.mu
    return mu, kappa * mu, (kappa + 1.0) * (1.0 / params.gamma_bar) * mu


@dataclass(frozen=True)
class ClusterSpec:
    """In-phase/quadrature cluster construction for integer cluster
    counts: mu_int clusters of scattered power sigma^2 each, with
    per-cluster dominant means p[i], q[i]."""

    mu_int: int
    sigma: float
    p: tuple
    q: tuple

    def __post_init__(self):
        if self.mu_int < 1:
            raise ValueError("mu_int must be a positive integer")
        if len(self.p) != self.mu_int or len(self.q) != self.mu_int:
            raise ValueError("p and q must each have mu_int entries")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")

    @property
    def d_squared(self):
        return float(sum(pi * pi for pi in self.p) + sum(qi * qi for qi in self.q))

    @property
    def kappa(self):
        return self.d_squared / (2.0 * self.mu_int * self.sigma ** 2)

    @property
    def gamma_bar(self):
        # total mean power in SNR-normalized units
        return self.d_squared + 2.0 * self.mu_int * self.sigma ** 2

    @classmethod
    def from_params(cls, params):
        """Cluster construction reproducing ``params`` (integer mu only).

        The dominant power is split evenly, p_i = q_i = d / sqrt(2 mu);
        any placement with the same total d^2 yields the same envelope law.
        """
        mu_int = integer_mu(params.mu)
        if mu_int is None:
            raise ValueError("cluster construction requires a positive integer mu")
        sigma2 = params.gamma_bar / (2.0 * mu_int * (1.0 + params.kappa))
        d2 = 2.0 * params.kappa * mu_int * sigma2
        comp = math.sqrt(d2 / (2.0 * mu_int))
        return cls(
            mu_int=mu_int,
            sigma=math.sqrt(sigma2),
            p=(comp,) * mu_int,
            q=(comp,) * mu_int,
        )

    def sample_snr(self, n, seed):
        """Draw n SNR values through the Gaussian cluster construction."""
        rng = np.random.Generator(np.random.Philox(key=seed))
        x = rng.normal(0.0, self.sigma, size=(n, self.mu_int)) + np.asarray(self.p)
        y = rng.normal(0.0, self.sigma, size=(n, self.mu_int)) + np.asarray(self.q)
        return (x * x + y * y).sum(axis=1)


def _log_origin_coefficient(kappa, mu):
    # ln C, C in the small-gamma law f(gamma) ~ C gamma^(mu-1) / gamma_bar^mu:
    # mu^mu (1+kappa)^mu e^(-mu kappa) / Gamma(mu)
    return mu * (math.log(mu) + math.log1p(kappa) - kappa) - math.lgamma(mu)


#: scipy's ive returns NaN from this argument on; the kernel's
#: large-argument expansion takes over there
_IVE_RANGE = 2.0 ** 30

#: the power series of the Bessel factor serves arguments x up to here,
#: where its argument (x/2)^2 is at most 225; scipy's ive serves larger x
_SERIES_RANGE = 30.0

#: terms summed of 0F1(; b; z) = sum_k t_k, t_k = z^k / ((b)_k k!), b > 0,
#: z <= 225. From term K on, t_(k+1) / t_k = z / ((b + k)(k + 1)) stays
#: below q = z / (K (K + 1)), so what is dropped is at most t_K / (1 - q).
#: Each t_k / t_K with k < K grows with b, so t_K is the largest share of
#: the sum as b -> 0 (order -> -1), where at z = 225 and K = 48 it tends to
#: 225^48 / (47! 48!) / sum_(k>=1) 225^k / ((k-1)! k!) = 2.2e-21; with
#: 1 / (1 - q) < 1.11 the dropped tail stays below 2.4e-21 of the sum
_SERIES_TERMS = 48

#: levels per block of the series' power tables, which bounds their size
_SERIES_BLOCK = 1024

#: k and k - 1 for the series' term ratios s / (k (b + k - 1)), k >= 1
_K = np.arange(1.0, _SERIES_TERMS)
_K_MINUS_1 = _K - 1.0

#: the smallest normal double; smaller powers enter the tables as 0
_TINY = np.finfo(float).tiny


def _per_row(fn, *params):
    # fn, a function of scalars built on math, row by row down params, each
    # a (rows, 1) column or a single value that every row repeats: numpy's
    # log and lgamma may round otherwise than math's, and a row must equal
    # the scalar call bit for bit. An fn that returns a tuple gives one
    # (rows, 1) column per entry.
    cols = [np.ravel(p).tolist() for p in params]
    n = max(map(len, cols))
    table = np.array([fn(*row) for row in zip(*(c if len(c) == n else c * n for c in cols))])
    return table.T.reshape(table.shape[1], n, 1)


def _row_constants(kappa, mu, gbar):
    # one channel's constants for the density's form up to x = 30, ln f =
    # c0 + nu ln g - rate g + ln 0F1(; mu; root^2 g): c0 = ln C - mu ln
    # gbar, nu = mu - 1, rate = mu (1 + kappa) / gbar and root = mu
    # sqrt(kappa (1 + kappa) / gbar), so that the Bessel argument is x =
    # 2 root sqrt(g)
    return (_log_origin_coefficient(kappa, mu) - mu * math.log(gbar), mu - 1.0,
            mu * (1.0 + kappa) / gbar, mu * math.sqrt(kappa * (1.0 + kappa) / gbar))


def _bessel_form_constants(kappa, mu, gbar):
    # one channel's constants for the form with the scaled Bessel factor:
    # ln mu + (mu + 1) / 2 ln((1 + kappa) / gbar), ln kappa and sqrt(kappa)
    return (math.log(mu) + 0.5 * (mu + 1.0) * (math.log1p(kappa) - math.log(gbar)),
            math.log(kappa) if kappa > 0.0 else -math.inf, math.sqrt(kappa))


class _Levels:
    """Levels g >= 0 that densities are evaluated at, held flat with the
    shape they came in, with what depends on them alone: ln g, and on
    first use sqrt g and the Bessel series' power tables, one per
    power-of-two shift (see ``_hyp0f1``). The tables are kept when the
    levels fit in one block of _SERIES_BLOCK, so a fit that evaluates all
    its steps at one histogram builds each once, while a larger array
    keeps its bounded blocks.

    A caller that changes variables gives ``log_g``, exact where g itself
    underflows to 0, a power ``delta`` and a log weight ``weight`` (a
    scalar, or one value per level): ``_density`` then gives f(g) g^delta
    e^weight, all in its one log-domain line."""

    def __init__(self, g, log_g=None, delta=0.0, weight=0.0):
        self.shape = g.shape
        self.g = g.ravel()
        if log_g is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                log_g = np.log(self.g)
        self.log_g = np.ravel(log_g)
        self.delta = delta
        self.weight = weight
        self.tables = {} if self.g.size <= _SERIES_BLOCK else None

    @functools.cached_property
    def root_g(self):
        return np.sqrt(self.g)

    def powers(self, shift, start):
        # u^0 .. u^(_SERIES_TERMS - 1) along the last axis, u = g 2^-shift
        # at the block of levels from start on; levels with u > 4, outside
        # the series' range, enter as u = 0, so no inf or NaN from them
        # reaches the table. Subnormal powers enter as 0: times coefficients
        # below 1e12, they lie far below the half ulp of a sum whose first
        # term is 1, and they would slow every contraction
        table = None if self.tables is None else self.tables.get(shift)
        if table is None:
            u = np.ldexp(self.g[start:start + _SERIES_BLOCK], -shift)
            u[~(u <= 4.0)] = 0.0
            table = np.ascontiguousarray(_powers(u).T)
            table[table < _TINY] = 0.0
            if self.tables is not None:
                self.tables[shift] = table
        return table


class _EnvelopeLevels(_Levels):
    """Envelope levels r >= 0 at RMS level r_hat as density levels g =
    rho^2, rho = r / r_hat, with ln g = 2 ln rho, exact also where rho^2
    underflows, and the envelope law's factor 2 rho / r_hat as g^(1/2)
    e^w, w = ln 2 - ln r_hat."""

    def __init__(self, r, r_hat):
        with np.errstate(over="ignore", divide="ignore"):
            rho = r / r_hat
            super().__init__(rho * rho, 2.0 * np.log(rho), 0.5,
                             math.log(2.0) - math.log(r_hat))


def _density(kappa, mu, gbar, levels):
    # kappa-mu SNR density f at _Levels g, times g^delta e^weight of the
    # levels; kappa, mu and gbar scalars (one channel, returned in the
    # levels' shape) or (rows, 1) columns against 1-D levels, one channel
    # per row, each row equal to the scalar call bit for bit whatever else
    # is in the batch. Each element takes its path by its own Bessel
    # argument x = 2 root sqrt(g) (_row_constants). Up to _SERIES_RANGE,
    # I_(mu-1) as its power series (DLMF 10.25.2) folds into the density's
    # other factors: ln f g^delta e^weight = c0 + (nu + delta) ln g - rate
    # g + weight + ln 0F1(; mu; root^2 g), with ln 0F1 inside the exponent,
    # as the density may be normal where the rest alone is subnormal. The
    # line is exact wherever ln g is, also where g underflows to 0, and
    # holds at g = 0 itself with g^0 = 1. kappa = 0, the exact gamma law
    # with shape mu and mean gbar, is that form with 0F1 = 1 exactly. Past
    # _SERIES_RANGE, or where 0F1 overflows (mu below about 1e-290), the
    # form with the scaled Bessel factor of _bessel_form.
    scalar = all(np.ndim(v) == 0 for v in (kappa, mu, gbar))
    if scalar:
        kappa, mu, gbar = (np.full((1, 1), v, dtype=float) for v in (kappa, mu, gbar))
    c0, nu, rate, root = _per_row(_row_constants, kappa, mu, gbar)
    g = levels.g
    power = nu + levels.delta
    # beyond the range of a double, terms overflow to the density's limits
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lf = power * levels.log_g
        lf[(power == 0.0)[:, 0]] = 0.0  # g^0 = 1, also at g = 0
        lf -= rate * g
        lf += c0
        lf += levels.weight
        # each element by its own x / 2 = root sqrt(g)
        far = root * levels.root_g > 0.5 * _SERIES_RANGE
        log_f = _hyp0f1(mu, root * root, levels)
        np.log(log_f, out=log_f)
        lf += log_f
        far |= ~np.isfinite(log_f)
        del log_f
        if far.any():
            lf[far] = _bessel_form(kappa, mu, gbar, root, levels, far)
        out = np.where(lf > -745.0, np.exp(lf), 0.0)
    return out.reshape(levels.shape) if scalar else out


def _bessel_form(kappa, mu, gbar, root, levels, far):
    # ln f g^delta e^weight at the elements of levels where far is set,
    # with the density's Bessel form with the scaled factor e^-x
    # I_(mu-1)(x), x = 2 root sqrt(g), of _log_bessel_ie; kappa, mu, gbar
    # and root (rows, 1) columns or single values. Element by element in
    # place, which bounds the peak on large arrays, with single values kept
    # scalar.
    head, log_kappa, root_kappa = _per_row(_bessel_form_constants, kappa, mu, gbar)
    r, c = np.nonzero(far)
    k, m, gb, hd, lk, rk, rt = (np.ravel(v)[r] if np.size(v) > 1 else np.ravel(v)[0]
                                for v in (kappa, mu, gbar, head, log_kappa, root_kappa, root))
    x = 2.0 * (rt * levels.root_g[c])
    # -mu kappa - mu y + 2 mu sqrt(kappa y), y = (1 + kappa) g / gbar, the
    # exponent left with the scaled Bessel factor, is -mu (sqrt(kappa) -
    # sqrt(y))^2, taken as -mu d^2 / (sqrt(kappa) + sqrt(y))^2 with d =
    # kappa - y formed without cancellation (gbar - g is exact near the
    # mean)
    gf = levels.g[c]
    d = k * (gb - gf)
    d -= gf
    d /= gb
    gf *= 1.0 + k
    gf /= gb
    np.sqrt(gf, out=gf)
    gf += rk
    d /= gf
    del gf
    d *= d
    d *= m
    out = levels.log_g[c]
    out -= lk
    out *= 0.5 * (m - 1.0)
    out += hd
    out -= d
    del d
    out += _log_bessel_ie(m - 1.0, x)
    out += levels.delta * levels.log_g[c]
    out += np.broadcast_to(levels.weight, levels.g.shape)[c]
    return out


def _log_bessel_ie(order, x):
    # ln(e^-x I_order(x)) elementwise, for the density's arguments past the
    # series' range: scipy's ive up to _IVE_RANGE, the kernel's
    # large-argument expansion beyond
    from scipy.special import ive

    ie = ive(order, x)
    beyond = x >= _IVE_RANGE
    if beyond.any():
        order = np.broadcast_to(order, x.shape)[beyond]
        ie[beyond] = [_k.bessel_ie(v, a) for v, a in zip(order.tolist(), x[beyond].tolist())]
    return np.log(ie, out=ie)


def _hyp0f1(b, s, levels):
    # 0F1(; b; s g) summed to _SERIES_TERMS terms, for (rows, 1) columns
    # b > 0 and s >= 0 and _Levels g, one row of the flat levels per row;
    # truncated within 2.4e-21 relative where s g <= 225, the range it
    # serves. Row r's levels are scaled by 2^-e, an exact power of two
    # from s_r alone with s_r 2^e in [112.5, 225): the row's terms are
    # (s_r 2^e)^k / ((b)_k k!) times u^k, u = g 2^-e, rows with the same e
    # share one table of u^k from levels.powers, and where s_r g <= 225,
    # u < 2. Each row is one einsum contraction over k of its terms,
    # whatever the other rows, and levels go in blocks of _SERIES_BLOCK.
    e = -np.frexp(s / (0.5 * _SERIES_RANGE) ** 2)[1]
    coef = np.empty((s.shape[0], _SERIES_TERMS))
    coef[:, 0] = 1.0
    coef[:, 1:] = np.ldexp(s, e) / (_K * (b + _K_MINUS_1))
    np.cumprod(coef, axis=1, out=coef)
    size = levels.g.size
    shifts = set(e[:, 0].tolist())
    if len(shifts) == 1 and size <= _SERIES_BLOCK:
        # every row takes one table: the loop's one contraction, made
        # straight into the output
        return np.einsum("rk,jk->rj", coef, levels.powers(shifts.pop(), 0))
    out = np.empty((s.shape[0], size))
    for shift in shifts:
        at = e[:, 0] == shift
        terms = coef[at]
        for start in range(0, size, _SERIES_BLOCK):
            out[at, start:start + _SERIES_BLOCK] = np.einsum(
                "rk,jk->rj", terms, levels.powers(shift, start))
    return out


def _powers(u):
    # u^0 .. u^(_SERIES_TERMS - 1) down a new first axis, by doubling:
    # u^(n + i) = u^i (u^(n/2))^2 for n a power of two, at most 2 log2(k)
    # roundings in u^k
    table = np.empty((_SERIES_TERMS,) + u.shape)
    table[0] = 1.0
    table[1] = u
    n = 2
    while n < _SERIES_TERMS:
        m = min(n, _SERIES_TERMS - n)
        np.multiply(table[:m], table[n // 2] * table[n // 2], out=table[n:n + m])
        n += m
    return table


def _as_input(requires, x):
    # float array of a nonnegative argument, NaN refused; the error reads
    # "<requires> >= 0, got <the first bad value>"
    arr = np.asarray(x, dtype=float)
    bad = ~(arr >= 0.0)
    if bad.any():
        raise ValueError(f"{requires} >= 0, got {arr[bad].flat[0]}")
    return arr


def _as_output(arr):
    # a Python float for scalar input, the array otherwise
    return float(arr) if arr.ndim == 0 else arr


def snr_pdf(params, gamma):
    """SNR density of a kappa-mu channel at ``gamma`` (scalar or array)."""
    g = _as_input("snr_pdf requires gamma", gamma)
    if params.mu < 1.0 and (g == 0.0).any():
        raise ValueError("the density diverges at gamma = 0 for mu < 1; "
                         "evaluate at gamma > 0")
    return _as_output(_density(params.kappa, params.mu, params.gamma_bar, _Levels(g)))


def snr_cdf(params, gamma):
    """SNR distribution function at ``gamma`` (scalar or array),
    1 - Q_mu(sqrt(2 kappa mu), sqrt(2 (1+kappa) mu gamma / gamma_bar)):
    the noncentral chi-square law with 2 mu degrees of freedom and
    noncentrality 2 kappa mu at 2 (1+kappa) mu gamma / gamma_bar, and the
    gamma law at kappa = 0."""
    g = _as_input("snr_cdf requires gamma", gamma)
    return _as_output(_distribution(params.kappa, params.mu, params.gamma_bar, g))


def _distribution(kappa, mu, gbar, g):
    # snr_cdf at g >= 0 elementwise, each of kappa, mu and gbar a scalar or
    # an array broadcast against g (one channel per row, say); each value
    # depends on its own element's arguments alone, kappa = 0 (the gamma
    # law, zero noncentrality) included
    from scipy.special import chndtr

    with np.errstate(over="ignore"):  # an infinite argument gives 1
        out = chndtr(2.0 * (1.0 + kappa) * mu * g / gbar, 2.0 * mu, 2.0 * kappa * mu)
    return np.clip(out, 0.0, 1.0)


def sample_snr(params, n, seed):
    """Draw ``n`` i.i.d. SNR values; deterministic for a fixed seed.

    Uses the Poisson/gamma mixture equivalent of the cluster model:
    P ~ Poisson(kappa mu), G ~ Gamma(mu + P, scale 2), and
    gamma = gamma_bar G / (2 mu (1 + kappa)), whose distribution function
    is exactly the Marcum-Q complement for any real mu > 0.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return _sample_snr_with(rng, params, n)


def _sample_snr_with(rng, params, n):
    kappa, mu, gbar = params.kappa, params.mu, params.gamma_bar
    pois = rng.poisson(kappa * mu, size=n)
    g = rng.gamma(shape=mu + pois, scale=2.0)
    return gbar * g / (2.0 * mu * (1.0 + kappa))


def envelope_pdf(params, r, r_hat=1.0):
    """Envelope density at level ``r`` (scalar or array) for RMS level
    ``r_hat``: the SNR density with unit mean at rho^2, rho = r / r_hat,
    times 2 rho / r_hat."""
    if not r_hat > 0.0:
        raise ValueError("r_hat must be positive")
    rv = _as_input("envelope_pdf requires r", r)
    if params.mu < 0.5 and (rv == 0.0).any():
        raise ValueError("the envelope density diverges at r = 0 for mu < 0.5")
    return _as_output(_density(params.kappa, params.mu, 1.0, _EnvelopeLevels(rv, r_hat)))


def make_special_case(name, *, K=None, m=None, kappa=None, mu=None, gamma_bar=1.0):
    """Parameter triple for a named special case of the model.

    rice(K) -> (kappa=K, mu=1); nakagami_m(m) -> (kappa=0, mu=m);
    rayleigh -> (kappa=0, mu=1); one_sided_gaussian -> (kappa=0,
    mu=0.5); kappa_mu passes (kappa, mu) through. kappa = 0 is exact on
    every path: the gamma law.
    """
    if name == "rayleigh":
        return KappaMuParams(0.0, 1.0, gamma_bar)
    if name == "rice":
        if K is None or K <= 0.0:
            raise ValueError("rice requires a positive K factor")
        return KappaMuParams(float(K), 1.0, gamma_bar)
    if name == "nakagami_m":
        if m is None or m <= 0.0:
            raise ValueError("nakagami_m requires a positive m")
        return KappaMuParams(0.0, float(m), gamma_bar)
    if name == "one_sided_gaussian":
        return KappaMuParams(0.0, 0.5, gamma_bar)
    if name == "kappa_mu":
        if kappa is None or mu is None:
            raise ValueError("kappa_mu requires kappa and mu")
        if kappa <= 0.0 or mu <= 0.0:
            raise ValueError("kappa_mu requires positive kappa and mu")
        return KappaMuParams(float(kappa), float(mu), gamma_bar)
    raise ValueError(f"unknown scenario tag {name!r}; expected one of {SPECIAL_CASES}")
