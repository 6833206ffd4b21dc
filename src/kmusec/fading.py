"""The kappa-mu channel model.

Parameter container, SNR PDF/CDF, envelope PDF, random sampling and the
special-case factories (Rayleigh, Rice, Nakagami-m, One-Sided Gaussian).
SNR is linear throughout; gamma_bar is the mean SNR.
"""
import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

# the model's own formulas run on scipy.special, and on the kernels only
# beyond the argument range of scipy's scaled Bessel function
from kmusec._backend import kernels as _k

#: stand-in for kappa -> 0 limits in series paths; the exact kappa = 0
#: PDF/CDF take the gamma-distribution fast path instead
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

    def with_kappa_floor(self):
        """Copy with kappa raised to the documented epsilon stand-in,
        for series paths that require kappa > 0."""
        if self.kappa >= EPSILON_KAPPA:
            return self
        return dataclasses.replace(self, kappa=EPSILON_KAPPA)


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


def _per_row(fn, *params):
    # fn, a function of scalars built on math, at scalar params, or row by
    # row down columns of them: numpy's log and lgamma may round otherwise
    # than math's, and a row must equal the scalar call bit for bit
    if all(np.ndim(p) == 0 for p in params):
        return fn(*params)
    cols = np.broadcast_arrays(*params)
    rows = zip(*(c.ravel().tolist() for c in cols))
    return np.array([fn(*row) for row in rows]).reshape(cols[0].shape)


def _density(kappa, mu, gbar, g):
    # kappa-mu SNR density at an array g > 0, log domain with the scaled
    # Bessel function; kappa = 0 is the exact limit, a gamma law with
    # shape mu and mean gbar. kappa, mu and gbar are scalars or (rows, 1)
    # columns broadcast against g, one channel per row; each row equals
    # the scalar call, whatever else is in the batch.
    from scipy.special import ive

    zero = np.asarray(kappa) == 0.0
    if zero.any() and not zero.all():
        kappa, mu, gbar = np.broadcast_arrays(kappa, mu, gbar)
        out = np.empty(np.broadcast_shapes(kappa.shape, g.shape))
        for rows in (zero[:, 0], ~zero[:, 0]):
            out[rows] = _density(kappa[rows], mu[rows], gbar[rows], g)
        return out
    log = functools.partial(_per_row, math.log)
    # beyond the range of a double, terms overflow to the density's limits
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if zero.all():
            return np.exp(mu * log(mu) + (mu - 1.0) * np.log(g) - mu * g / gbar
                          - _per_row(math.lgamma, mu) - mu * log(gbar))
        x = (1.0 + kappa) * g / gbar
        arg = 2.0 * mu * np.sqrt(kappa * x)
        ie = np.asarray(ive(mu - 1.0, arg))
        beyond = arg >= _IVE_RANGE
        if beyond.any():
            order = np.broadcast_to(mu - 1.0, arg.shape)[beyond]
            ie[beyond] = [_k.bessel_ie(v, a)
                          for v, a in zip(order.tolist(), arg[beyond].tolist())]
        # -mu kappa - mu x + arg = -mu (sqrt(kappa) - sqrt(x))^2, taken as
        # -mu d^2 / (sqrt(kappa) + sqrt(x))^2 with d = kappa - x formed
        # without cancellation (gbar - g is exact near the mean)
        d = (kappa * (gbar - g) - g) / gbar
        lf = (log(mu)
              + 0.5 * (mu + 1.0) * (_per_row(math.log1p, kappa) - log(gbar))
              + 0.5 * (mu - 1.0) * (np.log(g) - log(kappa))
              - mu * (d / (_per_row(math.sqrt, kappa) + np.sqrt(x))) ** 2
              + np.log(ie))
    return np.where(lf > -745.0, np.exp(lf), 0.0)


def _as_input(name, x):
    # float array of a nonnegative argument, the scalar error message kept
    arr = np.asarray(x, dtype=float)
    negative = arr < 0.0
    if negative.any():
        raise ValueError(f"{name} requires gamma >= 0, got {arr[negative].flat[0]}")
    return arr


def _as_output(arr):
    # a Python float for scalar input, the array otherwise
    return float(arr) if arr.ndim == 0 else arr


def snr_pdf(params, gamma):
    """SNR density of a kappa-mu channel at ``gamma`` (scalar or array)."""
    g = _as_input("snr_pdf", gamma)
    kappa, mu, gbar = params.kappa, params.mu, params.gamma_bar
    origin = g == 0.0
    if not origin.any():
        return _as_output(_density(kappa, mu, gbar, g))
    if mu < 1.0:
        raise ValueError("the density diverges at gamma = 0 for mu < 1; "
                         "evaluate at gamma > 0")
    at_origin = 0.0 if mu > 1.0 else math.exp(_log_origin_coefficient(kappa, mu)) / gbar
    dens = _density(kappa, mu, gbar, np.where(origin, 1.0, g))
    return _as_output(np.where(origin, at_origin, dens))


def snr_cdf(params, gamma):
    """SNR distribution function at ``gamma`` (scalar or array),
    1 - Q_mu(sqrt(2 kappa mu), sqrt(2 (1+kappa) mu gamma / gamma_bar)):
    the noncentral chi-square law with 2 mu degrees of freedom and
    noncentrality 2 kappa mu at 2 (1+kappa) mu gamma / gamma_bar, and the
    gamma law at kappa = 0."""
    g = _as_input("snr_cdf", gamma)
    return _as_output(_distribution(params.kappa, params.mu, params.gamma_bar, g))


def _distribution(kappa, mu, gbar, g):
    # snr_cdf at g >= 0 elementwise, each of kappa, mu and gbar a scalar or
    # an array broadcast against g (one channel per row, say); kappa = 0
    # takes the gamma law. Each element's value depends on its own
    # arguments alone, whatever the shape of the batch.
    from scipy.special import chndtr, gammainc

    def gamma_law(mu, gbar, g):
        return gammainc(mu, mu * g / gbar)

    def noncentral(kappa, mu, gbar, g):
        return chndtr(2.0 * (1.0 + kappa) * mu * g / gbar, 2.0 * mu, 2.0 * kappa * mu)

    zero = np.asarray(kappa) == 0.0
    with np.errstate(over="ignore"):  # an infinite argument gives 1
        if not zero.any():
            out = noncentral(kappa, mu, gbar, g)
        elif zero.all():
            out = gamma_law(mu, gbar, g)
        else:
            kappa, mu, gbar, g, zero = np.broadcast_arrays(kappa, mu, gbar, g, zero)
            rest = ~zero
            out = np.empty(g.shape)
            out[zero] = gamma_law(mu[zero], gbar[zero], g[zero])
            out[rest] = noncentral(kappa[rest], mu[rest], gbar[rest], g[rest])
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
    rv = np.asarray(r, dtype=float)
    if (rv < 0.0).any():
        raise ValueError("envelope level must be >= 0")
    return _as_output(_envelope(params.kappa, params.mu, rv, r_hat))


def _envelope(kappa, mu, r, r_hat):
    # envelope_pdf at an array r >= 0, kappa and mu scalars or (rows, 1)
    # columns broadcast against r (one channel per row, as _density takes
    # them); each row equals the scalar call
    rho = r / r_hat
    g = rho * rho
    under = g == 0.0
    if not under.any():
        return 2.0 * rho / r_hat * _density(kappa, mu, 1.0, g)
    # r = 0, or rho^2 below the smallest double: the leading term
    # 2 C rho^(2 mu - 1) / r_hat of the small-r law is then exact; taken in
    # the log domain, where C alone may overflow
    if (np.asarray(mu) < 0.5).any() and (rho[under] == 0.0).any():
        raise ValueError("the envelope density diverges at r = 0 for mu < 0.5")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # rho^0 = 1 at mu = 0.5, also at rho = 0
        power = np.where(mu == 0.5, 0.0, (2.0 * mu - 1.0) * np.log(rho))
        small = 2.0 * np.exp(_per_row(_log_origin_coefficient, kappa, mu) + power) / r_hat
    dens = 2.0 * rho / r_hat * _density(kappa, mu, 1.0, np.where(under, 1.0, g))
    return np.where(under, small, dens)


def make_special_case(name, *, K=None, m=None, kappa=None, mu=None, gamma_bar=1.0):
    """Parameter triple for a named special case of the model.

    rice(K) -> (kappa=K, mu=1); nakagami_m(m) -> (kappa=eps, mu=m);
    rayleigh -> (kappa=eps, mu=1); one_sided_gaussian -> (kappa=eps,
    mu=0.5); kappa_mu passes (kappa, mu) through. eps is the documented
    kappa -> 0 stand-in.
    """
    if name == "rayleigh":
        return KappaMuParams(EPSILON_KAPPA, 1.0, gamma_bar)
    if name == "rice":
        if K is None or K <= 0.0:
            raise ValueError("rice requires a positive K factor")
        return KappaMuParams(float(K), 1.0, gamma_bar)
    if name == "nakagami_m":
        if m is None or m <= 0.0:
            raise ValueError("nakagami_m requires a positive m")
        return KappaMuParams(EPSILON_KAPPA, float(m), gamma_bar)
    if name == "one_sided_gaussian":
        return KappaMuParams(EPSILON_KAPPA, 0.5, gamma_bar)
    if name == "kappa_mu":
        if kappa is None or mu is None:
            raise ValueError("kappa_mu requires kappa and mu")
        if kappa <= 0.0 or mu <= 0.0:
            raise ValueError("kappa_mu requires positive kappa and mu")
        return KappaMuParams(float(kappa), float(mu), gamma_bar)
    raise ValueError(f"unknown scenario tag {name!r}; expected one of {SPECIAL_CASES}")
