"""Empirical oracle: simulate wiretap SNR pairs and estimate the
secrecy metrics with binomial confidence intervals.

Streams come from the counter-based Philox generator keyed by the
caller's seed, so every estimate is bit-reproducible for a fixed
(pair, n, seed) within one build. The draw order per chunk is fixed:
main Poisson, main gamma, eavesdropper Poisson, eavesdropper gamma.
"""
import math
from dataclasses import dataclass

import numpy as np

from kmusec.fading import _sample_snr_with
from kmusec.secrecy import _RATE_SATURATION

_CHUNK = 1_000_000


@dataclass(frozen=True)
class McEstimate:
    """A probability estimate with its binomial standard error."""

    estimate: float
    std_error: float
    n: int
    seed: int


def _pair_chunks(pair, n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    left = n
    while left > 0:
        m = min(left, _CHUNK)
        gm = _sample_snr_with(rng, pair.main, m)
        ge = _sample_snr_with(rng, pair.eve, m)
        yield gm, ge
        left -= m


def _estimate(count, n, seed):
    p = count / n
    return McEstimate(estimate=p, std_error=math.sqrt(p * (1.0 - p) / n),
                      n=n, seed=seed)


def _count(pair, n, seed, events):
    """One pass over the draw stream: ``events(gm, ge)`` returns boolean
    arrays, and each one's count over all draws becomes an estimate."""
    if n < 1000:
        raise ValueError("n must be at least 1000")
    totals = 0
    for gm, ge in _pair_chunks(pair, n, seed):
        totals = totals + np.array([np.count_nonzero(e) for e in events(gm, ge)])
    return tuple(_estimate(int(c), n, seed) for c in totals)


def _outage_events(pair):
    """Events function for (exact, lower-bound) outage at the pair's rate.
    Beyond the rate at which the analytic paths saturate, every draw is in
    outage, as there."""
    if pair.rate > _RATE_SATURATION:
        def saturated(gm, ge):
            every = np.ones(gm.shape, dtype=bool)
            return every, every
        return saturated
    ers = math.exp(pair.rate)

    def events(gm, ge):
        lower = gm <= ers * ge
        exact = gm <= ers * (1.0 + ge) - 1.0
        if bool(np.any(lower & ~exact)):
            raise AssertionError("lower-bound event escaped the exact event")
        return exact, lower
    return events


def mc_spsc(pair, n, seed=0):
    """Fraction of draws with gamma_M > gamma_E."""
    (spsc,) = _count(pair, n, seed, lambda gm, ge: (gm > ge,))
    return spsc


def mc_sop_both(pair, n, seed=0):
    """Exact and lower-bound outage estimates on one shared draw stream.

    Sharing the stream makes the event inclusion (the lower-bound event
    implies the exact one for R_S >= 0) hold realization by realization,
    so the ordering of the two estimates is exact, not statistical.
    """
    return _count(pair, n, seed, _outage_events(pair))


def mc_all(pair, n, seed=0):
    """SPSC, exact and lower-bound outage estimates from one pass over one
    draw stream; each equals what ``mc_spsc`` and ``mc_sop_both`` give for
    the same seed."""
    outage = _outage_events(pair)
    return _count(pair, n, seed, lambda gm, ge: (gm > ge,) + outage(gm, ge))
