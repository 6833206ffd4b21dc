"""Empirical oracle: simulate wiretap SNR pairs and estimate the
secrecy metrics with binomial confidence intervals.

The n draws are split into chunks of ``_CHUNK`` pairs; the last one may
be shorter. Chunk i draws from the counter-based Philox generator keyed
by the caller's seed and jumped i times (i * 2^128 draws), so chunk 0 is
the seed's own stream and any n <= ``_CHUNK`` draws exactly that stream.
Within a chunk the draw order is fixed: main Poisson, main gamma,
eavesdropper Poisson, eavesdropper gamma. Chunks run in parallel on the
usable cores and each returns integer event counts, which are summed, so
every estimate is bit-reproducible for a fixed (pair, n, seed) within
one build, whatever the number of workers or the order chunks finish in.

Each worker holds one chunk's draws and event arrays at a time, up to
about 8 MiB, so peak memory grows by about 8 MiB per usable core (one per
chunk when there are fewer chunks than cores).
"""
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from kmusec.fading import _sample_snr_with

#: pairs per chunk; it fixes which stream each draw comes from, so it is
#: part of every estimate's definition, not a tuning knob
_CHUNK = 1 << 18


@dataclass(frozen=True)
class McEstimate:
    """A probability estimate with its binomial standard error."""

    estimate: float
    std_error: float
    n: int
    seed: int


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_counts(pair, seed, events, i, m):
    """Event counts over the m pairs of chunk i."""
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
    gm = _sample_snr_with(rng, pair.main, m)
    ge = _sample_snr_with(rng, pair.eve, m)
    return [int(np.count_nonzero(e)) for e in events(gm, ge)]


def _estimate(count, n, seed):
    p = count / n
    return McEstimate(estimate=p, std_error=math.sqrt(p * (1.0 - p) / n),
                      n=n, seed=seed)


def check_seeds(seed, count=1):
    """Refuse seeds ``seed .. seed + count - 1`` (one per point of a
    sweep or validation run) that leave the Philox key's range,
    0..2**128 - 1; the message names the seed and the count given."""
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must be in 0..2**128 - 1, got {seed}")
    if seed + count > 1 << 128:
        raise ValueError(f"seed {seed} with {count} points needs seeds up to "
                         f"seed + {count - 1}, past 2**128 - 1; the seed can be "
                         f"at most 2**128 - {count}")


def _count(pair, n, seed, events):
    """Draw n pairs in chunks: ``events(gm, ge)`` returns boolean arrays,
    and each one's count over all draws becomes an estimate."""
    if n < 1000:
        raise ValueError("n must be at least 1000")
    check_seeds(seed)
    sizes = [min(_CHUNK, n - start) for start in range(0, n, _CHUNK)]
    chunk = functools.partial(_chunk_counts, pair, seed, events)
    # numpy's Poisson and gamma samplers release the GIL; imported here,
    # not at module level, to keep the import off every caller's start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(_usable_cores(), len(sizes))) as pool:
        per_chunk = list(pool.map(chunk, range(len(sizes)), sizes))
    return tuple(_estimate(sum(c), n, seed) for c in zip(*per_chunk))


def _outage_events(pair):
    """Events function for (exact, lower-bound) outage at the pair's rate,
    any rate a ``WiretapPair`` admits. The exact event is gamma_M <=
    expm1(R_S) + e^{R_S} gamma_E, the threshold ``secrecy.sop_exact_many``
    integrates, and the lower-bound event gamma_M <= e^{R_S} gamma_E. As
    expm1(R_S) >= 0 and rounding is monotone, the exact threshold never
    rounds below the lower-bound one, so the lower-bound event implies the
    exact one draw by draw; at R_S = 0 both are gamma_M <= gamma_E, the
    complement of the SPSC event. Where e^{R_S} times a drawn SNR
    overflows, the threshold is infinite and the draw is in outage."""
    ers = math.exp(pair.rate)
    offset = math.expm1(pair.rate)

    def events(gm, ge):
        with np.errstate(over="ignore"):
            scaled = ers * ge
            return gm <= offset + scaled, gm <= scaled
    return events


def mc_spsc(pair, n, seed=0):
    """Fraction of draws with gamma_M > gamma_E."""
    (spsc,) = _count(pair, n, seed, lambda gm, ge: (gm > ge,))
    return spsc


def mc_sop_both(pair, n, seed=0):
    """Exact and lower-bound outage estimates on one shared draw stream.

    Sharing the stream makes the event inclusion (the lower-bound event
    implies the exact one, see ``_outage_events``) hold realization by
    realization, so the ordering of the two estimates is exact, not statistical.
    """
    return _count(pair, n, seed, _outage_events(pair))


def mc_all(pair, n, seed=0):
    """SPSC, exact and lower-bound outage estimates from one pass over one
    draw stream; each equals what ``mc_spsc`` and ``mc_sop_both`` give for
    the same seed."""
    outage = _outage_events(pair)
    return _count(pair, n, seed, lambda gm, ge: (gm > ge,) + outage(gm, ge))
