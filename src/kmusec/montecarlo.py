"""Empirical oracle: simulate wiretap SNR pairs and estimate the
secrecy metrics with binomial confidence intervals.

``mc_many`` gives each (pair, n, seed) job of a batch its SPSC, exact
and lower-bound outage estimates from one draw stream; ``mc_all``,
``mc_spsc`` and ``mc_sop_both`` are its one-job calls. A job's draws come
in chunks of ``_CHUNK`` pairs (the last may be shorter): chunk i draws,
in the order main Poisson, main gamma, eavesdropper Poisson, eavesdropper
gamma, from the Philox generator keyed by the job's seed and jumped i
times (i * 2^128 draws), so any n <= ``_CHUNK`` draws the seed's own
stream. The chunks of all jobs run on one thread pool, one worker per
usable core (or per chunk, if fewer), and their integer event counts are
summed per job, so every estimate is bit-reproducible for a fixed (pair,
n, seed) within one build, whatever the batch, the worker count or the
order chunks finish in. A worker holds one chunk's draws and events at a
time, about 10 MiB, so peak memory grows by about 10 MiB per worker.
"""
import itertools
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


def _events(pair, gm, ge):
    """The (SPSC, exact outage, lower-bound outage) events of the drawn
    SNR pairs, at the pair's rate, any rate a ``WiretapPair`` admits. SPSC
    is gamma_M > gamma_E. The exact event is gamma_M <= expm1(R_S) +
    e^{R_S} gamma_E, the threshold ``secrecy.sop_exact_many`` integrates,
    and the lower-bound event gamma_M <= e^{R_S} gamma_E. As expm1(R_S) >= 0
    and rounding is monotone, the exact threshold never rounds below the
    lower-bound one, so the lower-bound event implies the exact one draw by
    draw; at R_S = 0 both are gamma_M <= gamma_E, the complement of the
    SPSC event. Where e^{R_S} times a drawn SNR overflows, the threshold is
    infinite and the draw is in outage."""
    with np.errstate(over="ignore"):
        scaled = math.exp(pair.rate) * ge
        return gm > ge, gm <= math.expm1(pair.rate) + scaled, gm <= scaled


def _chunk_counts(pair, seed, i, m):
    """Event counts over the m pairs of chunk i of the pair's seed."""
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
    gm = _sample_snr_with(rng, pair.main, m)
    ge = _sample_snr_with(rng, pair.eve, m)
    return [int(np.count_nonzero(e)) for e in _events(pair, gm, ge)]


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


def _check_n(n, name="n"):
    """Refuse fewer than 1,000 draws; the message names ``name``."""
    if n < 1000:
        raise ValueError(f"{name} must be at least 1000, got {n}")


def mc_many(jobs):
    """One (SPSC, exact outage, lower-bound outage) ``McEstimate`` triple
    per (pair, n, seed) job, equal to what the job gets alone. Every job's
    n and seed are checked before any draw, and the chunks of all jobs run
    on one thread pool."""
    jobs = list(jobs)
    for _, n, seed in jobs:
        _check_n(n)
        check_seeds(seed)
    tasks = [(pair, seed, i, min(_CHUNK, n - start))
             for pair, n, seed in jobs for i, start in enumerate(range(0, n, _CHUNK))]
    if not tasks:
        return []
    # numpy's Poisson and gamma samplers release the GIL; imported here,
    # not at module level, to keep the import off every caller's start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(_usable_cores(), len(tasks))) as pool:
        per_chunk = iter(pool.map(_chunk_counts, *zip(*tasks)))
        return [tuple(_estimate(sum(c), n, seed)
                      for c in zip(*itertools.islice(per_chunk, len(range(0, n, _CHUNK)))))
                for _, n, seed in jobs]


def mc_all(pair, n, seed=0):
    """SPSC, exact and lower-bound outage estimates from one draw stream:
    ``mc_many([(pair, n, seed)])[0]``."""
    return mc_many([(pair, n, seed)])[0]


def mc_spsc(pair, n, seed=0):
    """Fraction of draws with gamma_M > gamma_E: ``mc_all``'s first."""
    return mc_all(pair, n, seed)[0]


def mc_sop_both(pair, n, seed=0):
    """Exact and lower-bound outage estimates, ``mc_all``'s last two. They
    share one draw stream, so the event inclusion (``_events``) holds draw
    by draw and their ordering is exact, not statistical."""
    return mc_all(pair, n, seed)[1:]
