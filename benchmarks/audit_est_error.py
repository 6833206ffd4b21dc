#!/usr/bin/env python3
"""Audit the series' ``est_error`` on seeded gamma-law wiretap pairs.

    PYTHONPATH=src python benchmarks/audit_est_error.py [--seed N] [--pairs N]

At kappa 0 on both links the SNRs are gamma laws, and with b = mu / gbar
Pr(gamma_M <= s gamma_E) = I_x(mu_M, mu_E), x = s b_M / (s b_M + b_E),
exactly, and Pr(gamma_M > s gamma_E) = I_(1-x)(mu_E, mu_M). Each pair
draws mu from 0.05 to 1e4 and gbar from 1e-3 to 1e3 on each side, both
log-uniform, and a rate of 0, 0.5 or 3 nats. SPSC (``spsc_series``,
s = 1) and SOP^L (``sop_lower``, s = e^R) are checked against that
reference, from mpmath's ``betainc`` at 40 digits.

A result passes when it misses the reference by at most its ``est_error``
plus half an ulp of its value. A ``PrecisionError`` or ``ConvergenceError``
(exit 3 in the CLI) is a refusal, which is allowed. A pair whose reference
does not converge is counted apart, and never as a pass. The JSON printed
holds, per method, these counts, the worst ratio of miss to allowed miss,
and the worst points. The defaults are the Tier-1 subset (``TIER1_SEED``,
``TIER1_PAIRS``), which ``tests/test_secrecy.py`` runs; the full audit
takes more ``--pairs``.
"""
import argparse
import json
import math
import random
import time

import mpmath as mp

from kmusec import KappaMuParams, WiretapPair, sop_lower, spsc_series
from kmusec.errors import ConvergenceError

#: the fixed draw of the Tier-1 subset; never re-drawn or shrunk
TIER1_SEED = 26
TIER1_PAIRS = 300

RATES = (0.0, 0.5, 3.0)
DIGITS = 40
WORST = 5


def draw_pairs(seed, count):
    """``count`` seeded kappa-0 ``WiretapPair``s."""
    rng = random.Random(seed)
    lo_mu = math.log10(0.05)
    pairs = []
    for _ in range(count):
        mu_m, mu_e = (10.0 ** rng.uniform(lo_mu, 4.0) for _ in range(2))
        gbar_m, gbar_e = (10.0 ** rng.uniform(-3.0, 3.0) for _ in range(2))
        pairs.append(WiretapPair(KappaMuParams(0.0, mu_m, gbar_m),
                                 KappaMuParams(0.0, mu_e, gbar_e), rng.choice(RATES)))
    return pairs


def reference(pair, scale, upper):
    """Pr(gamma_M > scale gamma_E) if ``upper``, else Pr(gamma_M <= scale
    gamma_E), as an mpf, or None where mpmath does not converge. Each side
    is its own incomplete beta, so a tiny one keeps its digits."""
    with mp.workdps(DIGITS):
        b_m = scale * mp.mpf(pair.main.mu) / pair.main.gamma_bar
        b_e = mp.mpf(pair.eve.mu) / pair.eve.gamma_bar
        a, b, x = ((pair.eve.mu, pair.main.mu, b_e / (b_m + b_e)) if upper
                   else (pair.main.mu, pair.eve.mu, b_m / (b_m + b_e)))
        try:
            ref = mp.betainc(a, b, 0, x, regularized=True)
        except (ValueError, ZeroDivisionError):  # hypsum did not converge
            return None
        return ref if mp.isfinite(ref) and 0 <= ref <= 1 else None


def _point(pair, result, ref, ratio):
    return {"mu_m": pair.main.mu, "gbar_m": pair.main.gamma_bar, "mu_e": pair.eve.mu,
            "gbar_e": pair.eve.gamma_bar, "rate": pair.rate, "value": result.value,
            "est_error": result.est_error, "reference": float(ref),
            "ratio": ratio if ratio < math.inf else "inf"}


def audit(seed, count):
    """The audit's record for ``count`` pairs drawn at ``seed``."""
    methods = {"spsc": (spsc_series, True), "sop_lower": (sop_lower, False)}
    record = {}
    started = time.perf_counter()
    pairs = draw_pairs(seed, count)
    for name, (evaluate, upper) in methods.items():
        counts = {"passed": 0, "refused": 0, "missed": 0, "no_reference": 0}
        points = []
        for pair in pairs:
            ref = reference(pair, 1.0 if upper else math.exp(pair.rate), upper)
            if ref is None:
                counts["no_reference"] += 1
                continue
            try:
                result = evaluate(pair)
            except ConvergenceError:  # PrecisionError is one too: exit 3
                counts["refused"] += 1
                continue
            miss = float(abs(mp.mpf(result.value) - ref))
            allowed = result.est_error + math.ulp(result.value) / 2.0
            ratio = miss / allowed if allowed > 0.0 else (0.0 if miss == 0.0 else math.inf)
            counts["passed" if miss <= allowed else "missed"] += 1
            points.append((ratio, _point(pair, result, ref, ratio)))
        points.sort(key=lambda item: item[0], reverse=True)
        record[name] = dict(counts, checked=count,
                            worst_ratio=points[0][1]["ratio"] if points else None,
                            worst=[point for _, point in points[:WORST]])
    return {"seed": seed, "pairs": count, "digits": DIGITS,
            "draw": "kappa 0 both sides; mu 0.05..1e4 and gbar 1e-3..1e3 log-uniform "
                    "per side; rate 0, 0.5 or 3 nats",
            "methods": record, "seconds": round(time.perf_counter() - started, 2)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=TIER1_SEED)
    parser.add_argument("--pairs", type=int, default=TIER1_PAIRS)
    args = parser.parse_args()
    print(json.dumps(audit(args.seed, args.pairs), indent=1))


if __name__ == "__main__":
    main()
