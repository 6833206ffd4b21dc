"""Parameter estimation from envelope traces.

Reproduces the measurement workflow on synthetic or user-supplied data:
local-mean normalization to strip shadowing, then nonlinear least
squares of the model envelope density against a histogram density, with
the RMS level fixed to the sample RMS so the search is over (kappa, mu)
only.
"""
import io
import math
from dataclasses import dataclass, field

import numpy as np

from kmusec import fading
from kmusec.fading import KappaMuParams

#: magic prefix of the raw float32 trace format
TRACE_MAGIC = b"KMUTRC01"

#: multi-start grid, tried in order; ties in residual go to the earliest
DEFAULT_STARTS = tuple((k, m) for k in (0.1, 1.0, 5.0) for m in (0.5, 1.0, 2.0))

KAPPA_BOUNDS = (1e-6, 50.0)
MU_BOUNDS = (0.05, 10.0)


@dataclass(frozen=True)
class EnvelopeTrace:
    """Nonnegative envelope samples in linear units."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", arr)
        if arr.ndim != 1:
            raise ValueError("trace samples must be one-dimensional")
        if not np.isfinite(arr).all():
            raise ValueError("trace samples must be finite")
        if arr.size and float(arr.min()) < 0.0:
            raise ValueError("envelope samples must be >= 0")


@dataclass(frozen=True)
class FitResult:
    """Estimated (kappa, mu, RMS level) with optimizer diagnostics."""

    kappa_hat: float
    mu_hat: float
    r_hat: float
    residual: float
    iterations: int
    history: tuple = field(default=(), repr=False)


def local_mean_normalize(trace, window):
    """Divide the samples by a centered moving average of odd length
    ``window``; shrinking windows are used at the edges so the output
    keeps its length."""
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be a positive odd sample count")
    x = trace.samples
    if x.size < 2 * window:
        raise ValueError(f"trace of {x.size} samples is shorter than "
                         f"twice the {window}-sample window")
    if window == 1:
        return EnvelopeTrace(np.ones_like(x))
    half = window // 2
    csum = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(x.size)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, x.size - 1)
    mean = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)
    if np.any(mean <= 0.0):
        raise ValueError("local mean hits zero; cannot normalize")
    return EnvelopeTrace(x / mean)


def _histogram_density(samples, bin_width):
    lo = float(samples.min())
    hi = float(samples.max())
    if hi <= lo:
        raise ValueError("degenerate histogram: all samples are equal")
    if bin_width is None:
        q75, q25 = np.percentile(samples, [75.0, 25.0])
        iqr = q75 - q25
        if iqr <= 0.0:
            raise ValueError("degenerate histogram: zero interquartile range")
        bin_width = 2.0 * iqr / samples.size ** (1.0 / 3.0)
    elif not 0.0 < bin_width < math.inf:
        raise ValueError(f"bin width must be finite and > 0, got {bin_width}")
    elif (hi - lo) / bin_width > samples.size:
        raise ValueError(f"bin width {bin_width} gives more bins than the "
                         f"{samples.size} samples")
    edges = np.arange(lo, hi + bin_width, bin_width)
    if edges.size < 8:
        raise ValueError("degenerate histogram: fewer than 8 bins")
    dens, edges = np.histogram(samples, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, dens


def fit_kappa_mu(trace, bin_width=None, keep_history=False):
    """Least-squares fit of the kappa-mu envelope density to the trace.

    The RMS level is fixed to the sample RMS; the histogram takes bins of
    ``bin_width`` (Freedman-Diaconis when None). A bounded simplex search
    over (kappa, mu) runs from each start of ``DEFAULT_STARTS`` and the
    best residual wins, earliest start breaking ties. ``keep_history``
    records the best start's residual after each iteration.
    """
    from scipy.optimize import minimize

    samples = trace.samples
    if samples.size < 1000:
        raise ValueError("need at least 1000 samples to fit")
    r_hat = float(np.sqrt(np.mean(samples ** 2)))
    if r_hat <= 0.0:
        raise ValueError("trace RMS is zero")
    centers, dens = _histogram_density(samples, bin_width)

    def objective(theta):
        # bounded Nelder-Mead clips every vertex into the bounds first
        model = fading.envelope_pdf(KappaMuParams(float(theta[0]), float(theta[1]), 1.0),
                                    centers, r_hat)
        diff = model - dens
        return float(np.dot(diff, diff))

    best = None
    best_idx = -1
    total_iters = 0
    history = []
    for idx, start in enumerate(DEFAULT_STARTS):
        trace_f = []

        def record(xk, _trace=trace_f):
            _trace.append(objective(xk))

        res = minimize(
            objective, np.asarray(start, dtype=float), method="Nelder-Mead",
            bounds=[KAPPA_BOUNDS, MU_BOUNDS],
            callback=record if keep_history else None,
            options={"maxiter": 400, "xatol": 1e-5, "fatol": 1e-12},
        )
        total_iters += int(res.nit)
        if keep_history:
            history.append(tuple(trace_f))
        if best is None or res.fun < best.fun:
            best = res
            best_idx = idx
    if best is None or not np.isfinite(best.fun):
        raise RuntimeError("optimizer failed on every start")
    return FitResult(
        kappa_hat=float(best.x[0]),
        mu_hat=float(best.x[1]),
        r_hat=r_hat,
        residual=float(best.fun),
        iterations=total_iters,
        history=tuple(history[best_idx]) if keep_history else (),
    )


def read_trace(path):
    """Load a trace file: either the raw little-endian float32 format
    (8-byte magic ``KMUTRC01``) or text with one value per line and an
    optional single header line."""
    with open(path, "rb") as fh:
        head = fh.read(len(TRACE_MAGIC))
        if head == TRACE_MAGIC:
            data = np.frombuffer(fh.read(), dtype="<f4").astype(float)
            return EnvelopeTrace(data)
    values = []
    with io.open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            s = line.strip()
            if not s:
                continue
            try:
                values.append(float(s))
            except ValueError:
                if lineno == 0:
                    continue  # header line
                raise ValueError(f"unparseable trace line {lineno + 1}: {s!r}")
    if not values:
        raise ValueError("trace file contains no samples")
    return EnvelopeTrace(np.asarray(values))


def write_trace_binary(path, trace):
    """Write a trace in the raw float32 format."""
    with open(path, "wb") as fh:
        fh.write(TRACE_MAGIC)
        fh.write(np.asarray(trace.samples, dtype="<f4").tobytes())


def sample_envelope(params, n, seed, r_hat=1.0):
    """Draw envelope samples with RMS level ``r_hat`` from the model,
    via the SNR sampler and r = r_hat sqrt(gamma / gamma_bar)."""
    g = fading.sample_snr(params, n, seed)
    return EnvelopeTrace(r_hat * np.sqrt(g / params.gamma_bar))
