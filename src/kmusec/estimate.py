"""Parameter estimation from envelope traces.

Reproduces the measurement workflow on synthetic or user-supplied data:
local-mean normalization to strip shadowing, then nonlinear least
squares of the model envelope density against a histogram density, with
the RMS level fixed to the sample RMS so the search is over (kappa, mu)
only.

The search is scipy's bounded Nelder-Mead, transcribed as a generator
that yields the points it needs evaluated, so that the searches from all
starts run in lockstep: each step evaluates the pending point of every
open search in one row-batched density call. Each search returns what
``scipy.optimize.minimize`` returns for its start, to the last bit; scipy's
optimizer is not imported.
"""
import io
import math
from dataclasses import dataclass, field

import numpy as np

from kmusec import fading

#: magic prefix of the raw float32 trace format
TRACE_MAGIC = b"KMUTRC01"

#: multi-start grid, tried in order; ties in residual go to the earliest
DEFAULT_STARTS = tuple((k, m) for k in (0.1, 1.0, 5.0) for m in (0.5, 1.0, 2.0))

KAPPA_BOUNDS = (1e-6, 50.0)
MU_BOUNDS = (0.05, 10.0)

#: RMS levels a fit admits. The densities scale as 1 / RMS and the
#: residual's terms as RMS^-2, which this range keeps between 1e-200 and
#: 1e200: a term stays a normal double down to 1e-108 of that scale, and
#: finite up to 1e108 times it
RMS_RANGE = (1e-100, 1e100)


class BinWidthError(ValueError):
    """A histogram bin width that gives more bins than there are samples."""


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
    n = x.size
    csum = np.concatenate(([0.0], np.cumsum(x)))
    # window sums over the samples i - half .. i + half that exist: the
    # window shrinks towards each edge and is whole in between
    mean = np.concatenate((
        (csum[half + 1:window] - csum[0]) / np.arange(half + 1, window),
        (csum[window:] - csum[:n - window + 1]) / window,
        (csum[n] - csum[n - window + 1:n - half]) / np.arange(window - 1, half, -1)))
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
        # one far outlier stretches the range but not this width
        width = f"default (Freedman-Diaconis) bin width {bin_width:.6g}"
    elif not 0.0 < bin_width < math.inf:
        raise ValueError(f"bin width must be finite and > 0, got {bin_width}")
    else:
        width = f"bin width {bin_width}"
    if (hi - lo) / bin_width > samples.size:
        raise BinWidthError(f"{width} gives more bins than the {samples.size} samples; "
                            f"pass a wider bin width")
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
    best residual wins, earliest start breaking ties. The searches run in
    lockstep, each step evaluating the next point of every open search in
    one density call. ``keep_history`` records the best start's residual
    after each iteration.
    """
    samples = trace.samples
    if samples.size < 1000:
        raise ValueError("need at least 1000 samples to fit")
    r_hat = _rms(samples)
    if not RMS_RANGE[0] <= r_hat <= RMS_RANGE[1]:
        raise ValueError(f"trace RMS {r_hat:.6g} is outside {RMS_RANGE[0]:g} to "
                         f"{RMS_RANGE[1]:g}, the range a fit admits; rescale the trace")
    runs = _simplex_runs(*_histogram_density(samples, bin_width), r_hat)
    best = runs[0]
    for run in runs[1:]:
        if run.fun < best.fun:
            best = run
    if not np.isfinite(best.fun):
        raise RuntimeError("optimizer failed on every start")
    return FitResult(
        kappa_hat=best.x[0],
        mu_hat=best.x[1],
        r_hat=r_hat,
        residual=best.fun,
        iterations=sum(run.nit for run in runs),
        history=best.history if keep_history else (),
    )


def _rms(samples):
    """sqrt(mean(x^2)) of samples x >= 0 that are scaled by 2^-e, e the
    binary exponent of the largest, so that no square overflows or, for
    the largest, underflows. The scaling is exact: wherever the plain
    formula's squares stay normal, the value equals it bit for bit."""
    e = math.frexp(float(samples.max()))[1]
    scaled = np.ldexp(samples, -e)
    scaled *= scaled
    return math.ldexp(float(np.sqrt(np.mean(scaled))), e)


def _simplex_runs(centers, dens, r_hat):
    """The bounded simplex search from each start of ``DEFAULT_STARTS``,
    all run in lockstep; a ``_SimplexRun`` per start, in order."""

    # the levels' own work is done once, for every step of every search
    levels = fading._EnvelopeLevels(centers, r_hat)

    def residuals(points):
        # one density row per point; each row's residual is its own dot
        # product, as a single point's would be
        kappa, mu = np.array(points).T[:, :, None]
        diff = fading._density(kappa, mu, 1.0, levels) - dens
        return [float(np.dot(row, row)) for row in diff]

    return _lockstep([_nelder_mead(start, (KAPPA_BOUNDS, MU_BOUNDS), maxiter=400,
                                   xatol=1e-5, fatol=1e-12)
                      for start in DEFAULT_STARTS], residuals)


@dataclass(frozen=True)
class _SimplexRun:
    """Outcome of one simplex search: best vertex, its value (NaN when
    any vertex's is), iterations, and the best value after each one."""

    x: tuple
    fun: float
    nit: int
    history: tuple


def _nelder_mead(x0, bounds, maxiter, xatol, fatol):
    """scipy's bounded Nelder-Mead (``scipy.optimize.minimize`` with
    ``method="Nelder-Mead"``, ``adaptive=False`` and no ``maxfev``, as of
    scipy 1.17) over two parameters, as a generator: it yields each point
    whose objective value it needs, as a pair of floats, takes the value
    back through ``send`` as a float, and returns a ``_SimplexRun`` with
    the same ``x``, ``fun`` and ``nit``. The history holds what a callback
    sees after each iteration. The steps, ordering and stopping test are
    scipy's, operation for operation and in scipy's order, on Python
    floats, so the points and results are equal to the last bit.
    """
    # scipy's coefficients rho = 1, chi = 2, psi = sigma = 0.5 enter the
    # steps below as the products scipy forms of them, all exact
    (lo0, hi0), (lo1, hi1) = bounds

    def clip(a, b):
        # np.clip, as min(max(a, lo), hi): a NaN stays NaN
        return (lo0 if a < lo0 else hi0 if a > hi0 else a,
                lo1 if b < lo1 else hi1 if b > hi1 else b)

    p0 = a0, b0 = clip(float(x0[0]), float(x0[1]))
    # each coordinate in turn 5% further from 0, or 0.00025 at 0, and
    # reflected into the box past its upper bound
    a1 = (1 + 0.05) * a0 if a0 != 0 else 0.00025
    b2 = (1 + 0.05) * b0 if b0 != 0 else 0.00025
    p1 = clip(2 * hi0 - a1 if a1 > hi0 else a1, b0)
    p2 = clip(a0, 2 * hi1 - b2 if b2 > hi1 else b2)
    f0 = yield p0
    f1 = yield p1
    f2 = yield p2
    # scipy sorts the first simplex twice; the second leaves it as it is
    p0, f0, p1, f1, p2, f2 = _sorted3(p0, f0, p1, f1, p2, f2)

    nit = 1
    history = []
    while nit < maxiter:
        (a0, b0), (a1, b1), (a2, b2) = p0, p1, p2
        # scipy's max(...) <= tol, each term <= tol: False on a NaN too
        if (abs(a1 - a0) <= xatol and abs(b1 - b0) <= xatol
                and abs(a2 - a0) <= xatol and abs(b2 - b0) <= xatol
                and abs(f0 - f1) <= fatol and abs(f0 - f2) <= fatol):
            break
        # centroid of the two best vertices, then reflection: (1 + rho)
        # xbar - rho worst
        ca, cb = (a0 + a1) / 2, (b0 + b1) / 2
        pr = clip(2 * ca - a2, 2 * cb - b2)
        fr = yield pr
        if fr < f0:  # expansion: (1 + rho chi) xbar - rho chi worst
            pe = clip(3 * ca - 2 * a2, 3 * cb - 2 * b2)
            fe = yield pe
            p2, f2 = (pe, fe) if fe < fr else (pr, fr)
        elif fr < f1:
            p2, f2 = pr, fr
        else:
            if fr < f2:  # contraction outside: (1 + psi rho) xbar - psi rho worst
                pc = clip(1.5 * ca - 0.5 * a2, 1.5 * cb - 0.5 * b2)
                fc = yield pc
                accept = fc <= fr
            else:  # contraction inside: (1 - psi) xbar + psi worst
                pc = clip(0.5 * ca + 0.5 * a2, 0.5 * cb + 0.5 * b2)
                fc = yield pc
                accept = fc < f2
            if accept:
                p2, f2 = pc, fc
            else:  # shrink towards the best vertex: best + sigma (v - best)
                p1 = clip(a0 + 0.5 * (a1 - a0), b0 + 0.5 * (b1 - b0))
                f1 = yield p1
                p2 = clip(a0 + 0.5 * (a2 - a0), b0 + 0.5 * (b2 - b0))
                f2 = yield p2
        nit += 1
        p0, f0, p1, f1, p2, f2 = _sorted3(p0, f0, p1, f1, p2, f2)
        history.append(f0)
    # the simplex is sorted, NaN last: scipy's np.min(fsim)
    return _SimplexRun(p0, f2 if f2 != f2 else f0, nit, tuple(history))


def _sorted3(p0, f0, p1, f1, p2, f2):
    """Three vertices and their values in the order ``np.argsort`` gives
    three values in: numpy's insertion sort of small arrays, stable, with
    a < b or (b is NaN and a is not) as its less-than, so NaN goes last.
    (On four or more values, numpy's vectorized argsort on AVX-512 hosts
    may order ties otherwise.)"""
    if f1 < f0 or (f0 != f0 and f1 == f1):
        p0, f0, p1, f1 = p1, f1, p0, f0
    if f2 < f1 or (f1 != f1 and f2 == f2):
        if f2 < f0 or (f0 != f0 and f2 == f2):
            return p2, f2, p0, f0, p1, f1
        return p0, f0, p2, f2, p1, f1
    return p0, f0, p1, f1, p2, f2


def _lockstep(searches, evaluate):
    """Run generator searches side by side. Each step evaluates the
    pending point of every open search with one ``evaluate(points)``
    call, which returns their values in order, and sends each search its
    value. Returns what each search returns, in order."""
    results = [None] * len(searches)
    pending = {i: next(search) for i, search in enumerate(searches)}
    while pending:
        ids = list(pending)
        for i, value in zip(ids, evaluate([pending[i] for i in ids])):
            try:
                pending[i] = searches[i].send(value)
            except StopIteration as stop:
                del pending[i]
                results[i] = stop.value
    return results


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
