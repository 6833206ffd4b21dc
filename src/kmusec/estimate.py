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
    r_hat = float(np.sqrt(np.mean(samples ** 2)))
    if r_hat <= 0.0:
        raise ValueError("trace RMS is zero")
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


def _simplex_runs(centers, dens, r_hat):
    """The bounded simplex search from each start of ``DEFAULT_STARTS``,
    all run in lockstep; a ``_SimplexRun`` per start, in order."""

    # the levels' own work is done once, for every step of every search
    levels = fading._EnvelopeLevels(centers, r_hat)

    def residuals(points):
        # one density row per point; each row's residual is its own dot
        # product, as a single point's would be
        kappa, mu = (np.array(col)[:, None] for col in zip(*points))
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
    scipy 1.17) as a generator: it yields each point whose objective value
    it needs, takes the value back through ``send``, and returns a
    ``_SimplexRun`` with the same ``x``, ``fun`` and ``nit``. The history
    holds what a callback sees after each iteration. The steps, ordering
    and stopping test are scipy's, operation for operation, on Python
    floats, so the results are equal to the last bit; ``_by_value`` orders
    ties as scipy does for the three vertices of a 2-D search.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    lower = [lo for lo, _ in bounds]
    upper = [hi for _, hi in bounds]

    def clip(v):
        return [min(max(c, lo), hi) for c, lo, hi in zip(v, lower, upper)]

    x0 = clip([float(c) for c in x0])
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + nonzdelt) * y[k] if y[k] != 0 else zdelt
        sim.append(y)
    # vertices past an upper bound are reflected into the box
    sim = [clip([2 * hi - c if c > hi else c for c, hi in zip(v, upper)]) for v in sim]
    fsim = []
    for v in sim:
        fsim.append(float((yield v)))
    for _ in range(2):  # scipy sorts the first simplex twice
        sim, fsim = _by_value(sim, fsim)

    nit = 1
    history = []
    while nit < maxiter:
        # scipy's max(...) <= tol, as all(... <= tol): False on a NaN too
        if (all(abs(fsim[0] - f) <= fatol for f in fsim[1:])
                and all(abs(c - b) <= xatol for v in sim[1:] for c, b in zip(v, sim[0]))):
            break
        # centroid of all but the worst vertex, summed row by row
        xbar = sim[0]
        for v in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, v)]
        xbar = [a / n for a in xbar]
        worst = sim[-1]
        xr = clip([(1 + rho) * a - rho * w for a, w in zip(xbar, worst)])
        fxr = float((yield xr))
        if fxr < fsim[0]:
            xe = clip([(1 + rho * chi) * a - rho * chi * w for a, w in zip(xbar, worst)])
            fxe = float((yield xe))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # contraction outside
                xc = clip([(1 + psi * rho) * a - psi * rho * w for a, w in zip(xbar, worst)])
                fxc = float((yield xc))
                accept = fxc <= fxr
            else:  # contraction inside
                xc = clip([(1 - psi) * a + psi * w for a, w in zip(xbar, worst)])
                fxc = float((yield xc))
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = clip([b + sigma * (c - b) for b, c in zip(sim[0], sim[j])])
                    fsim[j] = float((yield sim[j]))
        nit += 1
        sim, fsim = _by_value(sim, fsim)
        history.append(fsim[0])
    # the simplex is sorted, NaN last: scipy's np.min(fsim)
    fun = fsim[-1] if math.isnan(fsim[-1]) else fsim[0]
    return _SimplexRun(tuple(sim[0]), fun, nit, tuple(history))


def _by_value(sim, fsim):
    """Vertices and their values in ascending order of value, NaN last,
    ties kept in order: the order ``np.argsort`` gives three values in.
    (On four or more, numpy's vectorized argsort on AVX-512 hosts may
    order ties otherwise.)"""
    order = sorted(range(len(fsim)), key=lambda i: (math.isnan(fsim[i]), fsim[i]))
    return [sim[i] for i in order], [fsim[i] for i in order]


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
