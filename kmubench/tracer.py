"""In-memory span recorder for the traced benchmark run.

The library is not edited: :class:`Patches` replaces public callables at
the names each calling module binds (``cli.main``, ``secrecy.*``,
``fading.*``, the ``_k`` kernel binding of ``fading``/``secrecy``/
``specfun``, ``montecarlo._sample_snr_with``, ``scipy.integrate.quad``,
``scipy.optimize.minimize``, ``estimate.*``) with wrappers that append a
span (layer, parent span, op id, start, end) to flat arrays. Counts
that belong to a layer (series terms, draws, quadrature evaluations,
optimizer iterations) are read from arguments and return values at the
same boundary. Self time is computed after the run: a span's duration
minus the durations of its direct children.
"""
import time
import types
from array import array

import numpy as np

#: spans kept before a traced segment stops starting new ops; at 28
#: bytes a span this bounds the store near 110 MB
MAX_SPANS = 4_000_000

#: layer name of the root span the harness opens around each op
OP = "op"

#: counters read at a layer's boundary: layer -> ((metric, get), ...),
#: each ``get(args, result)`` giving the amount one call adds
COUNTERS = {
    "secrecy.sop_exact": (("secrecy.sop_exact.neval", lambda a, r: r.terms_k),),
    "secrecy.spsc_closed_form": (
        ("secrecy.closed_form_fallbacks", lambda a, r: r.method != "closed_form"),),
    # outer terms times the widest inner sum: the evaluated term rectangle
    "kernels.survival_series": (
        ("kernels.survival_series.terms", lambda a, r: r[1] * r[2]),),
    "kernels.marcum_q_series": (
        ("kernels.marcum_q_series.terms", lambda a, r: r[1]),),
    "fading.sample": (("fading.sample.draws", lambda a, r: a[2]),),
    "fading.envelope_pdf": (
        ("fading.envelope_pdf.points", lambda a, r: np.size(a[1])),),
    "estimate.fit_kappa_mu": (
        ("estimate.fit_kappa_mu.iterations", lambda a, r: r.iterations),),
}


class Tracer:
    """Span store shared by every wrapper of one traced segment."""

    def __init__(self):
        self.layers = [OP]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.current = -1
        self.op_id = -1

    def full(self):
        return len(self.name) >= MAX_SPANS

    def _span(self, layer_id, fn, args, kwargs):
        i = len(self.name)
        self.name.append(layer_id)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.end.append(0.0)
        outer = self.current
        self.current = i
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self.current = outer

    def run_op(self, fn):
        """Run one benchmark op as a root span under a fresh op id."""
        self.op_id += 1
        return self._span(0, fn, (), {})

    def wrap(self, layer, fn):
        """Return ``fn`` wrapped so each call records a span of ``layer``."""
        self.layers.append(layer)
        layer_id = len(self.layers) - 1
        counters = COUNTERS.get(layer, ())
        counts = self.counts
        for metric, _ in counters:
            counts[metric] = 0
        span = self._span

        def traced(*args, **kwargs):
            result = span(layer_id, fn, args, kwargs)
            for metric, get in counters:
                counts[metric] += get(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_times(self):
        """``{layer: (calls, self_s, self_s_under_sop_exact)}``; the last
        field sums the self time of the layer's spans that run inside a
        ``secrecy.sop_exact`` span (or are one)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.zeros(name.size)
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child

        n = len(self.layers)
        calls = np.bincount(name, minlength=n)
        own_sum = np.bincount(name, weights=own, minlength=n)
        sop = self.layers.index("secrecy.sop_exact")
        under = name == sop
        anc = parent.copy()
        live = anc >= 0
        while live.any():
            under[live] |= name[anc[live]] == sop
            anc[live] = parent[anc[live]]
            live = anc >= 0
        under_sum = np.bincount(name[under], weights=own[under], minlength=n)
        return {layer: (int(calls[i]), float(own_sum[i]), float(under_sum[i]))
                for i, layer in enumerate(self.layers)}

    def dump(self, path):
        """Write every span to ``path`` (``.npz``), layer names included."""
        np.savez(path, layers=np.asarray(self.layers),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def _kernel_proxy(tracer, kernels):
    proxy = types.SimpleNamespace()
    for attr in dir(kernels):
        fn = getattr(kernels, attr)
        if not attr.startswith("_") and callable(fn) and not isinstance(fn, type):
            setattr(proxy, attr, tracer.wrap(f"kernels.{attr}", fn))
    return proxy


class Patches:
    """The wrappers at every layer boundary the workloads cross, made once
    and put in place only inside ``with patches:``, so that traced and
    untraced segments can alternate in one process."""

    def __init__(self, tracer):
        import scipy.integrate
        import scipy.optimize

        from kmusec import _backend, cli, estimate, fading, montecarlo, secrecy, specfun

        self.swaps = []

        def patch(module, attr, layer):
            fn = getattr(module, attr)
            self.swaps.append((module, attr, fn, tracer.wrap(layer, fn)))

        patch(cli, "main", "cli")
        for attr in ("spsc_series", "sop_lower", "spsc_closed_form", "sop_exact"):
            patch(secrecy, attr, f"secrecy.{attr}")
        for attr in ("snr_pdf", "snr_cdf", "envelope_pdf"):
            patch(fading, attr, f"fading.{attr}")
        patch(montecarlo, "_sample_snr_with", "fading.sample")
        for attr in ("mc_spsc", "mc_sop_both"):
            patch(montecarlo, attr, f"montecarlo.{attr}")
        for attr in ("read_trace", "local_mean_normalize", "fit_kappa_mu"):
            patch(estimate, attr, f"estimate.{attr}")
        patch(scipy.integrate, "quad", "quad")
        patch(scipy.optimize, "minimize", "minimize")
        proxy = _kernel_proxy(tracer, _backend.kernels)
        for module in (fading, secrecy, specfun):
            self.swaps.append((module, "_k", module._k, proxy))

    def __enter__(self):
        for module, attr, _, wrapped in self.swaps:
            setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self.swaps:
            setattr(module, attr, original)
