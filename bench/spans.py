"""Span tracing of qdiv's public functions and of the numpy.linalg entry
points, installed only around a traced pass; and the stamps that cut an
untraced pass into intervals at its numpy.linalg calls.

A span is (name, start, end, parent): the parent is the innermost traced call
that was open when the span began. Spans live in flat in-memory arrays and
are written out once the run is over.
"""

import collections
import contextlib
import functools
import hashlib
import inspect
import sys
import time
from array import array

import numpy as np

LAPACK_FUNCS = ("eigh", "eigvalsh", "svd", "qr", "lstsq")
LAPACK_LAYER = "numpy.linalg"
QDIV_LAYERS = ("qdiv.linalg", "qdiv.states", "qdiv.divergences", "qdiv.metrics",
               "qdiv.reverse", "qdiv.hypotest", "qdiv.suites", "qdiv.cli", "qdiv.serialize")
LAYERS = (LAPACK_LAYER,) + QDIV_LAYERS

INTEGRAL_SPAN = "qdiv.metrics.integral_divergence"
EIGH_SPAN = "numpy.linalg.eigh"


def _public_callables(module):
    """(owner, attribute, function, span name) for every public function and
    public class method (plus dataclass __post_init__) defined in module."""
    layer = module.__name__
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != layer:
            continue
        if inspect.isfunction(obj):
            yield module, attr, obj, f"{layer}.{attr}"
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if inspect.isfunction(fn) and (meth == "__post_init__" or not meth.startswith("_")):
                    yield obj, meth, fn, f"{layer}.{attr}.{meth}"


def _matrix_key(m: np.ndarray) -> tuple:
    m = np.ascontiguousarray(m)
    return m.shape, m.dtype.str, hashlib.blake2b(m.tobytes(), digest_size=16).digest()


class Tracer:
    """Collects spans and numpy.linalg work counts for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.matrices = array("q")   # matrices handed to LAPACK by the span; 0 for qdiv spans
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.work_d3 = 0
        self.max_dim = 0
        self.eigh_matrices = 0
        self.eigh_repeats = 0
        self._seen_eigh: set[tuple] = set()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span_name: str, count_lapack: bool = False):
        nid = self._intern(span_name)
        names, parents, starts, ends, mats = self.name, self.parent, self.start, self.end, self.matrices
        stack, clock, count = self._stack, time.perf_counter_ns, self._count_lapack
        is_eigh = span_name == EIGH_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            mats.append(count(args[0] if args else kwargs["a"], is_eigh) if count_lapack else 0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
        return traced

    def _count_lapack(self, a, is_eigh: bool) -> int:
        a = np.asarray(a)
        rows, cols = a.shape[-2:]
        k = int(np.prod(a.shape[:-2], dtype=np.int64))
        self.work_d3 += k * rows * cols * min(rows, cols)
        self.max_dim = max(self.max_dim, rows, cols)
        if is_eigh:
            for m in a.reshape(-1, rows, cols):
                key = _matrix_key(m)
                if key in self._seen_eigh:
                    self.eigh_repeats += 1
                else:
                    self._seen_eigh.add(key)
            self.eigh_matrices += k
        return k

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public qdiv function and the numpy.linalg entry points.

        Modules import each other's functions with `from .x import y`, so each
        wrapper is rebound under every name that refers to the original in
        any loaded qdiv module, not only where it is defined.
        """
        wrappers = {}
        for layer in QDIV_LAYERS:
            for owner, attr, fn, span_name in list(_public_callables(sys.modules[layer])):
                wrapper = self._wrap(fn, span_name)
                if inspect.isclass(owner):
                    self._patch(owner, attr, wrapper)
                else:
                    wrappers[fn] = wrapper
        for modname, module in list(sys.modules.items()):
            if modname != "qdiv" and not modname.startswith("qdiv."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        for fname in LAPACK_FUNCS:
            self._patch(np.linalg, fname,
                        self._wrap(getattr(np.linalg, fname), f"{LAPACK_LAYER}.{fname}", count_lapack=True))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def span_layers(self) -> list[str]:
        return [layer_of(n) for n in self.names]

    def write(self, path) -> None:
        """Spans as TSV: name, layer, start_ns, end_ns, parent index."""
        layers = self.span_layers()
        with open(path, "w") as fh:
            fh.write("name\tlayer\tstart_ns\tend_ns\tparent\n")
            fh.writelines(f"{self.names[n]}\t{layers[n]}\t{s}\t{e}\t{p}\n"
                          for n, s, e, p in zip(self.name, self.start, self.end, self.parent))


class Stamps:
    """Entry times of the numpy.linalg calls of one untraced pass.

    The only wrapper is a clock read and a list append per call, too little
    to measure against a 10 us 2x2 eigh on a 2-core x86_64 virtual machine,
    so a pass under it still runs untraced. The calls cut a pass
    into intervals of mostly a few milliseconds or less; every pass of one run
    makes the same calls on the same inputs, so interval i of one pass is the
    same work as interval i of every other pass.
    """

    def __init__(self):
        self.times: list[float] = []

    @contextlib.contextmanager
    def recording(self):
        times, clock = self.times, time.perf_counter
        originals = {f: getattr(np.linalg, f) for f in LAPACK_FUNCS}

        def stamped(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                times.append(clock())
                return fn(*args, **kwargs)
            return wrapper

        times.clear()
        for fname, fn in originals.items():
            setattr(np.linalg, fname, stamped(fn))
        try:
            yield self
        finally:
            for fname, fn in originals.items():
                setattr(np.linalg, fname, fn)

    def intervals(self, start: float, end: float) -> np.ndarray:
        """Lengths of the intervals between start, each stamp and end."""
        return np.diff(np.array([start, *self.times, end]))


def fastest_pass(intervals: list) -> float:
    """Sum over interval positions of the shortest time any pass took there.

    On a shared host a core's speed changes within a second as other tenants
    load it (by up to 2x on a 2-core x86_64 virtual machine). Over many
    passes each few-millisecond interval is caught at least once at full
    speed, so the sum is one pass at full speed, while whole passes and their
    median move with the load. Passes whose call count differs from the most
    common one (a first pass that fills a cache, say) are left out.
    """
    counts = collections.Counter(len(iv) for iv in intervals)
    common = counts.most_common(1)[0][0]
    same = np.array([iv for iv in intervals if len(iv) == common])
    return float(same.min(axis=0).sum())


def layer_of(span_name: str) -> str:
    return ".".join(span_name.split(".")[:2])


def layer_totals(names, parents, starts, ends, layers):
    """Per layer: calls, self time and time in LAPACK spans directly beneath.

    names[i] indexes `layers`, the layer of each span name; parents[i] is the
    index of the enclosing span or -1. Self time is a span's duration minus
    the durations of its direct children (children of one span never overlap
    in a single-threaded run). Times are in the units of starts/ends.
    """
    child = [0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    calls, self_t, lapack = {}, {}, {}
    for i, nid in enumerate(names):
        layer = layers[nid]
        dur = ends[i] - starts[i]
        calls[layer] = calls.get(layer, 0) + 1
        self_t[layer] = self_t.get(layer, 0) + dur - child[i]
        p = parents[i]
        if layer == LAPACK_LAYER and p >= 0:
            above = layers[names[p]]
            lapack[above] = lapack.get(above, 0) + dur
    return calls, self_t, lapack


def matrices_beneath(names, parents, matrices, span_names, ancestor: str, leaf: str) -> int:
    """LAPACK matrices of `leaf` spans that run inside an `ancestor` span."""
    if ancestor not in span_names or leaf not in span_names:
        return 0
    anc, lf = span_names.index(ancestor), span_names.index(leaf)
    inside = bytearray(len(names))
    total = 0
    for i, nid in enumerate(names):
        p = parents[i]
        inside[i] = nid == anc or (p >= 0 and inside[p])
        if nid == lf and inside[i]:
            total += matrices[i]
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values (seconds, counts) of one traced pass."""
    layers = tracer.span_layers()
    calls, self_t, lapack = layer_totals(tracer.name, tracer.parent, tracer.start, tracer.end, layers)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_t.get(layer, 0) / 1e9
        if layer != LAPACK_LAYER:
            out[f"{layer}.lapack_s"] = lapack.get(layer, 0) / 1e9
    span_calls = {}
    for nid in tracer.name:
        span_calls[nid] = span_calls.get(nid, 0) + 1

    def calls_of(name):
        return span_calls.get(tracer.names.index(name), 0) if name in tracer.names else 0

    out["numpy.linalg.eigh_calls"] = calls_of(EIGH_SPAN)
    out["numpy.linalg.matrices"] = int(sum(tracer.matrices))
    out["numpy.linalg.work_d3"] = tracer.work_d3
    out["numpy.linalg.max_dim"] = tracer.max_dim
    out["numpy.linalg.eigh_repeat_frac"] = tracer.eigh_repeats / max(tracer.eigh_matrices, 1)
    integral_calls = calls_of(INTEGRAL_SPAN)
    nodes = matrices_beneath(tracer.name, tracer.parent, tracer.matrices, tracer.names,
                             INTEGRAL_SPAN, EIGH_SPAN)
    out["qdiv.metrics.integral_nodes"] = nodes / integral_calls if integral_calls else 0.0
    out["qdiv.hypotest.np_projector_calls"] = calls_of("qdiv.hypotest.np_projector")
    out["qdiv.states.tensor_power_calls"] = calls_of("qdiv.states.tensor_power")
    return out
