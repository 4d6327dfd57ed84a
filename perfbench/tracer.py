"""Span tracer for the benchmark's traced runs, installed from outside the program.

:func:`install` replaces every public function of the layer modules
(``linalg``, ``model``, ``wtd``, ``stats``, ``fock``, ``tracedet``) and the
public methods of ``FockOracle`` with timing wrappers, wherever the
function object is bound: ``fermiwait.wtd.expm`` is patched as well as
``fermiwait.linalg.expm``.  The program's source is not touched.

A span is (id, name, start, end, parent).  The stack of open spans is kept
per thread; ``wtd_curve`` evaluates its points on a thread pool, so the pool
class it uses is swapped for one whose tasks start under the span that
submitted them.  Spans are kept in memory as flat ``array('d')`` buffers,
one per thread, because the statistics workload records about a million.

Self time is a span's duration minus the part of it that its children
cover; children running concurrently on worker threads are merged first.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("linalg", "model", "wtd", "stats", "fock", "tracedet")
FOCK_ORACLE_METHODS = ("__init__", "steady_state", "wtd", "covariance", "gaussian_density", "vacuum_density")
DENSITY_SPANS = ("wtd.wtd_point", "wtd.wtd_density", "wtd.wtd_density_matrix", "wtd.wtd_density_vacuum")
FIELDS = 5  # id, name index, start, end, parent id (-1 for a root)


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[array] = []
        self._lock = threading.Lock()
        self.names: list[str] = []
        self.counts: dict[str, int] = {}

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.buf
        except AttributeError:
            local.stack, local.buf = [], array("d")
            with self._lock:
                self._buffers.append(local.buf)
            return local.stack, local.buf

    def current(self) -> int:
        stack, _ = self._thread_state()
        return stack[-1] if stack else -1

    def run_under(self, parent: int, fn, *args, **kwargs):
        """Run fn on this thread as if called from inside span ``parent``."""
        stack, _ = self._thread_state()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def wrap(self, name: str, fn, count=None):
        """Timing wrapper; ``count(result)`` is added to ``counts[name]``."""
        idx = len(self.names)
        self.names.append(name)
        ids, thread_state, clock = self._ids, self._thread_state, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, buf = thread_state()
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.extend((sid, idx, start, end, parent))
            if count is not None:
                with self._lock:
                    self.counts[name] = self.counts.get(name, 0) + count(out)
            return out

        return traced

    def spans(self) -> np.ndarray:
        """All finished spans as an (n, 5) array ordered by span id."""
        with self._lock:
            flat = np.concatenate([np.frombuffer(b) for b in self._buffers]) if self._buffers else np.empty(0)
        rows = flat.reshape(-1, FIELDS)
        return rows[np.argsort(rows[:, 0], kind="stable")]


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of the already-imported ``fermiwait`` package."""
    import fermiwait

    counters = {"stats.integrate_semiinfinite": lambda res: res.evaluations}
    layer_modules = {layer: importlib.import_module(f"fermiwait.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in layer_modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj, counters.get(name)))

    bound_in = [fermiwait, *layer_modules.values()]
    bound_in += [importlib.import_module(f"fermiwait.{m}") for m in ("cli", "config")]
    for mod in bound_in:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])

    oracle = layer_modules["fock"].FockOracle
    for meth in FOCK_ORACLE_METHODS:
        setattr(oracle, meth, tracer.wrap(f"fock.FockOracle.{meth}", oracle.__dict__[meth]))

    class SpanPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.run_under, tracer.current(), fn, *args, **kwargs)

    layer_modules["wtd"].ThreadPoolExecutor = SpanPool


def _has_ancestor(parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For each span, whether any proper ancestor satisfies ``mask``."""
    out = np.zeros(parent.size, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            return out
        out[live] |= mask[anc[live]]
        anc[live] = parent[anc[live]]


def _covered_by_children(start, end, parent) -> np.ndarray:
    """Length of each span's interval covered by the union of its children."""
    covered = np.zeros(start.size)
    kids = np.nonzero(parent >= 0)[0]
    if kids.size == 0:
        return covered
    order = kids[np.lexsort((start[kids], parent[kids]))]
    par = parent[order]
    s, e = start[order], end[order]
    # Shift each parent's group so that one running maximum over the whole
    # array never carries an end time from one group into the next.
    group = np.concatenate(([0], np.cumsum(par[1:] != par[:-1])))
    shift = group * (end.max() - start.min() + 1.0) - start.min()
    s, e = s + shift, e + shift
    prev = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
    contrib = np.maximum(0.0, e - np.maximum(s, prev))
    np.add.at(covered, par, contrib)
    return covered


def summarize(tracer: Tracer, compute_s: float) -> tuple[dict, dict]:
    """Per-layer metrics and a per-name table from the recorded spans.

    ``compute_s`` is the traced duration of the ``main`` call; the share of
    it that root spans cover shows how much time lies outside every layer.
    """
    rows = tracer.spans()
    n = rows.shape[0]
    if n and not np.array_equal(rows[:, 0], np.arange(n)):
        raise RuntimeError("span ids are not contiguous: a span was lost")
    name_idx = rows[:, 1].astype(int)
    start, end = rows[:, 2], rows[:, 3]
    parent = rows[:, 4].astype(int)
    dur = end - start
    self_s = dur - _covered_by_children(start, end, parent)
    index = {name: i for i, name in enumerate(tracer.names)}

    def of(*wanted):
        return np.isin(name_idx, [index[w] for w in wanted if w in index])

    def total(mask):
        return float(dur[mask].sum())

    table = {}
    for name in tracer.names:
        m = of(name)
        if m.any():
            table[name] = {"calls": int(m.sum()), "total_s": total(m), "self_s": float(self_s[m].sum())}

    is_density = of(*DENSITY_SPANS)
    inside_density = _has_ancestor(parent, is_density)
    expm = of("linalg.expm")
    entries = np.where(of("wtd.wtd_density_matrix"), 16, 1)[is_density & ~inside_density].sum()
    expm_in_density = int((expm & inside_density).sum())

    vac_parents = parent[of("wtd.wtd_density_vacuum")]
    vac_matrix = np.zeros(n, dtype=bool)
    vac_matrix[vac_parents[vac_parents >= 0]] = True
    vac_matrix &= of("wtd.wtd_density_matrix")
    expm_in_vac_matrix = int((expm & _has_ancestor(parent, vac_matrix)).sum())

    curve = of("wtd.wtd_curve")
    curve_points = int((of("wtd.wtd_point") & _has_ancestor(parent, curve)).sum())

    tracedet = of(*(name for name in tracer.names if name.startswith("tracedet.")))
    tracedet_outer = tracedet & ~_has_ancestor(parent, tracedet)

    quad = of("stats.integrate_semiinfinite")
    quad_calls = int(quad.sum())
    integrand_calls = int((is_density & ~inside_density & _has_ancestor(parent, quad)).sum())
    quad_evals = tracer.counts.get("stats.integrate_semiinfinite", 0)
    roots = parent < 0

    def ratio(a, b):
        return float(a) / b if b else 0.0

    metrics = {
        "linalg.expm.calls": int(expm.sum()),
        "linalg.expm.s": total(expm),
        "linalg.lu_logdet.calls": int(of("linalg.lu_logdet").sum()),
        "linalg.lu_logdet.s": total(of("linalg.lu_logdet")),
        "linalg.solve_factored.s": total(of("linalg.solve_factored")),
        "linalg.lyapunov_solve.s": total(of("linalg.lyapunov_solve")),
        "model.steady_state.s": total(of("model.steady_state")),
        "wtd.wtd_curve.s": total(curve),
        "wtd.wtd_point.calls": int(of("wtd.wtd_point").sum()),
        "wtd.wtd_point.self_s": float(self_s[of("wtd.wtd_point")].sum()),
        "wtd.ms_per_point": 1e3 * ratio(total(curve), curve_points),
        "wtd.wtd_density_matrix.calls": int(of("wtd.wtd_density_matrix").sum()),
        "wtd.wtd_density_matrix.self_s": float(self_s[of("wtd.wtd_density_matrix")].sum()),
        "wtd.wtd_density_vacuum.calls": int(of("wtd.wtd_density_vacuum").sum()),
        "wtd.wtd_density_vacuum.self_s": float(self_s[of("wtd.wtd_density_vacuum")].sum()),
        "wtd.entries_per_expm": ratio(entries, expm_in_density),
        "wtd.vacuum_matrix_entries_per_expm": ratio(16 * int(vac_matrix.sum()), expm_in_vac_matrix),
        "stats.integrate_semiinfinite.calls": quad_calls,
        "stats.integrate_semiinfinite.s": total(quad),
        "stats.quad_evals": quad_evals,
        "stats.evals_per_integral": ratio(quad_evals, quad_calls),
        "stats.integrand_calls": integrand_calls,
        "stats.channel_stats.s": total(of("stats.channel_stats")),
        "stats.natd_moments.s": total(of("stats.natd_moments")),
        "stats.normalization_audit.s": total(of("stats.normalization_audit")),
        "fock.FockOracle.init_s": total(of("fock.FockOracle.__init__")),
        "fock.FockOracle.steady_state.s": total(of("fock.FockOracle.steady_state")),
        "fock.FockOracle.wtd.calls": int(of("fock.FockOracle.wtd").sum()),
        "fock.FockOracle.wtd.s": total(of("fock.FockOracle.wtd")),
        "fock.verify_tracedet.s": total(of("fock.verify_tracedet")),
        "tracedet.calls": int(tracedet_outer.sum()),
        "tracedet.s": total(tracedet_outer),
        "trace.spans": n,
        "trace.top_level_share": ratio(total(roots), compute_s),
    }
    table["_roots"] = [
        {"name": tracer.names[name_idx[i]], "start": float(start[i]), "end": float(end[i])}
        for i in np.nonzero(roots)[0][:1000]
    ]
    return metrics, table
