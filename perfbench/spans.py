"""Span recording around the program's layers, from outside the program.

The benchmark wraps public functions of each layer (class or module
attributes) with :meth:`Tracer.wrap`.  A wrapper records one span per
call in memory: span id, name, layer, start, end, parent span, op id
and one numeric attribute (rows stepped, roots simulated, search steps).
Spans are written out when the run ends.  A layer's self time is its
spans' time minus the time covered by their child spans.

Kernel calls inside forked pool workers cannot append to the parent's
span list.  A fork inherits the wrapped classes, so the wrapper adds
each worker-side kernel call to counters in an anonymous shared memory
map instead; the parent reads the counters before and after the timed
phase.  Workers started with ``spawn`` do not inherit the wrappers and
are not measured.
"""

import asyncio
import functools
import itertools
import mmap
import multiprocessing
import os
import sys
import threading
import time

import numpy as np

class Tracer:
    """In-memory spans for one process; off until :meth:`start`."""

    def __init__(self):
        self.pid = os.getpid()
        self.active = False
        self.spans = []  # (id, name, start, end, parent, op, value)
        self._ids = itertools.count()
        self._local = threading.local()
        # Worker-side kernel counters: seconds, calls, rows, enabled.
        self._shared = mmap.mmap(-1, 4 * 8)
        self.worker_kernel = np.frombuffer(self._shared, dtype=np.float64)
        self._worker_lock = multiprocessing.Lock()

    def start(self) -> None:
        self.spans.clear()
        self.active = True
        self.worker_kernel[3] = 1.0

    def stop(self) -> None:
        self.active = False
        self.worker_kernel[3] = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, measure=None, worker_kernel=False):
        """A wrapper recording one span per call of ``fn``.

        ``measure(args, kwargs, result)`` gives the span's numeric
        attribute.  ``worker_kernel`` routes calls made in forked
        children to the shared kernel counters.
        """
        if asyncio.iscoroutinefunction(fn):
            return self._wrap_async(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                if (worker_kernel and self.worker_kernel[3]
                        and not getattr(self._local, "in_kernel", False)):
                    return self._worker_call(fn, args, kwargs)
                return fn(*args, **kwargs)
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent, op = stack[-1] if stack else (-1, None)
            sid = next(self._ids)
            stack.append((sid, sid if op is None else op))
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = measure(args, kwargs, result) if measure else None
                self.spans.append((sid, name, start, end, parent,
                                   sid if op is None else op, value))

        return wrapper

    def _wrap_async(self, name: str, fn):
        # Coroutines interleave on one thread, so their spans are roots.
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not self.active:
                return await fn(*args, **kwargs)
            sid = next(self._ids)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.spans.append((sid, name, start, time.perf_counter(),
                                   -1, sid, None))

        return wrapper

    def _worker_call(self, fn, args, kwargs):
        # Only the outermost kernel call counts: a fused step_batch
        # calls its lead process's fused_step_batch.
        self._local.in_kernel = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self._local.in_kernel = False
        elapsed = time.perf_counter() - start
        with self._worker_lock:
            self.worker_kernel[0] += elapsed
            self.worker_kernel[1] += 1
            self.worker_kernel[2] += len(result)
        return result


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------

def _patch_function(module_prefix: str, original, wrapper) -> None:
    """Replace ``original`` wherever a loaded module imported it."""
    for name, module in list(sys.modules.items()):
        if not name.startswith(module_prefix) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _patch_method(cls, attr: str, tracer: Tracer, name: str, **options):
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(
            tracer.wrap(name, raw.__func__, **options)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, **options))


def _rows(args, kwargs, result):
    return len(result)


def _roots(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs.get("n_roots", 0)


def _search_steps(args, kwargs, result):
    """Search steps of a greedy call; -1 marks a cache hit."""
    return -1 if result.from_cache else result.search_steps


def install(tracer: Tracer, serve: bool = False) -> None:
    """Wrap every layer the benchmark reports (see README.md)."""
    import repro.processes  # noqa: F401  (loads every process module)
    from repro.core import balanced, bootstrap, forest, greedy, pool
    from repro.core import value_functions
    from repro.engine.cache import PlanCache
    from repro.engine.service import DurabilityEngine

    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro.processes") or module is None:
            continue
        for cls in list(vars(module).values()):
            if not isinstance(cls, type) or cls.__module__ != module_name:
                continue
            for attr in ("step_batch", "fused_step_batch"):
                if attr in cls.__dict__:
                    _patch_method(cls, attr, tracer, f"kernel.{attr}",
                                  measure=_rows, worker_kernel=True)

    original = value_functions.batch_values
    _patch_function("repro.", original,
                    tracer.wrap("value.batch_values", original))
    _patch_method(forest.VectorizedForestRunner, "run_cohort", tracer,
                  "forest.run_cohort", measure=_roots)
    for fn in (bootstrap.bootstrap_variance,
               bootstrap.bootstrap_curve_variances):
        _patch_function("repro.", fn,
                        tracer.wrap(f"bootstrap.{fn.__name__}", fn))
    original = greedy.adaptive_greedy_partition
    _patch_function("repro.", original,
                    tracer.wrap("plan.greedy", original,
                                measure=_search_steps))
    original = balanced.balanced_growth_partition
    _patch_function("repro.", original,
                    tracer.wrap("plan.balanced", original))
    _patch_method(PlanCache, "get", tracer, "cache.get",
                  measure=lambda a, k, r: 1 if r is not None else 0)
    for attr in ("answer", "answer_batch", "durability_curve"):
        _patch_method(DurabilityEngine, attr, tracer, f"engine.{attr}")
    _patch_method(pool.WorkerPool, "run_tasks", tracer, "pool.run_tasks")
    _patch_method(pool._TaskStream, "collect", tracer, "pool.collect")
    if serve:
        from repro.serve import protocol
        from repro.serve.admission import AdmissionController
        from repro.serve.server import DurabilityServer
        _patch_method(AdmissionController, "admit", tracer, "serve.admit")
        _patch_method(DurabilityServer, "_dispatch", tracer,
                      "serve.request")
        for fn in (protocol.encode_estimate, protocol.dumps_canonical):
            _patch_function("repro.", fn,
                            tracer.wrap(f"serve.{fn.__name__}", fn))


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------

def self_times(spans) -> list:
    """Per span: duration minus the durations of its direct children.

    Children run on their parent's thread inside its interval, so
    their durations never overlap one another.
    """
    child_time = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    return [end - start - child_time.get(sid, 0.0)
            for sid, _, start, end, _, _, _ in spans]


def columns(spans) -> dict:
    """Spans as JSON-ready columns (compact for long runs)."""
    names = sorted({span[1] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    origin = min((span[2] for span in spans), default=0.0)
    return {
        "names": names,
        "id": [span[0] for span in spans],
        "name": [index[span[1]] for span in spans],
        "start_s": [round(span[2] - origin, 7) for span in spans],
        "end_s": [round(span[3] - origin, 7) for span in spans],
        "parent": [span[4] for span in spans],
        "op": [span[5] for span in spans],
        "value": [span[6] for span in spans],
    }


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(spans, worker_kernel) -> dict:
    """The per-layer metrics of one traced phase.

    A layer's span names start with ``"<layer>."``.  Shares divide a
    layer's self time by the busy time of the process hosting the
    engine: the summed duration of its root op spans (``harness.op``
    in-process, ``serve.request`` in the server).  ``worker_kernel`` is
    the (seconds, calls, rows) delta of the forked workers' counters;
    kernel calls, rows and ``kernel.total_s`` count both sides,
    ``kernel.self_s`` is the parent's and ``kernel.worker_s`` the
    workers'.  A plan search is on the request path when it runs
    inside a wrapped entry point; the server's idle-time plan warmer
    calls it directly, off the path.
    """
    selfs = self_times(spans)
    layer_of = {span[0]: span[1].split(".", 1)[0] for span in spans}
    self_s = {}
    for span, own in zip(spans, selfs):
        layer = layer_of[span[0]]
        self_s[layer] = self_s.get(layer, 0.0) + own
    busy = sum(end - start for _, name, start, end, _, _, _ in spans
               if name in ("harness.op", "serve.request")) or 1.0

    def named(prefix):
        return [span for span in spans if span[1].startswith(prefix)]

    outer_kernel = [span for span in named("kernel.")
                    if layer_of.get(span[4]) != "kernel"]
    cohorts = named("forest.")
    lookups = named("cache.get")
    cache_hit_under = {span[4] for span in lookups if span[6]}
    searches = [span for span in named("plan.")
                if (span[6] is not None and span[6] >= 0)
                or (span[1] == "plan.balanced"
                    and span[0] not in cache_hit_under)]
    calls = len(outer_kernel) + int(worker_kernel[1])
    rows = sum(span[6] for span in outer_kernel) + float(worker_kernel[2])
    on_path = [span for span in searches if span[5] != span[0]]
    encode_self = sum(own for span, own in zip(spans, selfs)
                      if span[1] in ("serve.encode_estimate",
                                     "serve.dumps_canonical"))
    metrics = {
        "kernel.calls": calls,
        "kernel.rows_per_call": rows / calls if calls else 0.0,
        "kernel.worker_s": float(worker_kernel[0]),
        "kernel.total_s": (self_s.get("kernel", 0.0)
                           + float(worker_kernel[0])),
        "value.calls": len(named("value.")),
        "forest.cohorts": len(cohorts),
        "forest.roots_per_cohort": (sum(s[6] for s in cohorts)
                                    / len(cohorts) if cohorts else 0.0),
        "bootstrap.calls": len(named("bootstrap.")),
        "plan.searches": len(searches),
        "plan.searches_on_path": len(on_path),
        "plan.search_steps": sum(s[6] for s in searches
                                 if s[6] is not None),
        "cache.lookups": len(lookups),
        "cache.hit_frac": (sum(s[6] for s in lookups) / len(lookups)
                           if lookups else 0.0),
        "pool.tasks": len(named("pool.collect")),
        "pool.wait_s": self_s.get("pool", 0.0),
        "pool.wait_share": self_s.get("pool", 0.0) / busy,
        "serve.admit_wait_ms_p50": 1000.0 * _p50(
            [end - start for _, _, start, end, _, _, _
             in named("serve.admit")]),
        "serve.encode_self_s": encode_self,
    }
    for layer in ("kernel", "value", "forest", "bootstrap", "plan",
                  "engine"):
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}.share"] = self_s.get(layer, 0.0) / busy
    metrics["busy_s"] = busy
    return metrics
