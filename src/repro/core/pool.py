"""Persistent worker pool (Section 3.1, "Parallel Computations" —
scaled to every backend).

Root trees, SRS paths, fleet members and plan-search trials are all
independent, so every sampler in the library parallelizes by *sharding
work over workers*.  A throwaway ``multiprocessing.Pool`` of scalar
``ForestRunner`` shards would pay process startup on every call, pickle
every shard's closure, and keep the vectorized / fused wins off every
second core.  This module is a persistent execution layer instead:

* :class:`WorkerPool` — long-lived workers.  ``"fork"`` / ``"spawn"``
  start worker *processes*; ``"thread"`` starts worker *threads* that
  share the parent address space (no process startup, no pickling, no
  shared-memory segments — the NumPy hot kernels release the GIL, so
  threads scale on real simulation work and are the automatic fallback
  where fork is unavailable); ``"inline"`` runs the identical code path
  in the caller.  A *work* — query, partition, fleet, backend — is
  registered **once** (one pickle per process worker, a shared
  reference per thread worker); subsequent rounds send only tiny *work
  descriptors* (task id, root budget, derived seed).  There are four
  kinds of work: :class:`ForestWork` (splitting forests),
  :class:`CurveWork` (SRS running-maxima passes — a point answer is a
  one-level grid), :class:`FleetWork` (fused fleet slices) and
  :class:`PlanSearchWork`.
* :class:`CounterBlock` — preallocated per-(work, worker) counter
  arrays in the :class:`~repro.core.records.Cohort` row layout: forest
  workers slice-assign each cohort in, and the parent folds the rows
  back through the same ``ForestAggregate.extend`` as in-process runs.
  Process modes back them with ``multiprocessing.shared_memory``
  (counter matrices cross the process boundary as shared bytes, never
  as pickles); thread and inline modes use plain local buffers with
  the identical layout.
* :class:`_TaskStream` / :meth:`WorkerPool.stream` — task submission.
  ``submit`` is non-blocking and ``collect`` returns results in
  submission order, so a caller can consume results while later tasks
  still run (fused fleet passes stream member slices this way).
  :meth:`WorkerPool.run_tasks` (submit everything, collect everything)
  is the per-round barrier every pooled sampler round goes through.
* :class:`PooledForestRunner` — a drop-in implementation of the
  ``accumulate`` contract shared by :class:`~repro.core.forest.
  ForestRunner` and :class:`~repro.core.forest.VectorizedForestRunner`,
  so the g-MLSS / s-MLSS samplers (point *and* curve passes) run pooled
  without changing a line of their stopping logic.

Determinism
-----------

Work decomposes into tasks of a fixed size (``roots_per_task`` roots,
``members_per_task`` fleet members) whose seeds derive from the *task
index* via :func:`derive_task_seed` — never from the worker count or
which worker ran them.  Task results merge in task order.  Consequently
pooled results are **byte-identical across ``n_workers`` and pool
modes** for a fixed seed: ``n_workers`` changes how fast the answer
arrives, not what it is.
(Pooled and single-pass sequential runs draw different stream layouts,
so they agree in distribution, not bytes — exactly like the
scalar-vs-vectorized backends.)

Budgets
-------

``max_roots`` is exact.  ``max_steps`` is *strict*: the final round's
tasks are trimmed against the remaining budget and each task carries a
per-task step cap that its worker enforces by never starting a root
tree whose worst-case cost no longer fits (see
:func:`_worst_case_root_cost`).

Cost accounting is unchanged throughout: workers count one invocation
of ``g`` per path per step and the parent sums their counters.

Fault tolerance
---------------

A dead worker no longer necessarily aborts the run.  The parent's
result loop doubles as a supervisor: when a worker process dies (or,
with ``task_timeout_seconds`` set, overruns its deadline and is
terminated), the pool respawns it in the same mode, re-registers every
live work descriptor on the replacement (fresh shared-memory counter
blocks; the dead worker's segments are unlinked, never leaked), and
re-submits only the tasks that were in flight on that worker.  Because
task seeds are structural (:func:`derive_task_seed` over the task
*index*), a re-executed task is **byte-identical** to the original, so
recovery preserves every determinism gate.  Process workers return
results over *per-worker pipes* written synchronously in the worker —
a crash, even mid-send, can wedge only the dying worker's own channel
(discarded at respawn); a shared ``mp.Queue`` would let one SIGKILL
orphan the queue's write lock and hang every surviving worker.
``max_worker_restarts``
bounds respawns per burst of work and ``task_retry_limit`` bounds
re-submissions of any single task; once either budget is exhausted the
pool falls back to the historical behavior — tear everything down
(unlinking all segments) and raise a ``RuntimeError``, never hang.
The default budget is 0, i.e. supervision is opt-in;
:class:`~repro.engine.policy.ParallelPolicy` turns it on for
engine-owned pools.
"""

from __future__ import annotations

import hashlib
import os
import queue as queue_module
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context, shared_memory
from multiprocessing.connection import wait as _connection_wait
from typing import Optional, Sequence

import numpy as np

from .forest import validate_plan
from .levels import normalize_ratios
from .records import Cohort

#: Pool execution modes: process start methods (``"fork"``/``"spawn"``),
#: the shared-address-space thread backend (``"thread"``) and the
#: in-caller fallback used when ``n_workers == 1`` (or on request).
POOL_MODES = ("fork", "spawn", "thread", "inline")

#: Optional fault-injection hook (see :mod:`repro.faults`): a callable
#: ``hook(site, **context)`` or ``None``.  Sites consulted here:
#: ``"pool.dispatch"`` in the parent right after a task is handed to a
#: worker (context: ``pool``, ``worker_id``, ``task_id``) — where a
#: :class:`~repro.faults.FaultPlan` kills workers at a point where the
#: victim is provably between tasks, so queues stay uncorrupted — and
#: ``"pool.task"`` in the executing worker before a task runs (thread
#: and inline modes always; fork workers via inheritance).
fault_hook = None

_SEED_MOD = 2 ** 31

#: How many tasks each stopping-rule round is cut into.  A *constant*
#: (not derived from ``n_workers``), so the task decomposition — and
#: with it every pooled result — is identical however many workers
#: happen to drain the queue.
DEFAULT_TASKS_PER_ROUND = 8
DEFAULT_ROOTS_PER_TASK = 256
DEFAULT_MEMBERS_PER_TASK = 32


def derive_task_seed(seed: Optional[int], index: int,
                     salt: str = "task") -> Optional[int]:
    """Deterministic per-task seed from the run seed and task *index*.

    Structural: depends only on what the task is (its position in the
    work's task sequence), never on worker count or scheduling, which
    is what makes pooled results invariant under ``n_workers``.
    ``None`` stays ``None`` (fresh entropy per task).
    """
    if seed is None:
        return None
    digest = hashlib.blake2b(
        repr((int(seed), salt, int(index))).encode("utf-8"),
        digest_size=8).digest()
    return int.from_bytes(digest, "big") % _SEED_MOD


def cut_tasks(cohort: int, roots_per_task: int, seed: Optional[int],
              task_index: int, step_budget: Optional[int] = None) -> tuple:
    """Cut one round into fixed-size ``(n, seed[, cap])`` tasks.

    The single home of the task decomposition every pooled pass uses
    (forest rounds and SRS running-maxima rounds): task sizes
    depend only on ``roots_per_task`` and seeds only on the running
    ``task_index``, which is what the byte-determinism guarantee rests
    on.  With ``step_budget``, each task additionally carries its share
    of the remaining step budget (proportional to its root count) as a
    hard per-task cap — the worker stops launching roots once the cap
    cannot cover another worst-case tree, so the round can never
    overshoot ``step_budget``.  Returns ``(tasks, next_task_index)``.
    """
    if roots_per_task < 1:
        raise ValueError(
            f"roots_per_task must be >= 1, got {roots_per_task}")
    tasks = []
    remaining = cohort
    while remaining > 0:
        n_roots = min(remaining, roots_per_task)
        task_seed = derive_task_seed(seed, task_index)
        if step_budget is None:
            tasks.append((n_roots, task_seed))
        else:
            tasks.append((n_roots, task_seed,
                          step_budget * n_roots // cohort))
        task_index += 1
        remaining -= n_roots
    return tasks, task_index


# ----------------------------------------------------------------------
# Work descriptors (registered once, pickled once per worker)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ForestWork:
    """A splitting-forest work unit: tasks are ``(n_roots, seed)`` or
    ``(n_roots, seed, step_cap)``.

    Results come back through the shared :class:`CounterBlock` as
    per-root counter rows; ``capacity`` bounds a single task's roots
    (and sizes the block).  A ``step_cap`` makes the task stop
    launching roots once the cap cannot cover another worst-case tree,
    so capped tasks never exceed their budget share.
    """

    query: object
    partition: object
    ratios: tuple
    backend: str
    capacity: int


@dataclass(frozen=True)
class CurveWork:
    """An SRS running-maxima work unit: tasks are ``(n_paths, seed)``;
    results are ``(level_counts, n_paths, steps)``.  Point answers
    register the one-level grid ``(TARGET_VALUE,)``."""

    query: object
    levels: tuple
    backend: str


@dataclass(frozen=True)
class FleetWork:
    """A fused-fleet work unit: tasks are member slices
    ``(lo, hi, seed)``; each task screens its slice to completion
    through one :class:`~repro.processes.base.FusedBatch` frontier.

    ``mode`` selects the pass: ``"curves"`` (SRS over per-member
    threshold *grids*, running maxima per owner row; one-threshold
    screens use one-level grids) or ``"mlss"`` (fused splitting forest
    with a shared normalized partition; ``adaptive`` picks its root
    allocation).
    """

    mode: str
    processes: tuple
    z: object
    horizon: int
    betas: tuple = ()
    grids: tuple = ()
    partition: object = None
    ratio: object = 3
    quality: object = None
    max_steps: Optional[int] = None
    max_roots: Optional[int] = None
    batch_roots: int = 500
    adaptive: bool = True
    max_round_roots: int = 8192
    bootstrap_rounds: int = 200


@dataclass(frozen=True)
class PlanSearchWork:
    """A plan-search work unit (greedy trials and balanced pilots).

    Tasks are ``("trial", boundaries, seed)`` — run one fixed-budget
    :func:`~repro.core.optimizer.evaluate_partition` trial of the plan
    with those interior boundaries and return the
    :class:`~repro.core.optimizer.PlanTrial` — or
    ``("pilot", n_paths, seed)`` — run one chunk of the balanced-growth
    SRS pilot and return its (unsorted) per-path maxima.  Trial and
    pilot seeds are structural (derived from the trial/chunk index), so
    pool-sharded plan search returns byte-identical plans to the
    parent-only search.
    """

    query: object
    ratio: object = 3
    trial_steps: int = 20000
    backend: str = "scalar"


# ----------------------------------------------------------------------
# Shared counter blocks
# ----------------------------------------------------------------------

class CounterBlock:
    """Preallocated per-root counter arrays over a raw buffer.

    Layout: the :class:`~repro.core.records.Cohort` fields in order,
    ``capacity`` rows each (all ``int64``).  The buffer may be a
    ``multiprocessing.shared_memory`` view (cross-process) or a plain
    local array (thread and inline modes); either way workers *write
    cohorts* and the parent *reads rows*, so counters never pass
    through pickle.
    """

    __slots__ = ("capacity", "num_levels", "landings", "skips",
                 "crossings", "hits", "max_levels", "steps")

    def __init__(self, capacity: int, num_levels: int, buffer):
        self.capacity = capacity
        self.num_levels = num_levels
        offset = 0
        for name, shape in zip(Cohort._fields,
                               Cohort.shapes(capacity, num_levels)):
            view = np.frombuffer(buffer, dtype=np.int64, offset=offset,
                                 count=int(np.prod(shape)))
            setattr(self, name, view.reshape(shape))
            offset += view.nbytes

    @staticmethod
    def nbytes(capacity: int, num_levels: int) -> int:
        return 8 * capacity * (3 * num_levels + 3)

    @classmethod
    def local(cls, capacity: int, num_levels: int) -> "CounterBlock":
        """An in-process block (thread/inline modes — same layout, no shm)."""
        return cls(capacity, num_levels,
                   np.zeros(cls.nbytes(capacity, num_levels),
                            dtype=np.uint8))

    def write(self, start: int, cohort: Cohort) -> int:
        """Slice-assign ``cohort`` into rows ``start..``; returns the
        row after the last one written."""
        stop = start + cohort.n_roots
        if stop > self.capacity:
            raise ValueError(
                f"{stop} rows exceed the block capacity {self.capacity}")
        for name, rows in zip(Cohort._fields, cohort):
            getattr(self, name)[start:stop] = rows
        return stop

    def read(self, n: int) -> Cohort:
        """Copies of the first ``n`` rows (the block is reused next task)."""
        return Cohort(*(getattr(self, name)[:n].copy()
                        for name in Cohort._fields))

    def release(self) -> None:
        """Drop the buffer views (required before closing shared memory:
        live NumPy views pin the mapping open)."""
        for name in Cohort._fields:
            setattr(self, name, None)


# ----------------------------------------------------------------------
# Task execution (shared verbatim by workers and inline mode)
# ----------------------------------------------------------------------

def _execute(spec, payload, block: Optional[CounterBlock]):
    """Run one task of ``spec``; the single code path for every mode."""
    if fault_hook is not None:
        fault_hook("pool.task", spec=spec, payload=payload)
    if isinstance(spec, ForestWork):
        return _run_forest_task(spec, payload, block)
    if isinstance(spec, CurveWork):
        return _run_curve_task(spec, payload)
    if isinstance(spec, FleetWork):
        return _run_fleet_task(spec, payload)
    if isinstance(spec, PlanSearchWork):
        return _run_plan_task(spec, payload)
    raise TypeError(f"unknown work descriptor {type(spec).__name__}")


def _worst_case_root_cost(spec: ForestWork) -> int:
    """An upper bound on one root tree's step cost under ``spec``.

    A tree has at most ``prod_{k<=i} r_k`` path segments at level ``i``
    and every segment runs at most ``horizon`` steps, so the tree costs
    at most ``horizon * sum_i prod_{k<=i} r_k``.  Deliberately
    conservative: it is the guarantee behind the strict ``max_steps``
    contract (a capped task never *starts* a root it might not afford).
    """
    total = 0
    product = 1
    for ratio in spec.ratios:
        product *= ratio
        total += product
    return spec.query.horizon * total


def _run_forest_task(spec: ForestWork, payload, block: CounterBlock):
    if len(payload) == 2:
        (n_roots, seed), step_cap = payload, None
    else:
        n_roots, seed, step_cap = payload
    from .smlss import make_forest_runner  # circular-import guard
    runner = make_forest_runner(spec.backend, spec.query, spec.partition,
                                spec.ratios, seed)
    if step_cap is None:
        return block.write(0, runner.run_cohort(n_roots))
    # Strict budget: only start roots whose worst-case tree cost still
    # fits under the cap.  The chunk sequence depends only on the
    # payload (and the per-chunk simulation itself), so capped tasks
    # stay byte-identical across workers and pool modes.
    worst = _worst_case_root_cost(spec)
    rows = used = 0
    remaining = n_roots
    while remaining > 0 and used + worst <= step_cap:
        affordable = max(int((step_cap - used) // worst), 1)
        chunk = runner.run_cohort(min(remaining, affordable))
        rows = block.write(rows, chunk)
        used += int(chunk.steps.sum())
        remaining -= chunk.n_roots
    return rows


def _run_curve_task(spec: CurveWork, payload):
    n_paths, seed = payload
    from .srs import SRSSampler  # circular-import guard
    curve = SRSSampler(batch_roots=n_paths, backend=spec.backend).run_curve(
        spec.query, spec.levels, max_roots=n_paths, seed=seed)
    counts = tuple(estimate.hits for estimate in curve.estimates)
    return (counts, curve.n_roots, curve.steps)


def _run_fleet_task(spec: FleetWork, payload):
    lo, hi, seed = payload
    from ..processes.base import FusedBatch  # circular-import guard
    from . import fleet  # circular-import guard
    fused = FusedBatch(spec.processes[lo:hi])
    if spec.mode == "curves":
        counts, n_paths, steps, rounds = fleet._curve_members(
            fused, spec.z, spec.grids[lo:hi], spec.horizon, spec.quality,
            spec.max_steps, spec.max_roots, spec.batch_roots,
            spec.max_round_roots, np.random.default_rng(seed))
        return ([c.tolist() for c in counts], n_paths.tolist(),
                steps.tolist(), rounds)
    if spec.mode == "mlss":
        rows = fleet._mlss_members(
            fused, spec.z, spec.betas[lo:hi], spec.partition, spec.ratio,
            spec.horizon, spec.quality, spec.max_steps, spec.max_roots,
            spec.batch_roots, spec.bootstrap_rounds, seed,
            adaptive=spec.adaptive,
            max_round_roots=spec.max_round_roots)
        return rows
    raise ValueError(f"unknown fleet mode {spec.mode!r}")


def _run_plan_task(spec: PlanSearchWork, payload):
    kind = payload[0]
    if kind == "trial":
        _, boundaries, seed = payload
        from .levels import LevelPartition  # local: keep import cheap
        from .optimizer import evaluate_partition  # circular-import guard
        return evaluate_partition(
            spec.query, LevelPartition(boundaries), ratio=spec.ratio,
            trial_steps=spec.trial_steps, seed=seed, backend=spec.backend)
    if kind == "pilot":
        _, n_paths, seed = payload
        from .balanced import pilot_chunk_max_values  # circular-import guard
        return pilot_chunk_max_values(spec.query, n_paths, seed=seed,
                                      backend=spec.backend)
    raise ValueError(f"unknown plan-search task kind {kind!r}")


def _block_shape(spec) -> Optional[tuple]:
    """(capacity, num_levels) when the work returns counters via a block."""
    if isinstance(spec, ForestWork):
        return (spec.capacity, spec.partition.num_levels)
    return None


# ----------------------------------------------------------------------
# Worker main loop (processes and threads alike)
# ----------------------------------------------------------------------

def _attach_block(name: str):
    """Attach to a parent-owned shared block without tracker side effects.

    The resource tracker's cache is a name set shared by the whole
    process tree; the parent registers a block once at creation and
    unregisters it at ``unlink``.  A worker's attach would *re*-register
    the same name, and because tracker messages from different
    processes are unordered, that registration can land after the
    parent's unregister — leaving a phantom entry that the tracker
    "cleans up" (with a warning) at shutdown.  Workers therefore attach
    with registration suppressed (the documented pre-3.13 equivalent of
    ``SharedMemory(..., track=False)``).
    """
    from multiprocessing import resource_tracker
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _worker_main(worker_id: int, task_queue, result_channel) -> None:
    """Long-lived worker: register works once, run tasks forever.

    The same loop serves process workers and thread workers.  Messages:
    ``("register", handle, spec, block_ref)`` — ``block_ref`` is a
    shared-memory *name* for process workers, the :class:`CounterBlock`
    itself for thread workers (shared address space), or ``None`` —
    ``("run", handle, task_id, payload)``, ``("unregister", handle)``
    and ``("stop",)``.  Results: ``(worker_id, task_id, "ok", meta)``
    or ``(worker_id, task_id, "error", traceback_text)``.

    ``result_channel`` is this worker's *private* pipe connection for
    process workers (sent synchronously in this thread — no feeder
    thread, no lock shared with other workers, so a worker killed at
    any moment can wedge at most its own channel, which the supervisor
    discards wholesale) and the pool-shared ``queue.Queue`` for thread
    workers (threads cannot be killed, so sharing stays safe).
    """
    emit = result_channel.put if hasattr(result_channel, "put") \
        else result_channel.send
    specs: dict = {}
    blocks: dict = {}
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "register":
            _, handle, spec, block_ref = message
            specs[handle] = spec
            if isinstance(block_ref, CounterBlock):
                blocks[handle] = (None, block_ref)
            elif block_ref is not None:
                shm = _attach_block(block_ref)
                capacity, num_levels = _block_shape(spec)
                blocks[handle] = (shm, CounterBlock(capacity, num_levels,
                                                    shm.buf))
        elif kind == "unregister":
            _, handle = message
            specs.pop(handle, None)
            attached = blocks.pop(handle, None)
            if attached is not None and attached[0] is not None:
                attached[1].release()
                attached[0].close()
        elif kind == "run":
            _, handle, task_id, payload = message
            try:
                spec = specs[handle]
                attached = blocks.get(handle)
                block = attached[1] if attached is not None else None
                meta = _execute(spec, payload, block)
                emit((worker_id, task_id, "ok", meta))
            except Exception:
                emit((worker_id, task_id, "error",
                      traceback.format_exc()))
    for shm, block in blocks.values():
        if shm is not None:
            block.release()
            shm.close()


# ----------------------------------------------------------------------
# Streams: ordered task submission
# ----------------------------------------------------------------------

class _TaskStream:
    """Ordered, pipelined task submission for one registered work.

    ``submit`` enqueues a payload without blocking and returns its
    sequence number; ``collect`` blocks until that task's (finalized)
    result is available, draining and routing the pool's shared result
    queue as needed.  Several streams may be open on one pool at once —
    every in-flight task carries a pool-unique id, so results are
    routed to their owning stream whatever order workers finish in
    (this is also what makes concurrent ``run_tasks`` calls from
    several threads safe).  ``close`` cancels undispatched tasks and
    drops the results of tasks still running.

    On the inline pool, submitted tasks execute lazily inside
    ``collect``.  Each worker holds at most one outstanding task.
    """

    __slots__ = ("pool", "handle", "_next_seq", "_pending", "_live",
                 "_results", "_retries", "_closed")

    def __init__(self, pool: "WorkerPool", handle: int):
        self.pool = pool
        self.handle = handle
        self._next_seq = 0
        self._pending: dict = {}    # seq -> payload, not yet dispatched
        self._live: set = set()     # seqs running on a worker
        self._results: dict = {}    # seq -> finalized result
        self._retries: dict = {}    # seq -> prior submission count
        self._closed = False

    def submit(self, payload) -> int:
        """Queue one task; returns its sequence number (never blocks)."""
        pool = self.pool
        with pool._lock:
            if self._closed:
                raise RuntimeError("the stream is closed")
            if pool._closed:
                raise RuntimeError("the pool is closed")
            seq = self._next_seq
            self._next_seq += 1
            self._pending[seq] = payload
            if pool.mode != "inline":
                pool._dispatch.append((self, seq))
                pool._pump()
            return seq

    def collect(self, seq: int):
        """Block until task ``seq``'s result is ready and return it."""
        pool = self.pool
        with pool._lock:
            while True:
                if seq in self._results:
                    return self._results.pop(seq)
                if self._closed:
                    raise RuntimeError("the stream is closed")
                if pool._closed:
                    raise RuntimeError("the pool is closed")
                if seq not in self._pending and seq not in self._live:
                    raise KeyError(f"task {seq} was never submitted")
                if pool.mode == "inline":
                    payload = self._pending.pop(seq)
                    spec = pool._specs[self.handle]
                    block = pool._inline_blocks.get(self.handle)
                    meta = _execute(spec, payload, block)
                    return pool._finalize(spec, block, meta)
                pool._pump()
                pool._route_one()

    def close(self) -> None:
        """Cancel pending tasks and drop any in-flight results."""
        pool = self.pool
        with pool._lock:
            if self._closed:
                return
            self._closed = True
            self._pending.clear()
            self._results.clear()
            self._retries.clear()


class _InflightTask:
    """Everything needed to route — or deterministically re-run — one
    dispatched task: its stream and sequence number (routing), the
    payload and prior retry count (recovery), the worker it runs on
    (failure attribution) and its dispatch time (deadline checks)."""

    __slots__ = ("stream", "seq", "payload", "worker_id", "retries",
                 "started_at")

    def __init__(self, stream, seq, payload, worker_id, retries):
        self.stream = stream
        self.seq = seq
        self.payload = payload
        self.worker_id = worker_id
        self.retries = retries
        self.started_at = time.monotonic()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------

class WorkerPool:
    """A persistent pool of simulation workers.

    Parameters
    ----------
    n_workers:
        Worker count; ``None`` means ``os.cpu_count()``.
        ``n_workers == 1`` always runs inline (no workers) — the
        documented fallback, byte-identical to the parallel modes.
    pool:
        ``"fork"`` (default; cheap startup, Linux/macOS), ``"spawn"``
        (portable, slower startup), ``"thread"`` (shared address
        space: no startup or pickle costs, scales because the NumPy
        simulation kernels release the GIL; also the automatic
        fallback when fork is unavailable) or ``"inline"``.
    max_worker_restarts:
        How many dead (or deadline-overrunning) workers the supervisor
        may respawn before falling back to the abort path.  The budget
        replenishes whenever the pool goes quiescent (no tasks queued
        or in flight), so it bounds restarts per *burst* of work, not
        per pool lifetime.  ``0`` (the default) disables supervision:
        any dead worker aborts the run, exactly the historical
        behavior.
    task_retry_limit:
        How many times any single task may be re-submitted after its
        worker died; beyond it the run aborts even when restart budget
        remains (a task that kills every worker it lands on is a
        poison pill, not a crash).
    task_timeout_seconds:
        Optional per-task deadline.  A process worker whose current
        task overruns it is terminated and handled exactly like a
        crashed worker (respawn + deterministic retry, budgets
        permitting).  ``None`` disables the deadline; thread workers
        cannot be terminated, so the deadline is process-mode only.

    The pool is content-addressed, not closure-addressed: callers
    :meth:`register` a work descriptor once (one pickle per process
    worker, one counter block per worker for forest works), then run
    tasks through :meth:`run_tasks` (submit all, collect all) or a
    pipelined :meth:`stream`.  Results always return in task order,
    whatever order workers finish in, so merged counters are
    deterministic.  In-flight tasks carry pool-unique ids, so several
    streams — including concurrent ``run_tasks`` calls from different
    threads — share the workers without swapping results.

    A worker death during a run is survivable: with a restart budget
    (``max_worker_restarts > 0``) the supervisor respawns the worker
    and deterministically re-runs only its in-flight tasks — see the
    module docstring's *Fault tolerance* section.  Once budgets are
    exhausted (or by default), the failure aborts the run with a
    ``RuntimeError``, never a hang.

    Use as a context manager, or call :meth:`close`; an unclosed pool
    cleans up on garbage collection as a last resort.  ``close`` (and
    the abort path after a worker failure) unlinks every shared counter
    block even when workers died mid-round, so abnormal teardown leaks
    no shared-memory segments.
    """

    def __init__(self, n_workers: Optional[int] = None,
                 pool: str = "fork", max_worker_restarts: int = 0,
                 task_retry_limit: int = 1,
                 task_timeout_seconds: Optional[float] = None):
        if pool not in POOL_MODES:
            raise ValueError(
                f"unknown pool mode {pool!r}; choose from {POOL_MODES}")
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_worker_restarts < 0:
            raise ValueError(f"max_worker_restarts must be >= 0, got "
                             f"{max_worker_restarts}")
        if task_retry_limit < 0:
            raise ValueError(f"task_retry_limit must be >= 0, got "
                             f"{task_retry_limit}")
        if task_timeout_seconds is not None and task_timeout_seconds <= 0:
            raise ValueError(f"task_timeout_seconds must be > 0, got "
                             f"{task_timeout_seconds}")
        self.n_workers = n_workers
        self.max_worker_restarts = max_worker_restarts
        self.task_retry_limit = task_retry_limit
        self.task_timeout_seconds = task_timeout_seconds
        #: Lifetime supervision counters (never reset; observability).
        self.worker_restarts = 0
        self.tasks_recovered = 0
        self._restarts_used = 0
        mode = "inline" if (pool == "inline" or n_workers == 1) else pool
        if mode == "fork" and "fork" not in get_all_start_methods():
            # Platforms without fork (Windows, some macOS setups) get
            # the fast shared-address-space default instead of paying
            # spawn startup per pool.
            mode = "thread"
        self.mode = mode
        self._specs: dict = {}
        self._next_handle = 0
        self._closed = False
        # One pool may be shared by several threads (the engine keeps a
        # persistent pool across calls, and engines are documented as
        # multi-thread drivable).  All scheduler state — the dispatch
        # queue, the idle-worker list, the in-flight routing table and
        # every stream's bookkeeping — is guarded by this lock; results
        # are routed to their submitting stream by task id, so
        # concurrent streams never swap results.
        self._lock = threading.RLock()
        self._inline_blocks: dict = {}
        self._blocks: dict = {}
        self._task_queues: list = []
        self._workers: list = []
        # Result transport.  Thread workers share one ``queue.Queue``
        # (threads cannot die mid-send).  Process workers each get a
        # *private* pipe: ``mp.Queue.put`` hands the payload to a
        # feeder thread that writes later while holding a lock shared
        # by every worker, so a SIGKILL landing mid-flush would orphan
        # the lock and wedge all surviving workers' results.  With one
        # pipe per worker (written synchronously, no feeder, no shared
        # lock) a crash can corrupt at most its own channel, which the
        # supervisor discards wholesale at respawn.
        self._result_queue = None
        self._result_readers: list = []
        self._result_writers: list = []
        # Scheduler state: which workers are free, which submitted
        # tasks await a worker, and which task id runs where.
        self._idle: deque = deque()
        self._dispatch: deque = deque()   # (stream, seq) awaiting dispatch
        self._inflight: dict = {}         # task id -> _InflightTask
        self._next_task_id = 0
        if self.mode == "thread":
            self._result_queue = queue_module.Queue()
        if self.mode != "inline":
            for worker_id in range(self.n_workers):
                task_queue, worker, reader, writer = \
                    self._spawn_worker(worker_id)
                self._task_queues.append(task_queue)
                self._workers.append(worker)
                self._result_readers.append(reader)
                self._result_writers.append(writer)
            self._idle.extend(range(self.n_workers))

    def _spawn_worker(self, worker_id: int) -> tuple:
        """A started worker, its fresh task queue and result channel.

        Returns ``(task_queue, worker, reader, writer)``; the pipe ends
        are ``None`` for thread workers (they share the pool queue).
        The parent keeps the writer end open so the reader never turns
        EOF-readable: dead workers are found by the liveness sweep, not
        by racing pipe state.
        """
        if self.mode == "thread":
            task_queue = queue_module.Queue()
            worker = threading.Thread(
                target=_worker_main,
                args=(worker_id, task_queue, self._result_queue),
                name=f"repro-pool-worker-{worker_id}", daemon=True)
            reader = writer = None
        else:
            context = get_context(self.mode)
            task_queue = context.Queue()
            reader, writer = context.Pipe(duplex=False)
            worker = context.Process(
                target=_worker_main,
                args=(worker_id, task_queue, writer),
                daemon=True)
        worker.start()
        return task_queue, worker, reader, writer

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def close(self) -> None:
        """Stop the workers and release every shared block (idempotent).

        Every cleanup step is individually guarded: a worker that died
        mid-round (or a failing queue) must not keep the remaining
        blocks from being released and **unlinked** — leaked segments
        are exactly what the resource tracker would warn about at
        interpreter shutdown.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for task_queue in self._task_queues:
                try:
                    task_queue.put(("stop",))
                except Exception:
                    pass
            for worker in self._workers:
                try:
                    worker.join(timeout=5)
                    if worker.is_alive() and hasattr(worker, "terminate"):
                        worker.terminate()
                        worker.join(timeout=5)
                except Exception:
                    pass
            for shm, block in self._blocks.values():
                try:
                    block.release()
                except Exception:
                    pass
                if shm is not None:
                    try:
                        shm.close()
                    except Exception:
                        pass
                    try:
                        shm.unlink()
                    except Exception:
                        pass
            self._blocks.clear()
            self._inline_blocks.clear()
            self._specs.clear()
            self._dispatch.clear()
            self._inflight.clear()
            self._idle.clear()
            for task_queue in self._task_queues:
                try:
                    if hasattr(task_queue, "close"):
                        task_queue.close()
                        task_queue.cancel_join_thread()
                except Exception:
                    pass
            if self._result_queue is not None:
                try:
                    if hasattr(self._result_queue, "close"):
                        self._result_queue.close()
                        self._result_queue.cancel_join_thread()
                except Exception:
                    pass
            for conn in (*self._result_readers, *self._result_writers):
                if conn is None:
                    continue
                try:
                    conn.close()
                except Exception:
                    pass
            self._result_readers.clear()
            self._result_writers.clear()

    def _abort(self, reason: str):
        """Tear the pool down after a worker failure and raise."""
        self.close()
        raise RuntimeError(f"worker task failed:\n{reason}")

    # -- registration --------------------------------------------------

    def register(self, spec) -> int:
        """Register a work descriptor on every worker; returns a handle."""
        with self._lock:
            if self._closed:
                raise RuntimeError("the pool is closed")
            handle = self._next_handle
            self._next_handle += 1
            shape = _block_shape(spec)
            if self.mode == "inline":
                self._specs[handle] = spec
                if shape is not None:
                    self._inline_blocks[handle] = CounterBlock.local(*shape)
                return handle
            try:
                for worker_id, task_queue in enumerate(self._task_queues):
                    block_ref = None
                    if shape is not None:
                        if self.mode == "thread":
                            block = CounterBlock.local(*shape)
                            self._blocks[(handle, worker_id)] = (None, block)
                            block_ref = block
                        else:
                            shm = shared_memory.SharedMemory(
                                create=True,
                                size=CounterBlock.nbytes(*shape))
                            self._blocks[(handle, worker_id)] = (
                                shm, CounterBlock(shape[0], shape[1],
                                                  shm.buf))
                            block_ref = shm.name
                    task_queue.put(("register", handle, spec, block_ref))
            except Exception:
                # Partial registration must not leak segments: release
                # whatever this handle already allocated.
                self._release_handle_blocks(handle)
                raise
            self._specs[handle] = spec
            return handle

    def _release_handle_blocks(self, handle: int) -> None:
        """Release and unlink every block created for ``handle``."""
        for worker_id in range(self.n_workers):
            self._release_worker_block(handle, worker_id)

    def _release_worker_block(self, handle: int, worker_id: int) -> None:
        """Release and unlink one (handle, worker) block, if any."""
        attached = self._blocks.pop((handle, worker_id), None)
        if attached is None:
            return
        shm, block = attached
        if shm is None:
            return
        try:
            block.release()
        except Exception:
            pass
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass

    def unregister(self, handle: int) -> None:
        """Drop a registered work and free its shared blocks.

        Thread-mode blocks are shared objects the worker may still be
        writing (a task still running when its stream closed): the
        parent only drops its references and lets the worker release on
        its own unregister message; process-mode segments are unlinked
        immediately (the worker's mapping stays valid until it closes
        it).
        """
        with self._lock:
            if self._closed or handle not in self._specs:
                return
            self._specs.pop(handle, None)
            self._inline_blocks.pop(handle, None)
            for task_queue in self._task_queues:
                task_queue.put(("unregister", handle))
            self._release_handle_blocks(handle)
            for worker_id in range(self.n_workers):
                self._blocks.pop((handle, worker_id), None)

    # -- execution -----------------------------------------------------

    def stream(self, handle: int) -> _TaskStream:
        """Open a pipelined submission stream for a registered work."""
        with self._lock:
            if self._closed:
                raise RuntimeError("the pool is closed")
            if handle not in self._specs:
                raise KeyError(f"unknown work handle {handle}")
            return _TaskStream(self, handle)

    def run_tasks(self, handle: int, tasks: Sequence) -> list:
        """Run every task of a registered work; results in task order.

        A thin wrapper over :meth:`stream`: every task is submitted up
        front and results are collected in submission order, so workers
        never idle at intermediate barriers.  Each worker holds at most
        one outstanding task, and the parent drains a worker's counter
        block before handing it the next task, so blocks are never
        overwritten while unread.
        """
        stream = self.stream(handle)
        try:
            seqs = [stream.submit(payload) for payload in tasks]
            return [stream.collect(seq) for seq in seqs]
        finally:
            stream.close()

    def _pump(self) -> None:
        """Hand queued tasks to idle workers (call under the lock)."""
        while self._idle and self._dispatch:
            stream, seq = self._dispatch[0]
            if stream._closed or seq not in stream._pending:
                self._dispatch.popleft()  # cancelled before dispatch
                stream._retries.pop(seq, None)
                continue
            self._dispatch.popleft()
            worker_id = self._idle.popleft()
            payload = stream._pending.pop(seq)
            stream._live.add(seq)
            task_id = self._next_task_id
            self._next_task_id += 1
            self._inflight[task_id] = _InflightTask(
                stream, seq, payload, worker_id,
                stream._retries.pop(seq, 0))
            self._task_queues[worker_id].put(
                ("run", stream.handle, task_id, payload))
            if fault_hook is not None:
                # Injection point for deterministic worker kills.  The
                # SIGKILL may land while the victim is still flushing
                # its *previous* result — survivable only because each
                # process worker writes to a private pipe: a wedged or
                # half-written channel is discarded wholesale at
                # respawn and the lost task re-executed byte-identical.
                fault_hook("pool.dispatch", pool=self,
                           worker_id=worker_id, task_id=task_id)

    def _route_one(self) -> None:
        """Receive one worker result and route it to its stream.

        The worker's counter block is read (finalized) *before* the
        worker is marked idle, so a block is never overwritten while
        unread; results for closed streams are dropped without touching
        the block (it may already be unregistered).
        """
        worker_id, task_id, status, meta = self._receive()
        record = self._inflight.pop(task_id, None)
        if record is None:
            # A straggler from a worker that was already declared dead
            # and replaced: its task was re-submitted under a fresh id
            # (or aborted).  Drop it without marking anything idle —
            # the sender is not a live worker slot.
            return
        if status != "ok":
            self._abort(meta)
        stream, seq = record.stream, record.seq
        stream._live.discard(seq)
        spec = self._specs.get(stream.handle)
        if not stream._closed and spec is not None:
            attached = self._blocks.get((stream.handle, worker_id))
            block = attached[1] if attached is not None else None
            stream._results[seq] = self._finalize(spec, block, meta)
        self._idle.append(worker_id)
        if not self._inflight and not self._dispatch:
            # Quiescent: the burst survived, so the restart budget
            # replenishes for the next one.
            self._restarts_used = 0
        self._pump()

    def _receive(self):
        """Next result, supervising for dead or overrunning workers."""
        while True:
            message = self._poll_result(timeout=1.0)
            if message is not None:
                return message
            self._check_deadlines()
            dead = [worker_id
                    for worker_id, worker in enumerate(self._workers)
                    if not worker.is_alive()]
            if dead:
                self._recover_workers(dead)

    def _poll_result(self, timeout: float):
        """One worker result, or ``None`` after ``timeout`` seconds.

        Process modes multiplex the per-worker result pipes with
        :func:`multiprocessing.connection.wait`.  A dead worker's
        reader is never ``recv``'d — a SIGKILL can leave a partial
        message that would block the parent forever; the channel is
        replaced at respawn and the lost task re-executed, which by
        the determinism contract reproduces the same bytes.
        """
        if self.mode == "thread":
            try:
                return self._result_queue.get(timeout=timeout)
            except queue_module.Empty:
                return None
        try:
            ready = _connection_wait(self._result_readers,
                                     timeout=timeout)
        except OSError:
            return None
        for reader in ready:
            worker_id = self._result_readers.index(reader)
            if not self._workers[worker_id].is_alive():
                continue  # dead writer: leave its channel untouched
            try:
                return reader.recv()
            except (EOFError, OSError):
                continue  # died between the liveness check and recv
        return None

    def _check_deadlines(self) -> None:
        """Terminate process workers whose task overran the deadline.

        The terminated worker is *not* handled here: it shows up dead
        on the very next liveness sweep and goes through the one
        recovery path (:meth:`_recover_workers`), budgets and all.
        """
        if self.task_timeout_seconds is None:
            return
        now = time.monotonic()
        for record in list(self._inflight.values()):
            if now - record.started_at <= self.task_timeout_seconds:
                continue
            worker = self._workers[record.worker_id]
            if hasattr(worker, "terminate") and worker.is_alive():
                worker.terminate()
                worker.join(timeout=5)

    def _recover_workers(self, dead_ids: list) -> None:
        """Respawn dead workers and re-submit their in-flight tasks.

        Runs under the pool lock (callers hold it through ``collect``).
        Budgets first: exhausting ``max_worker_restarts`` or a task's
        ``task_retry_limit`` falls back to :meth:`_abort` — full
        teardown with every segment unlinked, then ``RuntimeError``.
        Re-submitted tasks keep their payload (and with it their
        structural seed), so the retried result is byte-identical to
        what the dead worker would have produced.
        """
        for worker_id in dead_ids:
            worker = self._workers[worker_id]
            ident = getattr(worker, "pid", None) or worker.name
            code = getattr(worker, "exitcode", None)
            reason = (f"worker {ident} exited with code {code} "
                      f"while tasks were pending")
            if self._restarts_used >= self.max_worker_restarts:
                self._abort(reason)
            lost_ids = [task_id
                        for task_id, record in self._inflight.items()
                        if record.worker_id == worker_id]
            resubmit = []
            for task_id in sorted(lost_ids):
                record = self._inflight.pop(task_id)
                stream, seq = record.stream, record.seq
                stream._live.discard(seq)
                if stream._closed:
                    continue  # nobody wants the result; don't re-run
                if record.retries + 1 > self.task_retry_limit:
                    self._abort(
                        f"task retry limit ({self.task_retry_limit}) "
                        f"exhausted after {reason}")
                resubmit.append((stream, seq, record.payload,
                                 record.retries + 1))
            self._restarts_used += 1
            self.worker_restarts += 1
            try:
                self._idle.remove(worker_id)  # died while idle
            except ValueError:
                pass
            self._respawn(worker_id)
            # Front of the dispatch queue: recovered tasks are the
            # oldest outstanding work, and collect() blocks on them.
            for stream, seq, payload, retries in reversed(resubmit):
                stream._pending[seq] = payload
                stream._retries[seq] = retries
                self._dispatch.appendleft((stream, seq))
                self.tasks_recovered += 1
        self._pump()

    def _respawn(self, worker_id: int) -> None:
        """Replace a dead worker in the same slot and mode.

        The replacement gets a fresh task queue (the dead worker's may
        still hold its lost ``run`` message), a fresh result pipe (the
        old one may hold a half-written message from the crash), fresh
        counter blocks (the old shared segments are unlinked first — a
        crash never leaks shm), and a replay of every live ``register``
        message.
        """
        old_worker = self._workers[worker_id]
        old_queue = self._task_queues[worker_id]
        try:
            old_worker.join(timeout=5)
        except Exception:
            pass
        task_queue, worker, reader, writer = self._spawn_worker(worker_id)
        self._task_queues[worker_id] = task_queue
        self._workers[worker_id] = worker
        if reader is not None:
            for conn in (self._result_readers[worker_id],
                         self._result_writers[worker_id]):
                try:
                    conn.close()
                except Exception:
                    pass
            self._result_readers[worker_id] = reader
            self._result_writers[worker_id] = writer
        for handle, spec in self._specs.items():
            block_ref = None
            shape = _block_shape(spec)
            if shape is not None:
                self._release_worker_block(handle, worker_id)
                if self.mode == "thread":
                    block = CounterBlock.local(*shape)
                    self._blocks[(handle, worker_id)] = (None, block)
                    block_ref = block
                else:
                    shm = shared_memory.SharedMemory(
                        create=True, size=CounterBlock.nbytes(*shape))
                    self._blocks[(handle, worker_id)] = (
                        shm, CounterBlock(shape[0], shape[1], shm.buf))
                    block_ref = shm.name
            task_queue.put(("register", handle, spec, block_ref))
        self._idle.append(worker_id)
        try:
            if hasattr(old_queue, "close"):
                old_queue.close()
                old_queue.cancel_join_thread()
        except Exception:
            pass

    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL one process worker (fault injection and tests only).

        Raises ``ValueError`` on thread/inline pools — there is no
        killable worker process — so callers (the fault harness) can
        treat those modes as injection no-ops.
        """
        worker = self._workers[worker_id] if self._workers else None
        pid = getattr(worker, "pid", None)
        if pid is None:
            raise ValueError(
                f"pool mode {self.mode!r} has no killable worker "
                f"processes")
        os.kill(pid, signal.SIGKILL)

    @staticmethod
    def _finalize(spec, block: Optional[CounterBlock], meta):
        """Turn a worker's reply into the caller-facing result."""
        if isinstance(spec, ForestWork):
            return block.read(meta)
        return meta

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"WorkerPool(n_workers={self.n_workers}, "
                f"mode={self.mode!r}, works={len(self._specs)}, {state})")


# ----------------------------------------------------------------------
# Pooled forest accumulation (drop-in for the samplers)
# ----------------------------------------------------------------------

class PooledForestRunner:
    """Splitting-forest simulation sharded over a :class:`WorkerPool`.

    Implements the same ``accumulate(aggregate, batch_roots, ...)``
    contract as :class:`~repro.core.forest.ForestRunner` and
    :class:`~repro.core.forest.VectorizedForestRunner`, so the MLSS
    samplers' stopping rules, bootstrap schedules and curve folds run
    unmodified on top of it.  Each round expands to at least
    ``tasks_per_round`` tasks of ``roots_per_task`` root trees; task
    seeds derive from the task index (:func:`derive_task_seed`) and
    results merge in task order, making pooled aggregates invariant
    under the worker count.  Each round is one
    :meth:`WorkerPool.run_tasks` barrier.

    ``max_steps`` is *strict*: the final round is trimmed against the
    remaining budget (from the measured cost per root) and every task
    carries its share of the budget as a hard cap its worker enforces
    per root tree, so pooled step counts never exceed the budget.

    Call :meth:`close` when done (the samplers do) to release the
    work's shared counter blocks; the pool itself stays alive for the
    next run.
    """

    def __init__(self, pool: WorkerPool, query, partition, ratios,
                 backend: str, seed: Optional[int],
                 roots_per_task: int = DEFAULT_ROOTS_PER_TASK,
                 tasks_per_round: int = DEFAULT_TASKS_PER_ROUND):
        if roots_per_task < 1:
            raise ValueError(
                f"roots_per_task must be >= 1, got {roots_per_task}")
        if tasks_per_round < 1:
            raise ValueError(
                f"tasks_per_round must be >= 1, got {tasks_per_round}")
        validate_plan(query, partition)
        self.pool = pool
        self.query = query
        self.partition = partition
        self.ratios = normalize_ratios(ratios, partition.num_levels)
        self.seed = seed
        self.roots_per_task = roots_per_task
        self.tasks_per_round = tasks_per_round
        self._task_index = 0
        self._handle = pool.register(ForestWork(
            query=query, partition=partition, ratios=self.ratios,
            backend=backend, capacity=roots_per_task))

    def accumulate(self, aggregate, batch_roots: int,
                   max_steps=None, max_roots=None) -> bool:
        """Fold one pooled round of root trees into ``aggregate``."""
        cohort = max(batch_roots, self.roots_per_task * self.tasks_per_round)
        if max_roots is not None:
            cohort = min(cohort, max_roots - aggregate.n_roots)
        step_budget = None
        if max_steps is not None:
            if aggregate.steps >= max_steps:
                return True
            step_budget = max_steps - aggregate.steps
            # Trim the round toward the remaining budget using the
            # measured cost per root (a fresh run assumes a root tree
            # costs about two horizons); the per-task caps below make
            # the budget strict regardless of the estimate.
            if aggregate.n_roots:
                cost = aggregate.steps / aggregate.n_roots
            else:
                cost = 2.0 * self.query.horizon
            cohort = min(cohort, max(int(step_budget / cost), 1))
        if cohort <= 0:
            return True
        tasks, self._task_index = cut_tasks(
            cohort, self.roots_per_task, self.seed, self._task_index,
            step_budget)
        roots_before = aggregate.n_roots
        for cohort in self.pool.run_tasks(self._handle, tasks):
            aggregate.extend(cohort)
        if step_budget is not None and aggregate.n_roots == roots_before:
            # The remaining budget cannot afford a single worst-case
            # root tree anywhere: the budget is exhausted.
            return True
        return ((max_roots is not None and aggregate.n_roots >= max_roots)
                or (max_steps is not None
                    and aggregate.steps >= max_steps))

    def close(self) -> None:
        """Release this work's registration and shared blocks."""
        self.pool.unregister(self._handle)
