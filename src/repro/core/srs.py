"""Simple Random Sampling — the standard Monte Carlo baseline (§2.2).

SRS simulates ``n`` independent sample paths, labels each by whether it
satisfies the query condition before the horizon, and returns the hit
fraction:

    tau_hat = sum(l(SP_i)) / n,     Var_hat = tau_hat (1 - tau_hat) / n.

One simulation loop per backend answers every SRS question: each path
records its *running maximum* value-function score, so the hit
indicator for every level of a threshold grid is read off the same
paths (:meth:`SRSSampler.run_curve`, see
:class:`repro.core.estimates.DurabilityCurve`).  A point answer
(:meth:`SRSSampler.run`) is that pass on the one-level grid
``(TARGET_VALUE,)``.  A path stops as soon as its maximum reaches the
top level (the durability query only asks about the *first* hitting
time), so the cost of a successful path is its hitting time, not the
full horizon.

Three interchangeable runners execute the pass:

* ``"scalar"`` — the per-path Python loop (works for any process);
* ``"vectorized"`` — whole cohorts of paths advance through
  :meth:`VectorizedProcess.step_batch` array operations; paths that
  reach the top level drop out of the batch, so early stopping is
  preserved;
* pooled — with a :class:`~repro.core.pool.WorkerPool`, fixed-size
  tasks of either backend shard over the pool's workers.

All count cost identically (one ``g`` invocation per live path per
step) and sample the same distribution — batching merely reorders
independent draws — so estimates from either backend are exchangeable.
The vectorized loop steps through :func:`repro.processes.base.
step_into`, so processes with the in-place ``step_batch(..., out=...)``
fast path overwrite their cohort buffer instead of allocating a fresh
state array every time step.
"""

from __future__ import annotations

import bisect
import random
import time
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from ..processes.base import as_vectorized, resolve_backend, step_into
from .estimates import DurabilityCurve, DurabilityEstimate, TracePoint
from .pool import (CurveWork, DEFAULT_ROOTS_PER_TASK,
                   DEFAULT_TASKS_PER_ROUND, cut_tasks)
from .quality import QualityTarget
from .value_functions import TARGET_VALUE, DurabilityQuery, batch_values


def srs_variance(probability: float, n_paths: int) -> float:
    """The SRS variance estimator ``tau_hat (1 - tau_hat) / n``."""
    if n_paths <= 0:
        return 0.0
    return probability * (1.0 - probability) / n_paths


def validate_batch_roots(batch_roots: int) -> None:
    """Reject a non-positive per-round path count (it would never stop
    or, in a fused fleet, silently answer from zero paths)."""
    if batch_roots < 1:
        raise ValueError(f"batch_roots must be >= 1, got {batch_roots}")


def validate_curve_levels(levels: Sequence[float]) -> tuple:
    """Validate a normalized curve grid: ascending, inside ``(0, 1]``."""
    values = tuple(float(v) for v in levels)
    if not values:
        raise ValueError("empty curve grid")
    for v in values:
        if not 0.0 < v <= TARGET_VALUE:
            raise ValueError(
                f"curve level {v} must lie in (0, {TARGET_VALUE}]"
            )
    for lo, hi in zip(values, values[1:]):
        if lo >= hi:
            raise ValueError(
                f"curve levels must be strictly ascending, got {lo} "
                f"before {hi}"
            )
    return values


def prepare_curve_grid(levels, thresholds,
                       quality: Optional[QualityTarget],
                       max_steps: Optional[int],
                       max_roots: Optional[int]) -> tuple:
    """Shared ``run_curve`` preamble for every sampler.

    Enforces the stopping-rule contract, validates the normalized grid
    and aligns the raw-threshold labels (defaulting to the levels
    themselves).  Returns ``(levels, thresholds)`` as tuples.
    """
    if quality is None and max_steps is None and max_roots is None:
        raise ValueError(
            "provide a quality target, max_steps or max_roots; "
            "otherwise the sampler would never stop"
        )
    levels = validate_curve_levels(levels)
    if thresholds is None:
        thresholds = levels
    thresholds = tuple(float(b) for b in thresholds)
    if len(thresholds) != len(levels):
        raise ValueError(
            f"{len(thresholds)} thresholds for {len(levels)} curve levels"
        )
    return levels, thresholds


def curve_quality_met(quality: QualityTarget, counts, n_paths: int) -> bool:
    """True when the stopping target holds at *every* grid level."""
    if n_paths == 0:
        return False
    for hits in counts:
        probability = hits / n_paths
        if not quality.is_met(probability, srs_variance(probability, n_paths),
                              hits, n_paths):
            return False
    return True


def build_srs_curve(thresholds, levels, counts, n_paths: int, steps: int,
                    elapsed: float) -> DurabilityCurve:
    """Fold shared-pass maxima counts into a :class:`DurabilityCurve`."""
    estimates = []
    for hits in counts:
        probability = hits / n_paths if n_paths else 0.0
        estimates.append(DurabilityEstimate(
            probability=probability,
            variance=srs_variance(probability, n_paths),
            n_roots=n_paths, hits=hits, steps=steps, method="srs",
            elapsed_seconds=elapsed, details={"shared_pass": True},
        ))
    return DurabilityCurve(
        thresholds=tuple(thresholds), levels=tuple(levels),
        estimates=tuple(estimates), method="srs", n_roots=n_paths,
        steps=steps, elapsed_seconds=elapsed,
    )


class SRSSampler:
    """Batched SRS with budget and quality-target stopping.

    Parameters
    ----------
    batch_roots:
        Number of paths to simulate between stopping-rule checks (and
        the cohort size of the vectorized backend).
    record_trace:
        When True, :meth:`run` records a :class:`TracePoint` at every
        check; the trace lands in ``estimate.details["trace"]`` (used
        for the convergence study, Figure 8).  Curves carry no trace.
    backend:
        ``"scalar"`` (default), ``"vectorized"``, or ``"auto"``
        (vectorized exactly when the process natively supports
        batching).  The engine resolves ``"auto"`` before constructing
        samplers.
    pool / roots_per_task / tasks_per_round:
        With a :class:`~repro.core.pool.WorkerPool`, paths shard over
        its workers in fixed-size tasks whose seeds derive from the
        task index, so pooled estimates are invariant under the worker
        count (see :mod:`repro.core.pool`).  Each stopping-rule round
        covers at least ``tasks_per_round`` tasks of
        ``roots_per_task`` paths.
    """

    method_name = "srs"

    def __init__(self, batch_roots: int = 500, record_trace: bool = False,
                 backend: str = "scalar", pool=None,
                 roots_per_task: Optional[int] = None,
                 tasks_per_round: Optional[int] = None):
        validate_batch_roots(batch_roots)
        if roots_per_task is None:
            roots_per_task = DEFAULT_ROOTS_PER_TASK
        if tasks_per_round is None:
            tasks_per_round = DEFAULT_TASKS_PER_ROUND
        if roots_per_task < 1:
            raise ValueError(
                f"roots_per_task must be >= 1, got {roots_per_task}")
        if tasks_per_round < 1:
            raise ValueError(
                f"tasks_per_round must be >= 1, got {tasks_per_round}")
        self.batch_roots = batch_roots
        self.record_trace = record_trace
        self.backend = backend
        self.pool = pool
        self.roots_per_task = roots_per_task
        self.tasks_per_round = tasks_per_round

    def run(self, query: DurabilityQuery,
            quality: Optional[QualityTarget] = None,
            max_steps: Optional[int] = None,
            max_roots: Optional[int] = None,
            seed: Optional[int] = None) -> DurabilityEstimate:
        """Estimate the query answer; stop on quality target or budget.

        The one-level curve pass: a path hits the target exactly when
        its running maximum reaches ``TARGET_VALUE``, so the point
        answer is the running-maximum pass on the grid
        ``(TARGET_VALUE,)``.
        """
        levels, _ = prepare_curve_grid((TARGET_VALUE,), None, quality,
                                       max_steps, max_roots)
        trace = [] if self.record_trace else None
        counts, n_paths, steps, elapsed, parallel = self._curve_pass(
            query, levels, quality, max_steps, max_roots, seed, trace)
        details = {} if parallel is None else {"parallel": parallel}
        if trace is not None:
            details["trace"] = trace
        curve = build_srs_curve(levels, levels, counts, n_paths, steps,
                                elapsed)
        return replace(curve.estimates[0], details=details)

    def run_curve(self, query: DurabilityQuery, levels: Sequence[float],
                  thresholds: Optional[Sequence[float]] = None,
                  quality: Optional[QualityTarget] = None,
                  max_steps: Optional[int] = None,
                  max_roots: Optional[int] = None,
                  seed: Optional[int] = None) -> DurabilityCurve:
        """Answer a whole grid of value levels from one simulation pass.

        Instead of one run per threshold, every path records its
        *running maximum* value-function score; the estimate for level
        ``v`` is then the fraction of paths whose maximum reached ``v``
        — simultaneously, for every grid point, from the same paths.
        A path stops early only once it reaches the *top* level, so the
        pass costs about as much as a single run against the hardest
        threshold, not ``K`` runs.

        Parameters
        ----------
        query:
            The durability query; its value function defines the scale
            of ``levels`` (for a grid of raw thresholds, rebase the
            query onto the largest one — see
            :meth:`repro.core.value_functions.DurabilityQuery.with_threshold`).
        levels:
            Normalized grid, strictly ascending, each in ``(0, 1]``.
        thresholds:
            Optional raw-threshold labels for the result (defaults to
            ``levels``).
        quality:
            Stopping target, required to hold at *every* grid level
            (the rarest level is the binding one).
        max_steps / max_roots / seed:
            As in :meth:`run`; at least one stopping criterion must be
            given.
        """
        levels, thresholds = prepare_curve_grid(
            levels, thresholds, quality, max_steps, max_roots)
        counts, n_paths, steps, elapsed, _ = self._curve_pass(
            query, levels, quality, max_steps, max_roots, seed)
        return build_srs_curve(thresholds, levels, counts, n_paths, steps,
                               elapsed)

    def _curve_pass(self, query, levels, quality, max_steps, max_roots,
                    seed, trace=None):
        """The running-maxima pass on the pool or the resolved backend.

        Returns ``(counts, n_paths, steps, elapsed, parallel)``:
        per-level hit counts and the pooled run's ``{n_workers, mode,
        tasks}`` (``None`` without a pool).  With a ``trace`` list, a
        :class:`TracePoint` for the top level is appended at every
        stopping-rule check.
        """
        if self.pool is not None:
            return self._curve_pass_pooled(query, levels, quality,
                                           max_steps, max_roots, seed, trace)
        if resolve_backend(self.backend, query.process) == "vectorized":
            passed = self._curve_pass_vectorized(
                query, levels, quality, max_steps, max_roots, seed, trace)
        else:
            passed = self._curve_pass_scalar(
                query, levels, quality, max_steps, max_roots, seed, trace)
        return passed + (None,)

    def _curve_pass_scalar(self, query, levels, quality, max_steps,
                           max_roots, seed, trace):
        """Per-path loop recording running maxima against the grid."""
        rng = random.Random(seed)
        process = query.process
        step = process.step
        value_fn = query.value_function
        horizon = query.horizon
        top = levels[-1]

        counts = [0] * len(levels)
        n_paths = 0
        steps = 0
        started = time.perf_counter()

        done = False
        while not done:
            for _ in range(self.batch_roots):
                if max_roots is not None and n_paths >= max_roots:
                    done = True
                    break
                if max_steps is not None and steps >= max_steps:
                    done = True
                    break
                state = process.initial_state()
                best = 0.0
                t = 0
                while t < horizon:
                    t += 1
                    state = step(state, t, rng)
                    steps += 1
                    value = value_fn(state, t)
                    if value > best:
                        best = value
                        if best >= top:
                            break
                # levels[j] <= best  <=>  the path hit threshold j.
                for j in range(bisect.bisect_right(levels, best)):
                    counts[j] += 1
                n_paths += 1
            if done or n_paths == 0:
                break
            if trace is not None:
                _trace_top(trace, started, counts, n_paths, steps)
            if quality is not None and curve_quality_met(
                    quality, counts, n_paths):
                break
        return counts, n_paths, steps, time.perf_counter() - started

    def _curve_pass_vectorized(self, query, levels, quality, max_steps,
                               max_roots, seed, trace):
        """Cohorts advance as NumPy batches, tracking per-path maxima.

        Budgets are enforced at cohort granularity: every started path
        runs to its hit or the horizon (truncating mid-flight would bias
        the hit fraction), so ``max_steps`` can be overshot by at most
        one cohort.  The cohort is shrunk when the remaining budget
        cannot fill it, keeping that overshoot small.
        """
        rng = np.random.default_rng(seed)
        process = as_vectorized(query.process)
        value_fn = query.value_function
        horizon = query.horizon
        grid = np.asarray(levels, dtype=np.float64)
        top = levels[-1]

        counts = np.zeros(len(levels), dtype=np.int64)
        n_paths = 0
        steps = 0
        started = time.perf_counter()

        while True:
            cohort = self.batch_roots
            if max_roots is not None:
                cohort = min(cohort, max_roots - n_paths)
            if max_steps is not None:
                if steps >= max_steps:
                    break
                cohort = min(cohort, (max_steps - steps) // horizon + 1)
            if cohort <= 0:
                break

            states = process.initial_states(cohort)
            best = np.zeros(cohort, dtype=np.float64)
            topped = 0
            t = 0
            while t < horizon and len(states):
                t += 1
                states = step_into(process, states, t, rng)
                steps += len(states)
                np.maximum(best, batch_values(value_fn, states, t),
                           out=best)
                reached = best >= top
                n_reached = int(np.count_nonzero(reached))
                if n_reached:
                    topped += n_reached
                    keep = ~reached
                    states, best = states[keep], best[keep]
            # Paths that reached the top level hit every grid point;
            # survivors hit exactly the levels below their maximum.
            counts += topped
            if len(best):
                counts += (best[:, None] >= grid[None, :]).sum(axis=0)
            n_paths += cohort

            if trace is not None:
                _trace_top(trace, started, counts, n_paths, steps)
            if quality is not None and curve_quality_met(
                    quality, counts, n_paths):
                break
        return [int(c) for c in counts], n_paths, steps, \
            time.perf_counter() - started

    def _round_cohort(self, n_paths: int, steps: int, horizon: int,
                      max_steps: Optional[int],
                      max_roots: Optional[int]) -> int:
        """Next pooled round's path budget under the stopping budgets.

        Non-positive means "stop".  Unlike the single-process vectorized
        loop (cohort-granular by documented design), the pooled
        ``max_steps`` budget is *strict*: a path costs at most
        ``horizon`` steps, so admitting only ``remaining // horizon``
        more paths guarantees pooled step counts never exceed the cap.
        """
        cohort = max(self.batch_roots,
                     self.roots_per_task * self.tasks_per_round)
        if max_roots is not None:
            cohort = min(cohort, max_roots - n_paths)
        if max_steps is not None:
            if steps >= max_steps:
                return 0
            cohort = min(cohort, (max_steps - steps) // horizon)
        return cohort

    def _curve_pass_pooled(self, query, levels, quality, max_steps,
                           max_roots, seed, trace):
        """Paths shard over the worker pool in fixed-size tasks.

        Each round is one :meth:`~repro.core.pool.WorkerPool.run_tasks`
        barrier followed by a quality check.  Task seeds come from
        :func:`~repro.core.pool.derive_task_seed` and per-level counts
        merge in task order, so the answer is byte-identical for any
        ``n_workers``.
        """
        pool = self.pool
        backend = resolve_backend(self.backend, query.process)
        handle = pool.register(CurveWork(
            query=query, levels=tuple(levels), backend=backend))
        horizon = query.horizon
        counts = np.zeros(len(levels), dtype=np.int64)
        n_paths = 0
        steps = 0
        task_index = 0
        started = time.perf_counter()
        try:
            while True:
                cohort = self._round_cohort(n_paths, steps, horizon,
                                            max_steps, max_roots)
                if cohort <= 0:
                    break
                tasks, task_index = cut_tasks(cohort, self.roots_per_task,
                                              seed, task_index)
                for task_counts, task_n, task_steps in pool.run_tasks(
                        handle, tasks):
                    counts += np.asarray(task_counts, dtype=np.int64)
                    n_paths += task_n
                    steps += task_steps
                if trace is not None:
                    _trace_top(trace, started, counts, n_paths, steps)
                if quality is not None and curve_quality_met(
                        quality, [int(c) for c in counts], n_paths):
                    break
        finally:
            pool.unregister(handle)
        parallel = {"n_workers": pool.n_workers, "mode": pool.mode,
                    "tasks": task_index}
        return [int(c) for c in counts], n_paths, steps, \
            time.perf_counter() - started, parallel


def _trace_top(trace: list, started: float, counts, n_paths: int,
               steps: int) -> None:
    """Append a :class:`TracePoint` for the top grid level."""
    hits = int(counts[-1])
    probability = hits / n_paths
    trace.append(TracePoint(
        steps=steps, elapsed_seconds=time.perf_counter() - started,
        probability=probability,
        variance=srs_variance(probability, n_paths),
        n_roots=n_paths, hits=hits,
    ))
