"""Simple Random Sampling — the standard Monte Carlo baseline (§2.2).

SRS simulates ``n`` independent sample paths, labels each by whether it
satisfies the query condition before the horizon, and returns the hit
fraction:

    tau_hat = sum(l(SP_i)) / n,     Var_hat = tau_hat (1 - tau_hat) / n.

A path stops as soon as it hits the target (the durability query only
asks about the *first* hitting time), so the cost of a successful path
is its hitting time, not the full horizon.

Two interchangeable backends run the simulation:

* ``"scalar"`` — the original per-path Python loop (works for any
  process);
* ``"vectorized"`` — whole cohorts of paths advance through
  :meth:`VectorizedProcess.step_batch` array operations; paths that hit
  the target drop out of the batch, so early stopping is preserved.

Both count cost identically (one ``g`` invocation per live path per
step) and sample the same distribution — batching merely reorders
independent draws — so estimates from either backend are exchangeable.
The vectorized loops step through :func:`repro.processes.base.
step_into`, so processes with the in-place ``step_batch(..., out=...)``
fast path overwrite their cohort buffer instead of allocating a fresh
state array every time step.

Besides the single-threshold :meth:`SRSSampler.run`, the sampler can
answer a whole *grid* of thresholds from one pass:
:meth:`SRSSampler.run_curve` records each path's running maximum score,
so the hit indicator for every grid level is read off the same paths
(see :class:`repro.core.estimates.DurabilityCurve`).
"""

from __future__ import annotations

import bisect
import random
import time
from typing import Optional, Sequence

import numpy as np

from ..processes.base import as_vectorized, resolve_backend, step_into
from .estimates import DurabilityCurve, DurabilityEstimate, TracePoint
from .pool import (CurveWork, DEFAULT_ROOTS_PER_TASK,
                   DEFAULT_TASKS_PER_ROUND, PathWork, cut_tasks)
from .quality import QualityTarget
from .value_functions import TARGET_VALUE, DurabilityQuery, batch_values


def srs_variance(probability: float, n_paths: int) -> float:
    """The SRS variance estimator ``tau_hat (1 - tau_hat) / n``."""
    if n_paths <= 0:
        return 0.0
    return probability * (1.0 - probability) / n_paths


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
        When True, a :class:`TracePoint` is recorded at every check;
        the trace lands in ``estimate.details["trace"]`` (used for the
        convergence study, Figure 8).
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
        if batch_roots < 1:
            raise ValueError(f"batch_roots must be >= 1, got {batch_roots}")
        self.batch_roots = batch_roots
        self.record_trace = record_trace
        self.backend = backend
        self.pool = pool
        self.roots_per_task = roots_per_task or DEFAULT_ROOTS_PER_TASK
        self.tasks_per_round = tasks_per_round or DEFAULT_TASKS_PER_ROUND

    def run(self, query: DurabilityQuery,
            quality: Optional[QualityTarget] = None,
            max_steps: Optional[int] = None,
            max_roots: Optional[int] = None,
            seed: Optional[int] = None) -> DurabilityEstimate:
        """Estimate the query answer; stop on quality target or budget."""
        if quality is None and max_steps is None and max_roots is None:
            raise ValueError(
                "provide a quality target, max_steps or max_roots; "
                "otherwise the sampler would never stop"
            )
        if self.pool is not None:
            return self._run_pooled(query, quality=quality,
                                    max_steps=max_steps,
                                    max_roots=max_roots, seed=seed)
        if resolve_backend(self.backend, query.process) == "vectorized":
            return self._run_vectorized(query, quality=quality,
                                        max_steps=max_steps,
                                        max_roots=max_roots, seed=seed)
        rng = random.Random(seed)
        process = query.process
        step = process.step
        value_fn = query.value_function
        horizon = query.horizon

        n_paths = 0
        hits = 0
        steps = 0
        trace = []
        started = time.perf_counter()

        def make_estimate() -> DurabilityEstimate:
            probability = hits / n_paths if n_paths else 0.0
            return DurabilityEstimate(
                probability=probability,
                variance=srs_variance(probability, n_paths),
                n_roots=n_paths, hits=hits, steps=steps,
                method=self.method_name,
                elapsed_seconds=time.perf_counter() - started,
                details={"trace": trace} if self.record_trace else {},
            )

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
                t = 0
                while t < horizon:
                    t += 1
                    state = step(state, t, rng)
                    steps += 1
                    if value_fn(state, t) >= TARGET_VALUE:
                        hits += 1
                        break
                n_paths += 1
            if done or n_paths == 0:
                break
            probability = hits / n_paths
            variance = srs_variance(probability, n_paths)
            if self.record_trace:
                trace.append(TracePoint(
                    steps=steps,
                    elapsed_seconds=time.perf_counter() - started,
                    probability=probability, variance=variance,
                    n_roots=n_paths, hits=hits,
                ))
            if quality is not None and quality.is_met(
                    probability, variance, hits, n_paths):
                break

        return make_estimate()

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
        if self.pool is not None:
            counts, n_paths, steps, elapsed = self._curve_pass_pooled(
                query, levels, quality, max_steps, max_roots, seed)
        elif resolve_backend(self.backend, query.process) == "vectorized":
            counts, n_paths, steps, elapsed = self._curve_pass_vectorized(
                query, levels, quality, max_steps, max_roots, seed)
        else:
            counts, n_paths, steps, elapsed = self._curve_pass_scalar(
                query, levels, quality, max_steps, max_roots, seed)
        return build_srs_curve(thresholds, levels, counts, n_paths, steps,
                               elapsed)

    def _curve_pass_scalar(self, query, levels, quality, max_steps,
                           max_roots, seed):
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
            if quality is not None and curve_quality_met(
                    quality, counts, n_paths):
                break
        return counts, n_paths, steps, time.perf_counter() - started

    def _curve_pass_vectorized(self, query, levels, quality, max_steps,
                               max_roots, seed):
        """Cohorts advance as NumPy batches, tracking per-path maxima."""
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

            if quality is not None and curve_quality_met(
                    quality, counts, n_paths):
                break
        return [int(c) for c in counts], n_paths, steps, \
            time.perf_counter() - started

    def _round_cohort(self, n_paths: int, steps: int, horizon: int,
                      max_steps: Optional[int],
                      max_roots: Optional[int]) -> int:
        """Next pooled round's path budget under the stopping budgets.

        Shared by the point and curve pooled passes so their budget
        semantics cannot drift apart.  Non-positive means "stop".
        Unlike the single-process vectorized loop (cohort-granular by
        documented design), the pooled ``max_steps`` budget is
        *strict*: a path costs at most ``horizon`` steps, so admitting
        only ``remaining // horizon`` more paths guarantees pooled step
        counts never exceed the cap.
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

    def _run_pooled(self, query: DurabilityQuery,
                    quality: Optional[QualityTarget],
                    max_steps: Optional[int],
                    max_roots: Optional[int],
                    seed: Optional[int]) -> DurabilityEstimate:
        """Paths shard over the worker pool in fixed-size tasks.

        Each round is one :meth:`~repro.core.pool.WorkerPool.run_tasks`
        barrier followed by a quality check.  Task seeds come from
        :func:`~repro.core.pool.derive_task_seed` and results merge in
        task order, so the estimate is byte-identical for any
        ``n_workers``.
        """
        pool = self.pool
        backend = resolve_backend(self.backend, query.process)
        handle = pool.register(PathWork(query=query, backend=backend))
        horizon = query.horizon
        n_paths = 0
        hits = 0
        steps = 0
        task_index = 0
        trace = []
        started = time.perf_counter()
        try:
            while True:
                cohort = self._round_cohort(n_paths, steps, horizon,
                                            max_steps, max_roots)
                if cohort <= 0:
                    break
                tasks, task_index = cut_tasks(cohort, self.roots_per_task,
                                              seed, task_index)
                for task_n, task_hits, task_steps in pool.run_tasks(
                        handle, tasks):
                    n_paths += task_n
                    hits += task_hits
                    steps += task_steps
                probability = hits / n_paths if n_paths else 0.0
                variance = srs_variance(probability, n_paths)
                if self.record_trace:
                    trace.append(TracePoint(
                        steps=steps,
                        elapsed_seconds=time.perf_counter() - started,
                        probability=probability, variance=variance,
                        n_roots=n_paths, hits=hits,
                    ))
                if quality is not None and quality.is_met(
                        probability, variance, hits, n_paths):
                    break
        finally:
            pool.unregister(handle)

        probability = hits / n_paths if n_paths else 0.0
        details = {"parallel": {"n_workers": pool.n_workers,
                                "mode": pool.mode,
                                "tasks": task_index}}
        if self.record_trace:
            details["trace"] = trace
        return DurabilityEstimate(
            probability=probability,
            variance=srs_variance(probability, n_paths),
            n_roots=n_paths, hits=hits, steps=steps,
            method=self.method_name,
            elapsed_seconds=time.perf_counter() - started,
            details=details,
        )

    def _curve_pass_pooled(self, query, levels, quality, max_steps,
                           max_roots, seed):
        """Pooled running-maxima pass: per-level counts merge per task."""
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
                if quality is not None and curve_quality_met(
                        quality, [int(c) for c in counts], n_paths):
                    break
        finally:
            pool.unregister(handle)
        return [int(c) for c in counts], n_paths, steps, \
            time.perf_counter() - started

    def _run_vectorized(self, query: DurabilityQuery,
                        quality: Optional[QualityTarget],
                        max_steps: Optional[int],
                        max_roots: Optional[int],
                        seed: Optional[int]) -> DurabilityEstimate:
        """Cohorts of paths advance as NumPy batches between checks.

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

        n_paths = 0
        hits = 0
        steps = 0
        trace = []
        started = time.perf_counter()

        def make_estimate() -> DurabilityEstimate:
            probability = hits / n_paths if n_paths else 0.0
            return DurabilityEstimate(
                probability=probability,
                variance=srs_variance(probability, n_paths),
                n_roots=n_paths, hits=hits, steps=steps,
                method=self.method_name,
                elapsed_seconds=time.perf_counter() - started,
                details={"trace": trace} if self.record_trace else {},
            )

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
            t = 0
            while t < horizon and len(states):
                t += 1
                states = step_into(process, states, t, rng)
                steps += len(states)
                values = batch_values(value_fn, states, t)
                hit = values >= TARGET_VALUE
                n_hit = int(np.count_nonzero(hit))
                if n_hit:
                    hits += n_hit
                    states = states[~hit]
            n_paths += cohort

            probability = hits / n_paths
            variance = srs_variance(probability, n_paths)
            if self.record_trace:
                trace.append(TracePoint(
                    steps=steps,
                    elapsed_seconds=time.perf_counter() - started,
                    probability=probability, variance=variance,
                    n_roots=n_paths, hits=hits,
                ))
            if quality is not None and quality.is_met(
                    probability, variance, hits, n_paths):
                break

        return make_estimate()
