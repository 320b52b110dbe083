"""s-MLSS: the simple Multi-Level Splitting estimator (Section 3).

Under the *no level-skipping* assumption, the counters of the splitting
forest yield

    tau_hat = N_m / (N_0 * r^(m-1)),                        (Eq. 3)

or, with per-level ratios, ``N_m / (N_0 * prod_i r_i)``.  The variance
follows from the per-root hit counts (Eq. 5-6):

    Var_hat = sigma^2 / (N_0 * r^(2(m-1))),
    sigma^2 = sample variance of N_m^<k> over root paths k.

The estimator is read straight off the forest counters; when the
underlying process *does* skip levels, the same formulas silently
produce biased answers — this is the "blind application" the paper
demonstrates in Table 6, and :class:`SMLSSSampler` flags it via
``details["skipping_detected"]``.
"""

from __future__ import annotations

import math
import random
import time
from typing import Optional, Sequence

import numpy as np

from ..processes.base import resolve_backend
from .estimates import DurabilityCurve, DurabilityEstimate, TracePoint
from .forest import ForestRunner, VectorizedForestRunner
from .levels import LevelPartition, normalize_ratios
from .quality import QualityTarget
from .records import ForestAggregate
from .srs import prepare_curve_grid
from .value_functions import DurabilityQuery


def make_forest_runner(backend: str, query: DurabilityQuery,
                       partition: LevelPartition, ratios,
                       seed: Optional[int],
                       scalar_rng: Optional[random.Random] = None,
                       pool=None,
                       roots_per_task: Optional[int] = None,
                       tasks_per_round: Optional[int] = None):
    """Build the forest runner for a resolved backend.

    ``"vectorized"`` drives whole cohorts through
    :class:`VectorizedForestRunner` (with a NumPy generator, buffered
    frontiers, and in-place stepping for processes that support
    ``out=``); ``"scalar"`` keeps the original per-path runner, reusing
    ``scalar_rng`` when the caller already owns a stream (so scalar
    results stay bit-identical to the pre-backend code).  With a
    :class:`~repro.core.pool.WorkerPool`, cohorts shard over the pool's
    workers instead (:class:`~repro.core.pool.PooledForestRunner`, on
    the same backend per worker).  All runners expose the same
    ``accumulate`` interface, so samplers are backend- and
    parallelism-agnostic past this point; pooled runners additionally
    expose ``close()``, which samplers call when a run finishes.
    """
    backend = resolve_backend(backend, query.process)
    if pool is not None:
        from .pool import (DEFAULT_ROOTS_PER_TASK, DEFAULT_TASKS_PER_ROUND,
                           PooledForestRunner)
        return PooledForestRunner(
            pool, query, partition, ratios, backend, seed,
            roots_per_task=roots_per_task or DEFAULT_ROOTS_PER_TASK,
            tasks_per_round=tasks_per_round or DEFAULT_TASKS_PER_ROUND)
    if backend == "vectorized":
        return VectorizedForestRunner(query, partition, ratios,
                                      np.random.default_rng(seed))
    return ForestRunner(query, partition, ratios,
                        scalar_rng if scalar_rng is not None
                        else random.Random(seed))


def close_runner(runner) -> None:
    """Release a runner's pooled resources, if it holds any."""
    close = getattr(runner, "close", None)
    if close is not None:
        close()


class CheckSchedule:
    """When a forest sampler checks its stopping rule, and the cohort
    it simulates before the next check.

    The first check falls at ``first_check`` roots.  A failed check at
    ``n`` roots schedules the next at the target's projection from the
    measured variance of its worst unmet level, clamped to
    ``[ceil(1.1 n), 4 n]``; with no projection (a zero estimate, or a
    target such as :class:`~repro.core.quality.NeverTarget`), at
    ``growth * n``.  The paper's conservative geometric schedule
    (Section 4.2) overruns the target to bootstrap less often; a
    projected check overruns less *and* checks less.  No decision is
    made between checks, so a quality-stopped run simulates the whole
    stretch up to the next check as one cohort, floored at
    ``batch_roots``.  Under ``max_steps`` the cohort is clamped to
    ``max(batch_roots, floor(remaining steps / steps per root))``, so a
    run overshoots its budget by about one ``batch_roots`` cohort.  The
    cost per root is the measured mean, or ``2 * horizon`` steps before
    any root has run (the projection
    :class:`~repro.core.pool.PooledForestRunner` makes).  Runs without
    a quality target never check and keep ``batch_roots`` cohorts.
    """

    def __init__(self, first_check: int, growth: float, batch_roots: int,
                 quality: Optional[QualityTarget], horizon: int):
        self.next_check = first_check
        self.growth = growth
        self.batch_roots = batch_roots
        self.quality = quality
        self.horizon = horizon

    def cohort(self, aggregate: ForestAggregate,
               max_steps: Optional[int] = None) -> int:
        """Roots to simulate before the next check."""
        if self.quality is None:
            return self.batch_roots
        roots = max(self.batch_roots, self.next_check - aggregate.n_roots)
        if max_steps is not None:
            if aggregate.n_roots:
                cost = aggregate.steps / aggregate.n_roots
            else:
                cost = 2.0 * self.horizon
            affordable = int((max_steps - aggregate.steps) / cost)
            roots = min(roots, max(self.batch_roots, affordable))
        return roots

    def due(self, n_roots: int) -> bool:
        """Whether the stopping rule is checked at ``n_roots`` roots."""
        return self.quality is not None and n_roots >= self.next_check

    def check(self, levels, n_roots: int) -> bool:
        """Whether the target holds at every ``(probability, variance,
        hits)`` level at ``n_roots`` roots; if not, schedule the next
        check from the unmet levels' projections."""
        projections = [
            self.quality.projected_roots(p, hits, n_roots, variance=var)
            for p, var, hits in levels
            if not self.quality.is_met(p, var, hits, n_roots)]
        if not projections:
            return True
        self.advance(n_roots, None if None in projections
                     else max(projections))
        return False

    def advance(self, n_roots: int, projected: Optional[int] = None) -> None:
        """Schedule the check after one made at ``n_roots`` roots."""
        if projected is None:
            projected = math.ceil(max(self.next_check, n_roots) * self.growth)
        else:
            projected = min(max(projected, -(-11 * n_roots // 10)),
                            4 * n_roots)
        self.next_check = max(self.next_check + 1, projected)


def ratio_product(ratios: tuple) -> int:
    """``prod_i r_i`` over the splittable levels (``r^(m-1)`` if fixed)."""
    return math.prod(ratios[1:])


def smlss_point_estimate(aggregate: ForestAggregate, ratios: tuple) -> float:
    """Eq. 3: ``N_m / (N_0 * prod r_i)``."""
    if aggregate.n_roots == 0:
        return 0.0
    return aggregate.hits / (aggregate.n_roots * ratio_product(ratios))


def smlss_variance(aggregate: ForestAggregate, ratios: tuple) -> float:
    """Eq. 5-6: per-root hit-count variance scaled by the split factor."""
    n0 = aggregate.n_roots
    if n0 < 2:
        return 0.0
    sigma_sq = aggregate.hit_count_variance()
    denominator = ratio_product(ratios)
    return sigma_sq / (n0 * denominator * denominator)


def smlss_prefix_estimates(aggregate: ForestAggregate,
                           ratios: tuple) -> list:
    """Boundary-crossing probabilities under the no-skipping assumption.

    The s-MLSS analogue of Eq. 3 for every prefix: without level
    skipping, the expected number of landings in ``L_i`` is
    ``N_0 * prod_{k<i} r_k * Pr[cross beta_i]``, so one forest yields
    ``Pr[cross beta_i] = landings[i] / (N_0 * prod_{k<i} r_k)`` for all
    boundaries at once.  Returns ``[Pr[cross beta_1], ...,
    Pr[cross beta_{m-1}], Pr[hit target]]`` (length ``m``); like the
    point estimate, the prefixes are biased when the process does skip
    levels.
    """
    m = aggregate.num_levels
    n0 = aggregate.n_roots
    prefixes = []
    scale = float(n0)
    for i in range(1, m):
        prefixes.append(aggregate.landings[i] / scale if n0 else 0.0)
        scale *= ratios[i]
    prefixes.append(aggregate.hits / scale if n0 else 0.0)
    return prefixes


def smlss_prefix_variances(aggregate: ForestAggregate,
                           ratios: tuple) -> list:
    """Per-boundary variances for :func:`smlss_prefix_estimates`.

    Each prefix is a mean of i.i.d. per-root counts scaled by a
    constant, so the Eq. 5-6 argument applies level by level: the
    sample variance of the per-root landing (or hit) counts, divided by
    ``n_roots`` and the squared split factor.
    """
    m = aggregate.num_levels
    n0 = aggregate.n_roots
    if n0 < 2:
        return [0.0] * m
    landings, _, _, hits = aggregate.per_root_matrices()
    variances = []
    scale = 1.0
    for i in range(1, m):
        sigma_sq = float(landings[:, i].var(ddof=1))
        variances.append(sigma_sq / (n0 * scale * scale))
        scale *= ratios[i]
    variances.append(float(hits.var(ddof=1)) / (n0 * scale * scale))
    return variances


class SMLSSSampler:
    """Batched s-MLSS with budget and quality-target stopping.

    Parameters
    ----------
    partition:
        The level partition plan ``B``.
    ratio:
        Fixed splitting ratio ``r`` (paper default 3) or per-level
        ratios.
    batch_roots:
        Root trees between the stopping-rule checks of :meth:`run` (and
        its cohort size).  In :meth:`run_curve` it is the cohort size of
        a budget-only run and the cohort floor of a quality-stopped one,
        which simulates the whole stretch up to its next check as one
        cohort (see :class:`CheckSchedule`).
    record_trace:
        Record convergence snapshots in ``details["trace"]``.
    backend:
        ``"scalar"`` (default), ``"vectorized"``, or ``"auto"``
        (vectorized exactly when the process supports batching).
    pool / roots_per_task / tasks_per_round:
        With a :class:`~repro.core.pool.WorkerPool`, root trees shard
        over its workers in fixed-size tasks (results are invariant
        under the worker count; see :mod:`repro.core.pool`).
    """

    method_name = "smlss"

    def __init__(self, partition: LevelPartition, ratio=3,
                 batch_roots: int = 100, record_trace: bool = False,
                 backend: str = "scalar", pool=None,
                 roots_per_task: Optional[int] = None,
                 tasks_per_round: Optional[int] = None):
        if batch_roots < 1:
            raise ValueError(f"batch_roots must be >= 1, got {batch_roots}")
        self.partition = partition
        self.ratios = normalize_ratios(ratio, partition.num_levels)
        self.batch_roots = batch_roots
        self.record_trace = record_trace
        self.backend = backend
        self.pool = pool
        self.roots_per_task = roots_per_task
        self.tasks_per_round = tasks_per_round

    def _make_runner(self, query: DurabilityQuery, seed: Optional[int],
                     scalar_rng: Optional[random.Random] = None):
        return make_forest_runner(
            self.backend, query, self.partition, self.ratios, seed,
            scalar_rng=scalar_rng, pool=self.pool,
            roots_per_task=self.roots_per_task,
            tasks_per_round=self.tasks_per_round)

    def run(self, query: DurabilityQuery,
            quality: Optional[QualityTarget] = None,
            max_steps: Optional[int] = None,
            max_roots: Optional[int] = None,
            seed: Optional[int] = None) -> DurabilityEstimate:
        if quality is None and max_steps is None and max_roots is None:
            raise ValueError(
                "provide a quality target, max_steps or max_roots; "
                "otherwise the sampler would never stop"
            )
        runner = self._make_runner(query, seed)
        aggregate = ForestAggregate(self.partition.num_levels)
        trace = []
        started = time.perf_counter()

        try:
            done = False
            while not done:
                done = runner.accumulate(aggregate, self.batch_roots,
                                         max_steps=max_steps,
                                         max_roots=max_roots)
                if done or aggregate.n_roots == 0:
                    break
                probability = smlss_point_estimate(aggregate, self.ratios)
                variance = smlss_variance(aggregate, self.ratios)
                if self.record_trace:
                    trace.append(TracePoint(
                        steps=aggregate.steps,
                        elapsed_seconds=time.perf_counter() - started,
                        probability=probability, variance=variance,
                        n_roots=aggregate.n_roots, hits=aggregate.hits,
                    ))
                if quality is not None and quality.is_met(
                        probability, variance, aggregate.hits,
                        aggregate.n_roots):
                    break
        finally:
            close_runner(runner)

        probability = smlss_point_estimate(aggregate, self.ratios)
        details = {
            "partition": self.partition,
            "ratios": self.ratios[1:],
            "landings": list(aggregate.landings),
            "skips": list(aggregate.skips),
            "skipping_detected": aggregate.total_skips > 0,
        }
        if self.record_trace:
            details["trace"] = trace
        return DurabilityEstimate(
            probability=probability,
            variance=smlss_variance(aggregate, self.ratios),
            n_roots=aggregate.n_roots, hits=aggregate.hits,
            steps=aggregate.steps, method=self.method_name,
            elapsed_seconds=time.perf_counter() - started,
            details=details,
        )

    def run_curve(self, query: DurabilityQuery,
                  thresholds: Optional[Sequence[float]] = None,
                  quality: Optional[QualityTarget] = None,
                  max_steps: Optional[int] = None,
                  max_roots: Optional[int] = None,
                  seed: Optional[int] = None) -> DurabilityCurve:
        """Answer the partition's whole boundary grid from one forest.

        The s-MLSS counterpart of :meth:`GMLSSSampler.run_curve`:
        boundary-crossing probabilities are read off the landing
        counters level by level (:func:`smlss_prefix_estimates`), valid
        under the same no-level-skipping assumption as the point
        estimate.  ``quality`` must hold at every level; it is
        evaluated on a :class:`CheckSchedule` that projects each next
        check from the worst unmet level (the per-level variances read
        the whole per-root history, so checking every batch would cost
        quadratic time).  Budgets behave as in :meth:`run`.
        """
        levels, thresholds = prepare_curve_grid(
            self.partition.boundaries + (1.0,), thresholds, quality,
            max_steps, max_roots)
        runner = self._make_runner(query, seed)
        aggregate = ForestAggregate(self.partition.num_levels)
        schedule = CheckSchedule(max(2 * self.batch_roots, 100), 1.5,
                                 self.batch_roots, quality, query.horizon)
        started = time.perf_counter()

        try:
            done = False
            while not done:
                done = runner.accumulate(
                    aggregate, schedule.cohort(aggregate, max_steps),
                    max_steps=max_steps, max_roots=max_roots)
                if done or aggregate.n_roots == 0:
                    break
                if schedule.due(aggregate.n_roots):
                    prefixes = smlss_prefix_estimates(aggregate, self.ratios)
                    variances = smlss_prefix_variances(aggregate,
                                                       self.ratios)
                    if schedule.check(
                            zip(prefixes, variances,
                                self._level_hits(aggregate)),
                            aggregate.n_roots):
                        break
        finally:
            close_runner(runner)

        prefixes = smlss_prefix_estimates(aggregate, self.ratios)
        variances = smlss_prefix_variances(aggregate, self.ratios)
        hits = self._level_hits(aggregate)
        elapsed = time.perf_counter() - started
        estimates = tuple(
            DurabilityEstimate(
                probability=prefixes[i], variance=variances[i],
                n_roots=aggregate.n_roots, hits=hits[i],
                steps=aggregate.steps, method=self.method_name,
                elapsed_seconds=elapsed, details={"shared_pass": True},
            )
            for i in range(len(levels)))
        return DurabilityCurve(
            thresholds=thresholds, levels=levels, estimates=estimates,
            method=self.method_name, n_roots=aggregate.n_roots,
            steps=aggregate.steps, elapsed_seconds=elapsed,
            details={
                "partition": self.partition,
                "ratios": self.ratios[1:],
                "level_reach": aggregate.level_reach_counts(),
                "skipping_detected": aggregate.total_skips > 0,
            },
        )

    def _level_hits(self, aggregate: ForestAggregate) -> list:
        """Observations backing each curve level."""
        return list(aggregate.landings[1:]) + [aggregate.hits]
