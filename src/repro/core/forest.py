"""The splitting-forest simulator shared by s-MLSS and g-MLSS.

Both MLSS variants run exactly the same simulation (Sections 3.1 and
4.1): root paths start in ``L_0``; whenever a path first reaches a level
above the one it was born in, it stops and spawns ``r`` offspring from
the entrance state; offspring that reach higher levels split in turn.
The variants differ only in how the resulting counters are folded into
an estimate — which is why "blindly applying s-MLSS" to a process with
level skipping (the paper's Table 6) is literally reading the same run
through the wrong formula.

Bookkeeping per path (born at level ``b``):

* lands in level ``j > b`` (value in ``[beta_j, beta_{j+1})``):
  ``landings[j] += 1``; skipped levels ``k in (b, j)`` get
  ``skips[k] += 1``; the path splits into ``r_j`` offspring.
* hits the target (value ``>= 1``): ``hits += 1``; skipped levels
  ``k in (b, m)`` get ``skips[k] += 1``.
* either way the path *crossed* ``beta_{b+1}``, which increments its
  parent split's crossing counter (the numerator of ``mu(h)``); an
  offspring's birth level *is* its parent's landing level, so that is
  ``crossings[b]``.
* reaches the horizon without leaving level ``b``: nothing to record.

Two runners produce identical bookkeeping:

* :class:`ForestRunner` — the scalar reference: one path at a time,
  depth-first over the splitting tree (explicit stack, so deep level
  hierarchies cannot overflow Python's recursion limit), one
  :class:`~repro.core.records.RootRecord` per tree.
* :class:`VectorizedForestRunner` — the batched backend: a whole cohort
  of root trees advances breadth-first in time, every live path (roots
  and offspring alike) stepping through one ``step_batch`` call per time
  index.  Hits and landings happen on most time steps, so a step only
  records its event rows' ``(root, born, top)`` (``top``: the level
  entered, ``m`` for a hit) and spawns offspring; ``numpy.bincount``
  folds all of a cohort's events into per-root counters at the end.

Both return a :class:`~repro.core.records.Cohort` from ``run_cohort``,
so the estimators and the bootstrap cannot tell the backends apart.

The vectorized runner keeps its live frontier in preallocated,
geometrically-grown buffers (:class:`_Frontier`) and steps processes
that support it in place (``step_batch(..., out=...)``), so huge
cohorts churn almost no allocations per time step.
"""

from __future__ import annotations

import random

import numpy as np

from ..processes.base import as_vectorized
from .levels import LevelPartition, normalize_ratios
from .records import Cohort, RootRecord
from .value_functions import TARGET_VALUE, DurabilityQuery, batch_values


class _Frontier:
    """Preallocated live-path arrays for the vectorized forest runner.

    The frontier — every live path segment's state plus its ``(root,
    born)`` row of root index and birth level — changes size on every
    splitting event.  Rebuilding it with ``numpy.concatenate`` allocates
    two fresh arrays per event; this helper instead keeps *buffers* with
    spare capacity (grown geometrically) and compacts survivors +
    offspring into them in place.  Combined with the in-place
    ``step_batch(..., out=...)`` fast path, the hot loop of a large
    cohort allocates almost nothing per time step.

    State buffering engages only for processes with ``supports_out``
    over value-typed arrays (in-place stepping needs a stable buffer);
    otherwise states stay exact-size arrays while the ``(root, born)``
    array still reuses its buffer.
    """

    def __init__(self, process, n_roots: int, initial_states=None):
        self.process = process
        if initial_states is None:
            self.states = process.initial_states(n_roots)
        else:
            if len(initial_states) != n_roots:
                raise ValueError(
                    f"{len(initial_states)} initial states for "
                    f"{n_roots} roots")
            self.states = initial_states
        self.size = n_roots
        self._buffered_states = (process.supports_out
                                 and getattr(self.states, "dtype", None)
                                 is not None
                                 and self.states.dtype != object)
        self.meta = np.zeros((n_roots, 2), dtype=np.int64)
        self.meta[:, 0] = np.arange(n_roots)

    def live_states(self) -> np.ndarray:
        if self._buffered_states:
            return self.states[:self.size]
        return self.states

    def live_meta(self) -> np.ndarray:
        """View of the live ``(root, born)`` rows."""
        return self.meta[:self.size]

    def advance(self, t: int, rng) -> np.ndarray:
        """Step every live path; returns the (possibly in-place) states."""
        view = self.live_states()
        if self._buffered_states:
            return self.process.step_batch(view, t, rng, out=view)
        self.states = self.process.step_batch(view, t, rng)
        return self.states

    @staticmethod
    def _fold_into(buffer: np.ndarray, live: np.ndarray, survivors,
                   appended, total: int) -> np.ndarray:
        """Compact survivors + appended rows into ``buffer``, growing it
        geometrically when capacity runs out; returns the buffer."""
        n_appended = len(appended) if appended is not None else 0
        n_survivors = total - n_appended
        if total > len(buffer):
            shape = (max(total, 2 * len(buffer)),) + buffer.shape[1:]
            buffer = np.empty(shape, dtype=buffer.dtype)
        # The fancy-indexed read allocates a temporary, so writing into
        # the same buffer's prefix is safe.
        buffer[:n_survivors] = live[survivors]
        if n_appended:
            buffer[n_survivors:total] = appended
        return buffer

    def rebuild(self, survivors, offspring, offspring_meta) -> None:
        """Keep the ``survivors`` rows (indices) and append offspring."""
        n_offspring = len(offspring) if offspring is not None else 0
        live_states = self.live_states()
        total = len(survivors) + n_offspring
        if self._buffered_states:
            self.states = self._fold_into(self.states, live_states,
                                          survivors, offspring, total)
        elif n_offspring:
            self.states = np.concatenate(
                [live_states[survivors], offspring])
        else:
            self.states = live_states[survivors]
        self.meta = self._fold_into(self.meta, self.live_meta(), survivors,
                                    offspring_meta, total)
        self.size = total


class LevelPlanError(ValueError):
    """Raised when a partition plan is inconsistent with the query."""


def validate_plan(query: DurabilityQuery,
                  partition: LevelPartition) -> None:
    """Check a partition plan is usable for the query's initial state."""
    initial_value = query.initial_value()
    if initial_value >= TARGET_VALUE:
        raise LevelPlanError(
            "initial state already satisfies the query; the answer "
            "is trivially 1"
        )
    if partition.boundaries and partition.boundaries[0] <= initial_value:
        raise LevelPlanError(
            f"boundary {partition.boundaries[0]} does not exceed the "
            f"initial state's value {initial_value}; prune the plan "
            f"with partition.pruned_above(initial_value)"
        )


class ForestRunner:
    """Simulates splitting trees for one (query, partition, ratios) setup.

    Parameters
    ----------
    query:
        The durability query (process, value function, horizon).
    partition:
        Level partition plan ``B``.  Every boundary must exceed the
        initial state's value; use ``partition.pruned_above(...)`` or
        let the engine do it.
    ratios:
        Fixed splitting ratio ``r`` (int) or per-level ratios for
        ``L_1 .. L_{m-1}``.
    rng:
        Random source driving all simulation.
    """

    def __init__(self, query: DurabilityQuery, partition: LevelPartition,
                 ratios, rng: random.Random):
        validate_plan(query, partition)
        self.query = query
        self.partition = partition
        self.ratios = normalize_ratios(ratios, partition.num_levels)
        self.rng = rng

    def run_root(self) -> RootRecord:
        """Simulate one root path and its full splitting tree."""
        query = self.query
        process = query.process
        step = process.step
        copy_state = process.copy_state
        value_fn = query.value_function
        level_of = self.partition.level_of
        ratios = self.ratios
        horizon = query.horizon
        num_levels = self.partition.num_levels
        rng = self.rng

        record = RootRecord(num_levels)
        landings = record.landings
        skips = record.skips
        max_level = 0
        # Per-split crossing counters: splits[k] = [level, crossed].
        splits = []
        # Work stack of pending path segments.
        stack = [(process.initial_state(), 0, 0, -1)]
        steps = 0
        hits = 0

        while stack:
            state, t, born, parent = stack.pop()
            crossed = False
            while t < horizon:
                t += 1
                state = step(state, t, rng)
                steps += 1
                value = value_fn(state, t)
                if value >= TARGET_VALUE:
                    hits += 1
                    max_level = num_levels
                    for k in range(born + 1, num_levels):
                        skips[k] += 1
                    crossed = True
                    break
                level = level_of(value)
                if level > born:
                    if level > max_level:
                        max_level = level
                    for k in range(born + 1, level):
                        skips[k] += 1
                    landings[level] += 1
                    ratio = ratios[level]
                    split_slot = len(splits)
                    splits.append([level, 0])
                    if t < horizon:
                        for _ in range(ratio):
                            stack.append(
                                (copy_state(state), t, level, split_slot)
                            )
                    # Landing exactly at the horizon leaves the offspring
                    # no time: mu(h) = 0, recorded implicitly by the
                    # split having zero crossings.
                    crossed = True
                    break
            if crossed and parent >= 0:
                splits[parent][1] += 1

        crossings = record.crossings
        for level, n_crossed in splits:
            crossings[level] += n_crossed
        record.hits = hits
        record.steps = steps
        record.max_level = max_level
        return record

    def run_cohort(self, n_roots: int) -> Cohort:
        """Simulate ``n_roots`` independent root trees; one row each."""
        if n_roots < 0:
            raise ValueError(f"n_roots must be >= 0, got {n_roots}")
        cohort = Cohort.zeros(n_roots, self.partition.num_levels)
        for i in range(n_roots):
            for rows, value in zip(cohort, self.run_root().row()):
                rows[i] = value
        return cohort

    def accumulate(self, aggregate, batch_roots: int,
                   max_steps=None, max_roots=None) -> bool:
        """Fold up to ``batch_roots`` more trees into ``aggregate``.

        Budgets are checked before every tree; returns True once a
        budget is exhausted (the sampler's signal to stop).
        """
        for _ in range(batch_roots):
            if max_roots is not None and aggregate.n_roots >= max_roots:
                return True
            if max_steps is not None and aggregate.steps >= max_steps:
                return True
            aggregate.add(self.run_root())
        return False


class VectorizedForestRunner:
    """Batched splitting-forest simulation over a vectorized process.

    Simulates whole *cohorts* of root trees in lock-step: at each time
    index every live path — root segments and all spawned offspring —
    advances through one :meth:`VectorizedProcess.step_batch` call.
    Offspring spawned at time ``t`` join the frontier and take their
    first step at ``t + 1``, exactly as in the scalar runner; only the
    interleaving of independent random draws differs, so all counter
    distributions are unchanged.

    Parameters match :class:`ForestRunner` except that ``rng`` is a
    :class:`numpy.random.Generator`.  Non-vectorized processes are
    wrapped in a :class:`~repro.processes.base.ScalarFallback`
    automatically, which keeps results correct (if not faster).
    """

    def __init__(self, query: DurabilityQuery, partition: LevelPartition,
                 ratios, rng: np.random.Generator):
        validate_plan(query, partition)
        self.query = query
        self.partition = partition
        self.ratios = normalize_ratios(ratios, partition.num_levels)
        self.rng = rng
        self.process = as_vectorized(query.process)
        self._bounds = np.asarray(partition.boundaries, dtype=np.float64)

    def run_cohort(self, n_roots: int, initial_states=None) -> Cohort:
        """Simulate ``n_roots`` root trees; one counter row per root.

        ``initial_states`` overrides the process's default time-0
        cohort with an explicit state array (one row per root, in root
        order) — the hook the fused fleet pass uses to compose a
        cohort with *non-uniform* per-member root counts
        (:meth:`~repro.processes.base.FusedBatch.initial_states_for`).
        """
        if n_roots < 0:
            raise ValueError(f"n_roots must be >= 0, got {n_roots}")
        num_levels = self.partition.num_levels
        if n_roots == 0:
            return Cohort.zeros(0, num_levels)
        process = self.process
        value_fn = self.query.value_function
        horizon = self.query.horizon
        bounds = self._bounds
        ratios = np.asarray(self.ratios, dtype=np.int64)
        rng = self.rng

        # Per time step with events: t, and the event rows' (root,
        # born) rows and tops.  The empty first entry keeps the final
        # concatenations typed when no event ever happens.
        times = [0]
        event_meta = [np.zeros((0, 2), dtype=np.int64)]
        event_top = [np.zeros(0, dtype=np.int64)]

        # Preallocated frontier buffers, one row per live path segment.
        frontier = _Frontier(process, n_roots,
                             initial_states=initial_states)

        for t in range(1, horizon + 1):
            if not frontier.size:
                break
            states = frontier.advance(t, rng)
            meta = frontier.live_meta()
            values = batch_values(value_fn, states, t)
            # The level each path is in now; a hit tops out at m.
            top = np.where(values >= TARGET_VALUE, num_levels,
                           bounds.searchsorted(values, side="right"))
            event = top > meta[:, 1]
            rows = event.nonzero()[0]
            if not len(rows):
                continue
            survivors = (~event).nonzero()[0]
            top = top[rows]
            ended = meta[rows]
            times.append(t)
            event_meta.append(ended)
            event_top.append(top)
            # Landings split into r offspring that start from the
            # landing state; landing exactly at the horizon leaves them
            # no time (mu(h) = 0: the split records zero crossings).
            landed = top < num_levels
            spawn = rows[landed] if t < horizon else rows[:0]
            if len(spawn):
                # Offspring keep the root and are born where it landed.
                child = ended[landed]
                child[:, 1] = top[landed]
                counts = ratios[child[:, 1]]
                frontier.rebuild(survivors,
                                 process.replicate(states, spawn, counts),
                                 child.repeat(counts, axis=0))
            else:
                frontier.rebuild(survivors, None, None)

        ended = np.concatenate(event_meta)
        return _fold_events(
            n_roots, self.ratios, horizon,
            np.repeat(times, [len(top) for top in event_top]),
            ended[:, 0], ended[:, 1], np.concatenate(event_top),
            frontier.live_meta()[:, 0])

    def accumulate(self, aggregate, batch_roots: int,
                   max_steps=None, max_roots=None) -> bool:
        """Fold up to ``batch_roots`` more trees into ``aggregate``.

        Budgets are enforced at cohort granularity: every started tree
        runs to completion (truncating would bias the counters), so
        ``max_steps`` can overshoot by at most one cohort.  Returns True
        once a budget is exhausted.
        """
        cohort = batch_roots
        if max_roots is not None:
            cohort = min(cohort, max_roots - aggregate.n_roots)
        if max_steps is not None and aggregate.steps >= max_steps:
            return True
        if cohort <= 0:
            return True
        aggregate.extend(self.run_cohort(cohort))
        return ((max_roots is not None
                 and aggregate.n_roots >= max_roots)
                or (max_steps is not None
                    and aggregate.steps >= max_steps))


def _fold_events(n_roots: int, ratios: tuple, horizon: int, times,
                 roots, born, top, live_roots) -> Cohort:
    """Per-root counters from a cohort's events.

    Event ``e``: a segment of root ``roots[e]`` born in level
    ``born[e]`` entered ``top[e]`` at time ``times[e]``; ``live_roots``
    are the segments still live at the horizon.  One ``bincount`` per
    counter applies the module docstring's rules: a hit or landing at
    ``(root, top)``, skips strictly between ``born`` and ``top`` (a
    difference array cumsummed along levels), a crossing at ``(root,
    born)`` for every offspring.  A segment costs ``end - start``
    steps, from 0 (a root) or its parent's landing time to its event
    or the horizon.
    """
    m = len(ratios)
    hit = top == m

    def level_counts(flat_index):
        return np.bincount(flat_index, minlength=n_roots * m).reshape(
            n_roots, m)

    landed = ~hit
    landings = level_counts(roots[landed] * m + top[landed])
    child = born > 0
    crossings = level_counts(roots[child] * m + born[child])
    width = m + 1
    edges = (np.bincount(roots * width + born + 1,
                         minlength=n_roots * width)
             - np.bincount(roots * width + top, minlength=n_roots * width))
    skips = np.cumsum(edges.reshape(n_roots, width), axis=1)[:, :m]
    max_levels = np.zeros(n_roots, dtype=np.int64)
    np.maximum.at(max_levels, roots, top)
    offspring = np.append(ratios, 0)[top] * (times < horizon)
    # Float weights: exact, since every partial sum is an integer < 2**53.
    steps = (np.bincount(roots, weights=times * (1 - offspring),
                         minlength=n_roots)
             + horizon * np.bincount(live_roots, minlength=n_roots))
    return Cohort(landings, skips, crossings,
                  np.bincount(roots[hit], minlength=n_roots),
                  max_levels, steps.astype(np.int64))
