"""Per-root-tree counters for splitting samplers.

MLSS grows a tree of sample paths from every root path (Figure 1 in the
paper).  Everything both estimators need is a small set of integer
counters per root tree:

* ``hits`` — number of target hits in the tree (the paper's
  ``N_m^<k>`` for root ``k``);
* ``landings[i]`` — number of splitting states in level ``L_i``
  contributed by this tree (elements of ``H_i``);
* ``skips[i]`` — number of paths in this tree that crossed
  ``beta_{i+1}`` without landing in ``L_i`` (the paper's
  ``n_skip_i``);
* ``crossings[i]`` — total number of *direct* offspring of level-``i``
  splits that crossed ``beta_{i+1}``; with the per-level ratio ``r_i``
  this yields ``sum_{h in H_i} mu(h) = crossings[i] / r_i``.
* ``max_level`` — the highest level index any path of this tree ever
  reached (``m`` = the target).  This per-level maximum is what lets a
  single forest run answer a whole *grid* of thresholds at once: the
  fraction of trees with ``max_level >= i`` is a direct diagnostic of
  boundary-``i`` reachability, and the durability-curve machinery reads
  its per-threshold answers off the same counters.
* ``steps`` — simulation steps the tree cost.

The one representation of these counters is a :class:`Cohort` of
``int64`` arrays, one row per root tree: runners return cohorts, pooled
workers write them into :class:`~repro.core.pool.CounterBlock` rows,
and :class:`ForestAggregate` keeps folded rows in growable arrays.
Keeping the counters per root is what makes the s-MLSS variance
estimator (Eq. 6) and the g-MLSS bootstrap (Section 4.2) possible
without re-simulating anything.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class RootRecord:
    """Counters for one root path's splitting tree, as Python lists.

    The scalar reference :class:`~repro.core.forest.ForestRunner`
    builds one per tree.  Arrays are indexed by level ``0 .. m-1``;
    index 0 is unused (roots start in ``L_0``; there are no landings
    into or skips over it).
    """

    __slots__ = ("hits", "steps", "landings", "skips", "crossings",
                 "max_level")

    def __init__(self, num_levels: int):
        self.hits = 0
        self.steps = 0
        self.landings = [0] * num_levels
        self.skips = [0] * num_levels
        self.crossings = [0] * num_levels
        self.max_level = 0

    def row(self) -> tuple:
        """The counters in :class:`Cohort` field order."""
        return (self.landings, self.skips, self.crossings, self.hits,
                self.max_level, self.steps)

    def __repr__(self) -> str:
        return (f"RootRecord(hits={self.hits}, steps={self.steps}, "
                f"landings={self.landings}, skips={self.skips}, "
                f"crossings={self.crossings}, max_level={self.max_level})")


class Cohort(NamedTuple):
    """Per-root counters of ``n`` root trees, one row per root.

    Three ``(n, m)`` level matrices and three ``(n,)`` vectors, all
    ``int64`` — exactly the :class:`~repro.core.pool.CounterBlock` row
    layout, so in-process and pooled runs share one representation.
    """

    landings: np.ndarray
    skips: np.ndarray
    crossings: np.ndarray
    hits: np.ndarray
    max_levels: np.ndarray
    steps: np.ndarray

    @staticmethod
    def shapes(n_roots: int, num_levels: int) -> tuple:
        """Each field's shape, in field order."""
        level, vector = (n_roots, num_levels), (n_roots,)
        return (level, level, level, vector, vector, vector)

    @classmethod
    def zeros(cls, n_roots: int, num_levels: int) -> "Cohort":
        return cls(*(np.zeros(shape, dtype=np.int64)
                     for shape in cls.shapes(n_roots, num_levels)))

    @property
    def n_roots(self) -> int:
        return len(self.hits)

    def split(self, counts) -> list:
        """Per-owner row runs: owner ``j`` gets the next ``counts[j]``
        rows (the layout of a fused fleet cohort)."""
        counts = np.asarray(counts, dtype=np.int64)
        total = int(counts.sum())
        if total != self.n_roots:
            raise ValueError(
                f"{self.n_roots} rows for owner runs totalling {total}")
        return [Cohort(*(rows[stop - count:stop] for rows in self))
                for count, stop in zip(counts, np.cumsum(counts))]


class ForestAggregate:
    """Accumulated counters over many root trees.

    Maintains run totals (for point estimates) and per-root rows (for
    variance estimation and bootstrapping).  The rows live in one
    ``int64`` buffer that grows geometrically; its columns are
    ``landings | skips | crossings | hits | max_level``.
    """

    __slots__ = ("num_levels", "n_roots", "hits", "hits_sq_sum", "steps",
                 "landings", "skips", "crossings", "_rows")

    def __init__(self, num_levels: int):
        if num_levels < 1:
            raise ValueError(f"num_levels must be >= 1, got {num_levels}")
        self.num_levels = num_levels
        self.n_roots = 0
        self.hits = 0
        self.hits_sq_sum = 0  # running sum of squared per-root hits
        self.steps = 0
        self.landings = [0] * num_levels
        self.skips = [0] * num_levels
        self.crossings = [0] * num_levels
        self._rows = np.zeros((0, 3 * num_levels + 2), dtype=np.int64)

    def add(self, record: RootRecord) -> None:
        """Fold one scalar-runner tree in (a one-row :meth:`extend`)."""
        self.extend(Cohort(*([value] for value in record.row())))

    def extend(self, cohort: Cohort) -> None:
        """Fold a cohort of per-root rows in.

        Every shape is checked before anything changes, so a malformed
        cohort raises :class:`ValueError` and leaves the aggregate as
        it was.
        """
        cohort = Cohort(*cohort)
        m = self.num_levels
        n = len(cohort.hits)
        for name, rows, expected in zip(Cohort._fields, cohort,
                                        Cohort.shapes(n, m)):
            if np.shape(rows) != expected:
                raise ValueError(
                    f"{name} has shape {np.shape(rows)}; a cohort of {n} "
                    f"roots over {m} levels needs {expected}")
        if n == 0:
            return
        landings, skips, crossings, hits, max_levels, steps = (
            np.asarray(rows, dtype=np.int64) for rows in cohort)
        total = self.n_roots + n
        if total > len(self._rows):
            grown = np.empty((max(total, 2 * len(self._rows)),
                              self._rows.shape[1]), dtype=np.int64)
            grown[:self.n_roots] = self._rows[:self.n_roots]
            self._rows = grown
        dest = self._rows[self.n_roots:total]
        dest[:, :m] = landings
        dest[:, m:2 * m] = skips
        dest[:, 2 * m:3 * m] = crossings
        dest[:, 3 * m] = hits
        dest[:, 3 * m + 1] = max_levels
        self.n_roots = total
        self.hits += int(hits.sum())
        self.hits_sq_sum += int(hits @ hits)
        self.steps += int(steps.sum())
        for totals, matrix in ((self.landings, landings),
                               (self.skips, skips),
                               (self.crossings, crossings)):
            totals[1:] = [total + added for total, added in zip(
                totals[1:], matrix[:, 1:].sum(axis=0).tolist())]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def total_skips(self) -> int:
        return sum(self.skips)

    def hit_count_variance(self) -> float:
        """Unbiased sample variance of per-root hit counts (Eq. 6).

        Computed from running sums, so checking the stopping rule after
        every batch stays O(1) regardless of how many roots have run.
        """
        n = self.n_roots
        if n < 2:
            return 0.0
        mean = self.hits / n
        return (self.hits_sq_sum - n * mean * mean) / (n - 1)

    def level_reach_counts(self) -> list:
        """``counts[i]`` = number of root trees whose paths ever reached
        level ``i`` (index ``num_levels`` = the target).

        Derived from the per-root ``max_level`` bookkeeping; the
        fraction ``counts[i] / n_roots`` estimates the probability of
        ever crossing boundary ``beta_i``, which is what the
        durability-curve readers consume.
        """
        m = self.num_levels
        counts = np.bincount(self._rows[:self.n_roots, 3 * m + 1],
                             minlength=m + 1)
        # Suffix-sum: reaching level j implies reaching every i <= j.
        return np.cumsum(counts[::-1])[::-1].tolist()

    def per_root_matrices(self):
        """Per-root ``(landings, skips, crossings, hits)`` float arrays.

        Shapes: ``(n_roots, num_levels)`` for the three level matrices
        and ``(n_roots,)`` for hits.  Used by the bootstrap.
        """
        m = self.num_levels
        rows = self._rows[:self.n_roots]
        return (rows[:, :m].astype(np.float64),
                rows[:, m:2 * m].astype(np.float64),
                rows[:, 2 * m:3 * m].astype(np.float64),
                rows[:, 3 * m].astype(np.float64))

    def __repr__(self) -> str:
        return (f"ForestAggregate(n_roots={self.n_roots}, hits={self.hits}, "
                f"steps={self.steps}, landings={self.landings}, "
                f"skips={self.skips})")
