"""Bootstrap variance estimation for g-MLSS (Section 4.2).

The general MLSS estimator has no closed-form variance, so the paper
resamples root paths with replacement and reads the variance off the
empirical distribution of the resampled estimates:

    Var_hat(tau_hat) = sum_i (tau_hat_i - tau_bar)^2 / N.

Because every root tree is summarised by a handful of integer counters,
kept as one row per root in the aggregate's per-root arrays
(:meth:`repro.core.records.ForestAggregate.per_root_matrices`), a
bootstrap replicate never re-simulates anything — it resamples counter
rows and refolds them through the estimator, vectorised with numpy.

All ``n_boot`` replicates evaluate as **one** gather + fold: the
resampled indices become an ``(n_boot, n_roots)`` multiplicity matrix
(one ``bincount``), every replicate's counter totals are a single
matrix product against the per-root matrices, and the estimator folds
over all replicate rows at once
(:func:`repro.core.gmlss.gmlss_estimates_from_total_rows`).  No Python
loop runs per replicate, so the bootstrap stays a rounding error next
to simulation even at large ``n_boot``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .records import ForestAggregate


@dataclass
class BootstrapResult:
    """Outcome of one bootstrap evaluation."""

    variance: float
    estimates: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.estimates.mean()) if self.estimates.size else 0.0

    @property
    def std_error(self) -> float:
        return float(np.sqrt(max(self.variance, 0.0)))


#: Bound on the multiplicity-matrix chunk (floats): replicates are
#: folded in chunks of ``_CHUNK_CELLS / n_roots`` rows, so peak memory
#: stays ~32 MB regardless of ``n_boot * n_roots``.
_CHUNK_CELLS = 4_000_000


def _resample_counts(rng: np.random.Generator, n_boot: int, n_roots: int,
                     n_draw: int) -> np.ndarray:
    """Multiplicity matrix of a block of bootstrap resamples.

    Row ``b`` counts how often each root was drawn in replicate ``b``
    (``n_draw`` draws with replacement).  Drawing the ``(n_boot,
    n_draw)`` index block in one call consumes the generator stream in
    the same order the per-replicate loop did, so a seeded run
    resamples the same root multisets; the bincount turns gathering +
    summing per replicate into one matrix product downstream.
    """
    indices = rng.integers(0, n_roots, size=(n_boot, n_draw))
    offsets = np.arange(n_boot, dtype=np.int64)[:, None] * n_roots
    flat = (indices + offsets).ravel()
    counts = np.bincount(flat, minlength=n_boot * n_roots)
    return counts.reshape(n_boot, n_roots).astype(np.float64)


def _replicate_chunks(n_boot: int, n_roots: int):
    """Replicate-row chunk sizes bounding peak multiplicity memory."""
    chunk = max(1, _CHUNK_CELLS // max(n_roots, 1))
    for start in range(0, n_boot, chunk):
        yield start, min(chunk, n_boot - start)


def bootstrap_variance(aggregate: ForestAggregate, ratios: tuple,
                       n_boot: int = 200, seed: Optional[int] = None,
                       n_draw: Optional[int] = None) -> BootstrapResult:
    """Bootstrap the g-MLSS estimator over per-root counter rows.

    Parameters
    ----------
    aggregate:
        Forest counters with per-root rows.
    ratios:
        Normalised per-level splitting ratios (index 0 unused).
    n_boot:
        Number of bootstrap replicates (the paper's ``N``).
    seed:
        Seed for the resampling RNG (independent of simulation RNG).
    n_draw:
        Roots per replicate; defaults to all of them.  When subsampling
        (``n_draw < n_roots``) the variance is rescaled by
        ``n_draw / n_roots`` so it still refers to the full-sample
        estimator.
    """
    # Imported here to avoid a circular import (gmlss imports this module).
    from .gmlss import gmlss_estimates_from_total_rows

    n_roots = aggregate.n_roots
    if n_roots < 2:
        return BootstrapResult(variance=0.0,
                               estimates=np.zeros(0, dtype=np.float64))
    if n_draw is None:
        n_draw = n_roots
    if n_draw < 1:
        raise ValueError(f"n_draw must be >= 1, got {n_draw}")
    if n_boot < 2:
        raise ValueError(f"n_boot must be >= 2, got {n_boot}")

    landings, skips, crossings, hits = aggregate.per_root_matrices()
    rng = np.random.default_rng(seed)
    estimates = np.empty(n_boot, dtype=np.float64)
    for start, block in _replicate_chunks(n_boot, n_roots):
        counts = _resample_counts(rng, block, n_roots, n_draw)
        estimates[start:start + block] = gmlss_estimates_from_total_rows(
            counts @ landings, counts @ skips, counts @ crossings,
            counts @ hits, float(n_draw), ratios)
    variance = float(estimates.var())
    if n_draw != n_roots:
        # A replicate of n_draw roots has variance ~ 1/n_draw; rescale
        # to the full-sample estimator's ~ 1/n_roots.
        variance *= n_draw / n_roots
    return BootstrapResult(variance=variance, estimates=estimates)


def bootstrap_curve_variances(aggregate: ForestAggregate, ratios: tuple,
                              n_boot: int = 200,
                              seed: Optional[int] = None) -> np.ndarray:
    """Bootstrap variances for *all* boundary-crossing estimates at once.

    The durability-curve reader needs a variance per grid level, i.e.
    per prefix of the g-MLSS product (Eq. 8).  One resampling pass is
    enough: every replicate refolds the resampled counters through all
    prefixes simultaneously, so the cost is the same as bootstrapping
    the final estimate alone.  Returns an array of length
    ``aggregate.num_levels`` aligned with
    :func:`repro.core.gmlss.gmlss_prefix_estimates`.
    """
    from .gmlss import gmlss_prefix_estimates_from_total_rows

    m = aggregate.num_levels
    n_roots = aggregate.n_roots
    if n_roots < 2:
        return np.zeros(m, dtype=np.float64)
    if n_boot < 2:
        raise ValueError(f"n_boot must be >= 2, got {n_boot}")

    landings, skips, crossings, hits = aggregate.per_root_matrices()
    rng = np.random.default_rng(seed)
    estimates = np.empty((n_boot, m), dtype=np.float64)
    for start, block in _replicate_chunks(n_boot, n_roots):
        counts = _resample_counts(rng, block, n_roots, n_roots)
        estimates[start:start + block] = \
            gmlss_prefix_estimates_from_total_rows(
                counts @ landings, counts @ skips, counts @ crossings,
                counts @ hits, float(n_roots), ratios)
    return estimates.var(axis=0)
