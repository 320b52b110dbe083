"""One-shot query answering: one call to a fresh engine.

:func:`answer_durability_query` packs its arguments into an
:class:`~repro.engine.ExecutionPolicy` and answers through a new
:class:`~repro.engine.DurabilityEngine`.  Long-running or multi-query
callers should hold an engine instead: it memoizes level plans across
calls, groups compatible queries into shared simulation cohorts
(``answer_batch``) and answers whole threshold grids in one pass
(``durability_curve``).
"""

from __future__ import annotations

from typing import Optional

from ..engine.policy import ExecutionPolicy
from ..engine.service import DurabilityEngine
from .estimates import DurabilityEstimate
from .levels import LevelPartition
from .quality import QualityTarget
from .value_functions import DurabilityQuery


def answer_durability_query(
        query: DurabilityQuery,
        method: str = "auto",
        partition: Optional[LevelPartition] = None,
        num_levels: Optional[int] = None,
        ratio=3,
        quality: Optional[QualityTarget] = None,
        max_steps: Optional[int] = None,
        max_roots: Optional[int] = None,
        seed: Optional[int] = None,
        trial_steps: int = 20000,
        record_trace: bool = False,
        backend: str = "auto",
        sampler_options: Optional[dict] = None) -> DurabilityEstimate:
    """Answer ``Q(q, s)`` with a fresh engine and no plan cache.

    The arguments are the :class:`~repro.engine.ExecutionPolicy`
    fields of the same names (``method`` is ``"srs"``, ``"smlss"``,
    ``"gmlss"`` or ``"auto"``; at least one of ``quality``,
    ``max_steps`` and ``max_roots`` must be given), plus an explicit
    level plan ``partition``, which is pruned so every boundary exceeds
    the initial state's value.
    """
    policy = ExecutionPolicy(
        method=method, backend=backend, ratio=ratio, num_levels=num_levels,
        trial_steps=trial_steps, quality=quality, max_steps=max_steps,
        max_roots=max_roots, seed=seed, record_trace=record_trace,
        use_plan_cache=False, sampler_options=sampler_options)
    return DurabilityEngine(policy).answer(query, partition=partition)
