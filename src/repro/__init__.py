"""repro — Multi-Level Splitting Sampling for durability prediction queries.

A from-scratch reproduction of Gao, Xu, Agarwal and Yang, "Efficiently
Answering Durability Prediction Queries" (SIGMOD 2021): the MLSS
samplers (simple and general), level-plan optimization, the baseline
samplers (SRS, importance sampling), the paper's experimental substrates
(tandem queues, compound Poisson processes, an LSTM-MDN sequence model),
and a DBMS-embedded query pipeline.

Quick start::

    from repro import DurabilityQuery, answer_durability_query
    from repro.processes import TandemQueueProcess

    queue = TandemQueueProcess()
    query = DurabilityQuery.threshold(
        queue, TandemQueueProcess.queue2_length, beta=20, horizon=500)
    estimate = answer_durability_query(query, method="auto",
                                       max_steps=500_000, seed=42)
    print(estimate.summary())

The engine service
------------------

``answer_durability_query`` re-runs plan search and simulation from
scratch on every call.  Multi-query workloads — ranking durable
objects, screening fleets against SLA thresholds, charting durability
against a threshold grid — should hold a stateful
:class:`repro.engine.DurabilityEngine` instead::

    from repro import DurabilityEngine, ExecutionPolicy

    engine = DurabilityEngine(ExecutionPolicy(max_steps=500_000, seed=42))
    estimate = engine.answer(query)                 # plans are cached
    curve = engine.durability_curve(query, thresholds=range(10, 26))
    answers = engine.answer_batch(queries)          # shared cohorts

"What to ask" (:class:`DurabilityQuery`) is separated from "how to run
it" (:class:`repro.engine.ExecutionPolicy` — method, backend, ratio,
budgets, quality target, seed policy; serializable via
``to_dict``/``from_dict``).  The engine memoizes level plans in a
:class:`repro.engine.PlanCache` keyed by (process family, horizon,
initial value, threshold bucket), so repeated query shapes skip the
greedy plan search.  ``durability_curve`` answers an entire threshold
grid from **one** simulation pass — running path maxima under SRS,
per-level root records under MLSS — instead of one run per threshold,
and ``answer_batch`` groups compatible queries into cohorts that share
a pass the same way (see ``benchmarks/bench_engine_api.py`` for the
measured speedups).

Simulation backends
-------------------

``answer_durability_query`` (and each sampler) takes a ``backend``
option selecting how paths are simulated:

* ``"auto"`` (engine default) — the NumPy batch backend when the
  process implements the batched contract, the scalar loop otherwise;
* ``"vectorized"`` — force batching (scalar-only processes are wrapped
  in a ``ScalarFallback``);
* ``"scalar"`` — the original one-path-at-a-time loop.

Both backends draw the same distributions — batching only reorders
independent draws — so estimates are exchangeable; the vectorized
backend is ~5-12x more steps/second on the bundled workloads (see
``benchmarks/bench_vectorized_backend.py``).

A process opts into batching by implementing
:class:`repro.processes.base.VectorizedProcess`: ``initial_states(n)``
returns a NumPy state array (one row per path), ``step_batch(states,
t, rng)`` advances every row with a ``numpy.random.Generator``, and
``replicate(states, indices, counts)`` clones entrance states for the
splitting samplers.  The bundled random-walk, Gaussian-walk, GBM, AR,
Markov-chain and tandem-queue processes are vectorized natively;
``register_batch_z`` vectorizes the state evaluations value functions
are built from.
"""

from .core import (ConfidenceIntervalTarget, DurabilityCurve,
                   DurabilityEstimate,
                   DurabilityQuery, GMLSSSampler, ISSampler, LevelPartition,
                   NeverTarget, RelativeErrorTarget, SMLSSSampler,
                   SRSSampler, ThresholdValueFunction,
                   adaptive_greedy_partition, answer_durability_query,
                   balanced_growth_partition, cross_entropy_tilt)
from .engine import DurabilityEngine, ExecutionPolicy, PlanCache

__version__ = "1.2.0"

__all__ = [
    "ConfidenceIntervalTarget", "DurabilityCurve", "DurabilityEngine",
    "DurabilityEstimate", "DurabilityQuery",
    "ExecutionPolicy",
    "GMLSSSampler", "ISSampler", "LevelPartition", "NeverTarget",
    "PlanCache",
    "RelativeErrorTarget", "SMLSSSampler", "SRSSampler",
    "ThresholdValueFunction", "adaptive_greedy_partition",
    "answer_durability_query", "balanced_growth_partition",
    "cross_entropy_tilt", "__version__",
]
