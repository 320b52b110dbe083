"""Per-root forest counters pinned at fixed seeds.

Every estimator and the bootstrap read nothing but the per-root counter
rows a forest run folds into its :class:`ForestAggregate`.  These tests
pin those rows — ``per_root_matrices()``, ``steps`` and
``level_reach_counts()`` after ``accumulate`` — for one run of each
forest path, so any change to how the runners or the aggregate fold
counters must reproduce them bit for bit.  The per-root matrices are
pinned by a SHA-256 digest of their bytes.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.core.fleet import (FleetThresholdValue, _FleetQuery,
                              _mlss_grow_adaptive)
from repro.core.forest import ForestRunner, VectorizedForestRunner
from repro.core.levels import LevelPartition, normalize_ratios
from repro.core.pool import PooledForestRunner, WorkerPool
from repro.core.quality import RelativeErrorTarget
from repro.core.records import ForestAggregate
from repro.core.value_functions import DurabilityQuery
from repro.processes import (RandomWalkProcess, ScalarFallback,
                             TandemQueueProcess, as_vectorized,
                             birth_death_chain, fuse_processes)
from repro.processes.markov_chain import MarkovChainProcess

from ..helpers import TwoBranchProcess


def fingerprint(aggregate):
    """``(n_roots, steps, level_reach_counts, digest of the rows)``."""
    digest = hashlib.sha256()
    for matrix in aggregate.per_root_matrices():
        digest.update(np.ascontiguousarray(matrix).tobytes())
    return (aggregate.n_roots, aggregate.steps,
            aggregate.level_reach_counts(), digest.hexdigest()[:16])


def chain_query(p_up=0.25):
    chain = birth_death_chain(n=13, p_up=p_up, p_down=0.35, start=0)
    return DurabilityQuery.threshold(chain, chain.state_value, beta=12.0,
                                     horizon=60)


def walk_query():
    return DurabilityQuery.threshold(RandomWalkProcess(0.45),
                                     RandomWalkProcess.position,
                                     beta=9.0, horizon=50)


def queue_query():
    return DurabilityQuery.threshold(TandemQueueProcess(),
                                     TandemQueueProcess.queue2_length,
                                     beta=10.0, horizon=40)


def fallback_query():
    # TwoBranchProcess has no batched kernel: the vectorized runner
    # steps it through ScalarFallback.
    process = TwoBranchProcess([0.2, 0.45, 0.7, 0.9, 1.1],
                               [0.1, 0.5, 0.3, 0.75, 0.6], p_first=0.4)
    return DurabilityQuery.threshold(process, TwoBranchProcess.value,
                                     beta=1.0, horizon=5)


def accumulate(runner, num_levels, batch_roots, rounds):
    aggregate = ForestAggregate(num_levels)
    for _ in range(rounds):
        runner.accumulate(aggregate, batch_roots)
    return aggregate


def vectorized(query, boundaries, ratio, seed, batch_roots=150,
               rounds=3):
    partition = LevelPartition(boundaries)
    runner = VectorizedForestRunner(query, partition, ratio,
                                    np.random.default_rng(seed))
    return accumulate(runner, partition.num_levels, batch_roots, rounds)


CASES = {
    "random_walk": lambda: vectorized(walk_query(), [0.3, 0.6], 3, 11),
    "birth_death": lambda: vectorized(chain_query(), [4 / 12, 8 / 12], 3,
                                      12),
    "birth_death_skipping": lambda: vectorized(
        chain_query(), [0.25, 0.3, 0.6, 0.62], [1, 2, 3, 2, 4], 13),
    "tandem_queue": lambda: vectorized(queue_query(), [0.4, 0.7], 4, 14),
    "scalar_fallback": lambda: vectorized(fallback_query(), [0.4, 0.8],
                                          2, 15, batch_roots=40),
    "scalar_runner": lambda: accumulate(
        ForestRunner(chain_query(), LevelPartition([4 / 12, 8 / 12]), 3,
                     random.Random(16)), 3, 50, 4),
}

#: Recorded with the list-based bookkeeping the array fold replaced;
#: any later change to how counters are folded must reproduce them.
PINNED = {
    "random_walk": (450, 47254, [450, 213, 163, 137], "c9015e69518e01c4"),
    "birth_death": (450, 51217, [450, 304, 121, 35], "38dd86f2670c4a7f"),
    "birth_death_skipping": (450, 91100, [450, 392, 358, 170, 170, 62],
                             "5ea6631fa0c18ff0"),
    "tandem_queue": (450, 41458, [450, 283, 189, 127], "96dab6bea67cee3e"),
    "scalar_fallback": (120, 1054, [120, 120, 47, 47], "e5345c54017843f9"),
    "scalar_runner": (200, 21636, [200, 126, 49, 10], "614032f96ed26de5"),
    "pooled_fork": (214, 23778, [214, 135, 49, 15], "7c69460fa5989388"),
    "fleet_adaptive": [
        (2600, 226714, [2600, 1098, 193, 27], "e36bebcd329be01c"),
        (1000, 114385, [1000, 676, 264, 77], "6363c971008d6fc9"),
        (200, 26973, [200, 154, 88, 50], "a1067978594205c8"),
    ],
}


def test_fallback_case_steps_through_scalar_fallback():
    assert isinstance(as_vectorized(fallback_query().process),
                      ScalarFallback)


@pytest.mark.parametrize("case", sorted(CASES))
def test_in_process_counters_are_pinned(case):
    assert fingerprint(CASES[case]()) == PINNED[case]


def test_pooled_fork_counters_are_pinned():
    query = chain_query()
    partition = LevelPartition([4 / 12, 8 / 12])
    with WorkerPool(n_workers=2, pool="fork") as pool:
        runner = PooledForestRunner(pool, query, partition, 3, "vectorized",
                                    seed=17, roots_per_task=64,
                                    tasks_per_round=3)
        try:
            aggregate = ForestAggregate(partition.num_levels)
            runner.accumulate(aggregate, 1)
            # A strict step budget makes the last round's tasks capped.
            runner.accumulate(aggregate, 1, max_steps=aggregate.steps
                              + 3_000)
        finally:
            runner.close()
    assert fingerprint(aggregate) == PINNED["pooled_fork"]


def test_adaptive_fleet_counters_are_pinned():
    chains = [birth_death_chain(n=13, p_up=p_up, p_down=0.35, start=0)
              for p_up in (0.2, 0.26, 0.3)]
    fused = fuse_processes(chains)
    partition = LevelPartition([4 / 12, 8 / 12])
    ratios = normalize_ratios(3, partition.num_levels)
    query = _FleetQuery(fused, FleetThresholdValue(
        MarkovChainProcess.state_index, (12.0,) * 3), 60)
    runner = VectorizedForestRunner(query, partition, ratios,
                                    np.random.default_rng(18))
    aggregates = [ForestAggregate(partition.num_levels) for _ in chains]
    _mlss_grow_adaptive(fused, runner, aggregates,
                        RelativeErrorTarget(0.2), None, 4_000, 100, 800,
                        50, 19, ratios)
    roots = [aggregate.n_roots for aggregate in aggregates]
    assert len(set(roots)) == len(roots)  # uneven per-member roots
    assert [fingerprint(a) for a in aggregates] == PINNED["fleet_adaptive"]
