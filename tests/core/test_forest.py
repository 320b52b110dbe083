"""Tests for the splitting-forest simulator's counter bookkeeping.

Scripted (deterministic) processes make every counter predictable by
hand; these scenarios pin down landings, skips, crossings, hits and
step accounting exactly, including the paper's corner cases (level
skipping, direct-to-target jumps, landings at the horizon).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.forest import ForestRunner, LevelPlanError
from repro.core.levels import LevelPartition
from repro.core.records import ForestAggregate
from repro.core.value_functions import DurabilityQuery
from repro.processes.markov_chain import birth_death_chain

from ..helpers import ScriptedProcess, identity_z


def scripted_query(script, beta=1.0, horizon=None, initial=0.0):
    process = ScriptedProcess(script, initial=initial)
    return DurabilityQuery.threshold(process, identity_z, beta=beta,
                                     horizon=horizon or len(script))


def run_single_root(query, boundaries, ratio):
    runner = ForestRunner(query, LevelPartition(boundaries), ratio,
                          random.Random(0))
    return runner.run_root()


class TestScriptedScenarios:
    def test_clean_two_level_ascent(self):
        # 0.2 -> 0.5 (land L1) -> 0.9 (land L2) -> 1.2 (hit), r = 2.
        record = run_single_root(
            scripted_query([0.2, 0.5, 0.9, 1.2]), [0.4, 0.8], ratio=2)
        assert record.landings == [0, 1, 2]
        assert record.skips == [0, 0, 0]
        assert record.crossings == [0, 2, 4]
        assert record.hits == 4
        assert record.steps == 2 + 2 * 1 + 4 * 1

    def test_level_skipping_path(self):
        # 0.2 -> 0.9 jumps straight over L1 into L2.
        record = run_single_root(
            scripted_query([0.2, 0.9, 1.2]), [0.4, 0.8], ratio=2)
        assert record.landings == [0, 0, 1]
        assert record.skips == [0, 1, 0]
        assert record.crossings == [0, 0, 2]
        assert record.hits == 2
        assert record.steps == 2 + 2

    def test_direct_jump_to_target(self):
        # One step straight to the target: skips recorded at every level.
        record = run_single_root(
            scripted_query([1.5]), [0.4, 0.8], ratio=2)
        assert record.landings == [0, 0, 0]
        assert record.skips == [0, 1, 1]
        assert record.crossings == [0, 0, 0]
        assert record.hits == 1
        assert record.steps == 1

    def test_landing_at_horizon_spawns_no_offspring(self):
        record = run_single_root(
            scripted_query([0.2, 0.5]), [0.4, 0.8], ratio=3)
        assert record.landings == [0, 1, 0]
        assert record.crossings == [0, 0, 0]
        assert record.hits == 0
        assert record.steps == 2

    def test_no_progress_leaves_counters_zero(self):
        record = run_single_root(
            scripted_query([0.2, 0.3]), [0.4, 0.8], ratio=3)
        assert record.landings == [0, 0, 0]
        assert record.skips == [0, 0, 0]
        assert record.hits == 0
        assert record.steps == 2

    def test_dip_below_born_level_does_not_resplit(self):
        # Path lands in L1, dips to L0, returns to L1 (no new split),
        # then lands in L2 and finally hits.
        record = run_single_root(
            scripted_query([0.2, 0.5, 0.2, 0.55, 0.9, 0.95, 1.0]),
            [0.4, 0.8], ratio=1)
        assert record.landings == [0, 1, 1]
        assert record.skips == [0, 0, 0]
        assert record.crossings == [0, 1, 1]
        assert record.hits == 1
        assert record.steps == 2 + 3 + 2

    def test_empty_partition_is_plain_path(self):
        record = run_single_root(scripted_query([0.5, 1.2]), [], ratio=4)
        assert record.hits == 1
        assert record.steps == 2

    def test_path_stops_at_first_hit(self):
        # Script continues beyond the hit, but simulation must not.
        record = run_single_root(
            scripted_query([1.0, 0.2, 0.3], horizon=3), [], ratio=1)
        assert record.hits == 1
        assert record.steps == 1


class TestValidation:
    def test_rejects_boundary_below_initial_value(self):
        query = scripted_query([0.9], initial=0.5)
        with pytest.raises(LevelPlanError):
            ForestRunner(query, LevelPartition([0.4]), 2, random.Random(0))

    def test_rejects_initially_satisfied_query(self):
        query = scripted_query([0.9], initial=1.5)
        with pytest.raises(LevelPlanError):
            ForestRunner(query, LevelPartition([0.4]), 2, random.Random(0))

    def test_accepts_boundary_above_initial_value(self):
        query = scripted_query([0.9], initial=0.5)
        runner = ForestRunner(query, LevelPartition([0.6]), 2,
                              random.Random(0))
        assert runner.run_root().landings == [0, 1]

    def test_run_cohort_rejects_negative(self):
        query = scripted_query([0.9])
        runner = ForestRunner(query, LevelPartition(), 1, random.Random(0))
        with pytest.raises(ValueError):
            runner.run_cohort(-1)


class TestReproducibility:
    def test_same_seed_same_records(self, small_chain_query,
                                    small_chain_partition):
        def run(seed):
            runner = ForestRunner(small_chain_query, small_chain_partition,
                                  3, random.Random(seed))
            return [rows.tolist() for rows in runner.run_cohort(20)]

        assert run(123) == run(123)
        assert run(123) != run(124)


@settings(max_examples=25, deadline=None)
@given(
    p_up=st.floats(min_value=0.15, max_value=0.45),
    # Boundary gaps stay above one walk step (1/8 of the value range),
    # so the one-unit-per-step chain can never skip a level.
    bounds=st.lists(st.sampled_from([0.25, 0.5, 0.75]),
                    min_size=0, max_size=3, unique=True),
    ratio=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_counter_invariants_hold_on_random_runs(p_up, bounds, ratio, seed):
    """Structural invariants of the forest counters on random chains."""
    chain = birth_death_chain(n=9, p_up=p_up, p_down=0.45, start=0)
    query = DurabilityQuery.threshold(chain, chain.state_value, beta=8.0,
                                      horizon=30)
    partition = LevelPartition(bounds)
    runner = ForestRunner(query, partition, ratio, random.Random(seed))
    aggregate = ForestAggregate(partition.num_levels)
    aggregate.extend(runner.run_cohort(15))

    for i in range(1, partition.num_levels):
        assert 0 <= aggregate.crossings[i] <= ratio * aggregate.landings[i]
        assert aggregate.skips[i] >= 0
    assert aggregate.hits >= 0
    # Path segments: one per root plus `ratio` per split.
    assert aggregate.steps <= (aggregate.n_roots + sum(
        ratio * c for c in aggregate.landings)) * query.horizon
    # The walk moves one unit per step: it cannot skip levels.
    assert aggregate.total_skips == 0
