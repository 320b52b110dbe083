"""Tests for the vectorized simulation backend across the core stack.

The vectorized forest runner must reproduce the scalar runner's counter
bookkeeping *exactly* on deterministic processes (same records, path by
path) and *in distribution* on stochastic ones; the samplers must honour
budgets and stopping rules identically on both backends.
"""

import random

import numpy as np
import pytest

from repro.core.analytic import hitting_probability
from repro.core.balanced import pilot_max_values
from repro.core.engine import answer_durability_query
from repro.core.forest import (ForestRunner, LevelPlanError,
                               VectorizedForestRunner)
from repro.core.gmlss import GMLSSSampler, gmlss_point_estimate
from repro.core.greedy import adaptive_greedy_partition
from repro.core.levels import LevelPartition
from repro.core.optimizer import evaluate_partition
from repro.core.records import ForestAggregate
from repro.core.smlss import SMLSSSampler, smlss_point_estimate
from repro.core.srs import SRSSampler
from repro.core.value_functions import DurabilityQuery
from repro.processes.markov_chain import birth_death_chain

from ..helpers import ScriptedProcess, assert_close_to, identity_z


def scripted_query(script, beta=1.0, horizon=None, initial=0.0):
    process = ScriptedProcess(script, initial=initial)
    return DurabilityQuery.threshold(process, identity_z, beta=beta,
                                     horizon=horizon or len(script))


def record_tuple(record):
    return (record.hits, record.steps, record.landings, record.skips,
            record.crossings, record.max_level)


def row_tuple(cohort, i):
    """:func:`record_tuple` of row ``i`` of a cohort."""
    return (int(cohort.hits[i]), int(cohort.steps[i]),
            cohort.landings[i].tolist(), cohort.skips[i].tolist(),
            cohort.crossings[i].tolist(), int(cohort.max_levels[i]))


class TestVectorizedForestBookkeeping:
    """Deterministic scripts: batched records must equal scalar ones."""

    SCENARIOS = [
        # (script, boundaries, ratio) — mirrors test_forest scenarios.
        ([0.2, 0.5, 0.9, 1.2], [0.4, 0.8], 2),          # clean ascent
        ([0.2, 0.9, 1.2], [0.4, 0.8], 2),               # level skipping
        ([1.5], [0.4, 0.8], 2),                         # direct to target
        ([0.2, 0.5], [0.4, 0.8], 3),                    # land at horizon
        ([0.2, 0.3], [0.4, 0.8], 3),                    # no progress
        ([0.2, 0.5, 0.2, 0.55, 0.9, 0.95, 1.0], [0.4, 0.8], 1),  # dip
        ([0.5, 1.2], [], 4),                            # empty partition
    ]

    @pytest.mark.parametrize("script,boundaries,ratio", SCENARIOS)
    def test_matches_scalar_records(self, script, boundaries, ratio):
        query = scripted_query(script)
        partition = LevelPartition(boundaries)
        scalar = ForestRunner(query, partition, ratio,
                              random.Random(0)).run_root()
        batched = VectorizedForestRunner(
            query, partition, ratio,
            np.random.default_rng(0)).run_cohort(1)
        assert row_tuple(batched, 0) == record_tuple(scalar)

    def test_cohort_records_are_per_root(self):
        query = scripted_query([0.2, 0.5, 0.9, 1.2])
        partition = LevelPartition([0.4, 0.8])
        cohort = VectorizedForestRunner(
            query, partition, 2, np.random.default_rng(0)).run_cohort(5)
        assert cohort.n_roots == 5
        reference = ForestRunner(query, partition, 2,
                                 random.Random(0)).run_root()
        for i in range(5):
            assert row_tuple(cohort, i) == record_tuple(reference)

    def test_validates_plan_like_scalar_runner(self):
        query = scripted_query([0.9], initial=0.5)
        with pytest.raises(LevelPlanError):
            VectorizedForestRunner(query, LevelPartition([0.4]), 2,
                                   np.random.default_rng(0))

    def test_empty_cohort(self):
        query = scripted_query([0.9])
        runner = VectorizedForestRunner(query, LevelPartition(), 1,
                                        np.random.default_rng(0))
        cohort = runner.run_cohort(0)
        assert cohort.n_roots == 0
        assert [rows.shape for rows in cohort] == [(0, 1)] * 3 + [(0,)] * 3
        with pytest.raises(ValueError):
            runner.run_cohort(-1)

    def test_counter_means_agree_on_stochastic_chain(self):
        """Per-level counter means from both backends agree (z-test).

        Counter totals of a single run are noisy (trees are clustered),
        so compare the per-seed means of every counter across several
        independent runs of each backend.
        """
        chain = birth_death_chain(n=13, p_up=0.25, p_down=0.35, start=0)
        query = DurabilityQuery.threshold(chain, chain.state_value,
                                          beta=12.0, horizon=60)
        partition = LevelPartition([4 / 12, 8 / 12])
        n_roots, n_seeds = 400, 10

        def totals(seed, vectorized):
            aggregate = ForestAggregate(partition.num_levels)
            if vectorized:
                runner = VectorizedForestRunner(
                    query, partition, 3, np.random.default_rng(seed))
                aggregate.extend(runner.run_cohort(n_roots))
            else:
                runner = ForestRunner(query, partition, 3,
                                      random.Random(seed))
                aggregate.extend(runner.run_cohort(n_roots))
            return np.asarray(aggregate.landings + aggregate.skips
                              + aggregate.crossings
                              + [aggregate.hits, aggregate.steps],
                              dtype=float)

        scalar = np.stack([totals(s, False) for s in range(n_seeds)])
        batched = np.stack([totals(s, True) for s in range(n_seeds)])
        se = np.sqrt(scalar.var(axis=0, ddof=1) / n_seeds
                     + batched.var(axis=0, ddof=1) / n_seeds)
        delta = np.abs(scalar.mean(axis=0) - batched.mean(axis=0))
        assert (delta <= 4.5 * se + 1e-9).all(), (delta, se)


class TestVectorizedSRS:
    def test_agrees_with_exact_answer(self, small_chain_query,
                                      small_chain_exact):
        estimate = SRSSampler(backend="vectorized").run(
            small_chain_query, max_roots=20_000, seed=1)
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_max_roots_exact(self, small_chain_query):
        estimate = SRSSampler(batch_roots=300, backend="vectorized").run(
            small_chain_query, max_roots=1000, seed=2)
        assert estimate.n_roots == 1000

    def test_max_steps_overshoot_bounded(self, small_chain_query):
        estimate = SRSSampler(batch_roots=500, backend="vectorized").run(
            small_chain_query, max_steps=30_000, seed=3)
        # The budget is enforced between cohorts, and the final cohort
        # is sized from the remaining budget, so the overshoot stays
        # below one cohort's worth of full-horizon paths.
        assert estimate.steps >= 30_000
        assert estimate.steps < 30_000 + 500 * small_chain_query.horizon

    def test_quality_target_stops_early(self, small_chain_query):
        from repro.core.quality import RelativeErrorTarget
        estimate = SRSSampler(backend="vectorized").run(
            small_chain_query, quality=RelativeErrorTarget(target=0.3),
            max_roots=10 ** 6, seed=4)
        assert estimate.relative_error() <= 0.3 + 1e-9
        assert estimate.n_roots < 10 ** 6

    def test_trace_recorded(self, small_chain_query):
        estimate = SRSSampler(batch_roots=200, record_trace=True,
                              backend="vectorized").run(
            small_chain_query, max_roots=600, seed=5)
        trace = estimate.details["trace"]
        assert len(trace) >= 2
        assert trace[-1].n_roots == estimate.n_roots

    def test_fallback_path_for_scalar_process(self):
        """backend="vectorized" works even without native batching."""
        query = scripted_query([0.5, 1.2])
        estimate = SRSSampler(backend="vectorized").run(
            query, max_roots=50, seed=6)
        assert estimate.probability == 1.0
        assert estimate.steps == 100  # every path hits at t = 2


class TestVectorizedMLSSSamplers:
    def test_smlss_agrees_with_exact(self, small_chain_query,
                                     small_chain_partition,
                                     small_chain_exact):
        estimate = SMLSSSampler(small_chain_partition, ratio=3,
                                backend="vectorized").run(
            small_chain_query, max_roots=3000, seed=7)
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)
        assert estimate.details["skipping_detected"] is False

    def test_gmlss_agrees_with_exact(self, small_chain_query,
                                     small_chain_partition,
                                     small_chain_exact):
        estimate = GMLSSSampler(small_chain_partition, ratio=3,
                                backend="vectorized").run(
            small_chain_query, max_roots=3000, seed=8)
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)
        assert estimate.variance > 0.0

    def test_max_roots_respected(self, small_chain_query,
                                 small_chain_partition):
        estimate = SMLSSSampler(small_chain_partition, ratio=3,
                                batch_roots=128, backend="vectorized").run(
            small_chain_query, max_roots=500, seed=9)
        assert estimate.n_roots == 500

    def test_gmlss_quality_stopping(self, small_chain_query,
                                    small_chain_partition):
        from repro.core.quality import RelativeErrorTarget
        estimate = GMLSSSampler(small_chain_partition, ratio=3,
                                backend="vectorized").run(
            small_chain_query, quality=RelativeErrorTarget(target=0.3),
            max_roots=10 ** 6, seed=10)
        assert estimate.relative_error() <= 0.3 + 1e-9
        assert estimate.n_roots < 10 ** 6


class TestVectorizedPlanSearch:
    def test_evaluate_partition_backends_agree(self, small_chain_query,
                                               small_chain_partition):
        scalar = evaluate_partition(small_chain_query,
                                    small_chain_partition, ratio=3,
                                    trial_steps=30_000, seed=11,
                                    backend="scalar")
        batched = evaluate_partition(small_chain_query,
                                     small_chain_partition, ratio=3,
                                     trial_steps=30_000, seed=11,
                                     backend="vectorized")
        assert batched.steps >= 30_000
        assert batched.estimate == pytest.approx(scalar.estimate, rel=0.8)
        assert batched.cost_per_root == pytest.approx(
            scalar.cost_per_root, rel=0.25)

    def test_greedy_search_vectorized_reproducible(self, small_chain_query):
        runs = [adaptive_greedy_partition(
            small_chain_query, ratio=3, trial_steps=8_000, seed=11,
            backend="vectorized") for _ in range(2)]
        assert runs[0].partition == runs[1].partition
        assert runs[0].search_steps == runs[1].search_steps
        assert runs[0].partition.num_levels >= 2

    def test_pilot_max_values_vectorized(self, small_chain_query):
        maxima = pilot_max_values(small_chain_query, n_paths=2000, seed=12,
                                  backend="vectorized")
        assert len(maxima) == 2000
        assert maxima == sorted(maxima)
        assert all(0.0 <= m <= 1.0 for m in maxima)
        reference = pilot_max_values(small_chain_query, n_paths=2000,
                                     seed=13, backend="scalar")
        assert np.mean(maxima) == pytest.approx(np.mean(reference),
                                                rel=0.1)


class TestEngineBackendOption:
    def test_auto_picks_vectorized_for_native_process(
            self, small_chain_query, small_chain_exact):
        estimate = answer_durability_query(
            small_chain_query, method="srs", max_roots=5000, seed=14)
        assert estimate.details["backend"] == "vectorized"
        assert_close_to(estimate.probability, small_chain_exact,
                        estimate.std_error)

    def test_auto_picks_scalar_for_opaque_process(self):
        query = scripted_query([0.5, 1.2])
        estimate = answer_durability_query(query, method="srs",
                                           max_roots=50, seed=15)
        assert estimate.details["backend"] == "scalar"

    def test_explicit_backends(self, small_chain_query,
                               small_chain_partition, small_chain_exact):
        for backend in ("scalar", "vectorized"):
            estimate = answer_durability_query(
                small_chain_query, method="gmlss",
                partition=small_chain_partition, max_roots=2000, seed=16,
                backend=backend)
            assert estimate.details["backend"] == backend
            assert_close_to(estimate.probability, small_chain_exact,
                            estimate.std_error)

    def test_unknown_backend_rejected(self, small_chain_query):
        with pytest.raises(ValueError):
            answer_durability_query(small_chain_query, method="srs",
                                    max_roots=10, backend="quantum")


class TestCrossBackendEstimates:
    """Point estimates from both backends agree within joint error bars."""

    def test_smlss_cross_backend(self, small_chain_query,
                                 small_chain_partition):
        scalar = SMLSSSampler(small_chain_partition, ratio=3).run(
            small_chain_query, max_roots=4000, seed=17)
        batched = SMLSSSampler(small_chain_partition, ratio=3,
                               backend="vectorized").run(
            small_chain_query, max_roots=4000, seed=18)
        joint_se = (scalar.variance + batched.variance) ** 0.5
        assert abs(scalar.probability - batched.probability) <= \
            4.5 * joint_se + 1e-9

    def test_srs_cross_backend(self, small_chain_query):
        scalar = SRSSampler().run(small_chain_query, max_roots=20_000,
                                  seed=19)
        batched = SRSSampler(backend="vectorized").run(
            small_chain_query, max_roots=20_000, seed=20)
        joint_se = (scalar.variance + batched.variance) ** 0.5
        assert abs(scalar.probability - batched.probability) <= \
            4.5 * joint_se + 1e-9
