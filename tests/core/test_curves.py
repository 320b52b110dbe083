"""Tests for the one-pass curve machinery in the samplers and forest.

Covers the pieces under ``repro.engine.DurabilityEngine.durability_curve``:
SRS running-maxima passes, the MLSS prefix estimators, the shared
bootstrap, and the per-level max bookkeeping in the splitting forest.
"""

import random

import numpy as np
import pytest

from repro.core.analytic import random_walk_hitting_probability
from repro.core.bootstrap import bootstrap_curve_variances
from repro.core.forest import ForestRunner, VectorizedForestRunner
from repro.core.gmlss import (GMLSSSampler, gmlss_point_estimate,
                              gmlss_prefix_estimates)
from repro.core.levels import LevelPartition, normalize_ratios
from repro.core.records import ForestAggregate
from repro.core.smlss import (SMLSSSampler, smlss_point_estimate,
                              smlss_prefix_estimates)
from repro.core.srs import SRSSampler, validate_curve_levels
from repro.core.value_functions import DurabilityQuery, threshold_grid
from repro.processes.random_walk import RandomWalkProcess

from ..helpers import ScriptedProcess, assert_close_to

THRESHOLDS = (4.0, 6.0, 8.0, 10.0)
HORIZON = 40


@pytest.fixture(scope="module")
def walk_query():
    walk = RandomWalkProcess(p_up=0.35, p_down=0.45)
    return DurabilityQuery.threshold(
        walk, RandomWalkProcess.position, beta=THRESHOLDS[-1],
        horizon=HORIZON)


def exact(threshold):
    return random_walk_hitting_probability(0.35, int(threshold), HORIZON,
                                           p_down=0.45)


class TestThresholdGrid:
    def test_sorts_and_normalizes(self):
        betas, levels = threshold_grid([10.0, 4.0, 6.0])
        assert betas == (4.0, 6.0, 10.0)
        assert levels == (0.4, 0.6, 1.0)

    def test_rejects_empty_nonpositive_duplicates(self):
        with pytest.raises(ValueError, match="empty"):
            threshold_grid([])
        with pytest.raises(ValueError, match="positive"):
            threshold_grid([-1.0, 2.0])
        with pytest.raises(ValueError, match="duplicate"):
            threshold_grid([2.0, 2.0])


class TestValidateCurveLevels:
    def test_accepts_ascending_unit_levels(self):
        assert validate_curve_levels([0.25, 0.5, 1.0]) == (0.25, 0.5, 1.0)

    def test_rejects_out_of_range_and_unordered(self):
        with pytest.raises(ValueError):
            validate_curve_levels([])
        with pytest.raises(ValueError):
            validate_curve_levels([0.0, 0.5])
        with pytest.raises(ValueError):
            validate_curve_levels([0.5, 1.1])
        with pytest.raises(ValueError):
            validate_curve_levels([0.5, 0.25])


class TestSRSCurve:
    def test_both_backends_match_the_oracle(self, walk_query):
        betas, levels = threshold_grid(THRESHOLDS)
        for backend in ("scalar", "vectorized"):
            curve = SRSSampler(backend=backend).run_curve(
                walk_query, levels, thresholds=betas, max_roots=15_000,
                seed=3)
            assert curve.n_roots == 15_000
            for beta, estimate in curve:
                assert_close_to(estimate.probability, exact(beta),
                                estimate.std_error)

    def test_curve_matches_single_runs_statistically(self, walk_query):
        """Each grid point agrees with an independent run() at the
        rebased threshold, within joint tolerance."""
        betas, levels = threshold_grid(THRESHOLDS)
        curve = SRSSampler().run_curve(walk_query, levels, thresholds=betas,
                                       max_roots=10_000, seed=4)
        for beta, estimate in curve:
            single = SRSSampler().run(walk_query.with_threshold(beta),
                                      max_roots=10_000, seed=int(beta) + 50)
            joint = np.sqrt(estimate.variance + single.variance)
            assert_close_to(estimate.probability, single.probability, joint)

    def test_requires_a_stopping_rule(self, walk_query):
        with pytest.raises(ValueError, match="never stop"):
            SRSSampler().run_curve(walk_query, [0.5, 1.0])

    def test_quality_target_stops_every_level(self, walk_query):
        from repro.core.quality import RelativeErrorTarget

        betas, levels = threshold_grid(THRESHOLDS)
        curve = SRSSampler(batch_roots=2000).run_curve(
            walk_query, levels, thresholds=betas,
            quality=RelativeErrorTarget(target=0.25), max_roots=10 ** 6,
            seed=5)
        assert curve.n_roots < 10 ** 6
        for _, estimate in curve:
            assert estimate.relative_error() <= 0.25 + 1e-9


class TestMLSSPrefixes:
    def _aggregate(self, query, partition, n_roots=2000, seed=6,
                   vectorized=False):
        ratios = normalize_ratios(3, partition.num_levels)
        if vectorized:
            runner = VectorizedForestRunner(query, partition, ratios,
                                            np.random.default_rng(seed))
            records = runner.run_cohort(n_roots)
        else:
            runner = ForestRunner(query, partition, ratios,
                                  random.Random(seed))
            records = runner.run_cohort(n_roots)
        aggregate = ForestAggregate(partition.num_levels)
        aggregate.extend(records)
        return aggregate, ratios

    def test_gmlss_prefix_tail_is_the_point_estimate(self, walk_query):
        _, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        aggregate, ratios = self._aggregate(walk_query, partition)
        prefixes = gmlss_prefix_estimates(aggregate, ratios)
        assert len(prefixes) == partition.num_levels
        assert prefixes[-1] == pytest.approx(
            gmlss_point_estimate(aggregate, ratios))

    def test_gmlss_prefixes_estimate_boundary_crossings(self, walk_query):
        betas, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        aggregate, ratios = self._aggregate(walk_query, partition,
                                            n_roots=4000)
        prefixes = gmlss_prefix_estimates(aggregate, ratios)
        variances = bootstrap_curve_variances(aggregate, ratios, seed=1)
        for beta, prefix, variance in zip(betas, prefixes, variances):
            assert_close_to(prefix, exact(beta), float(np.sqrt(variance)))

    def test_smlss_prefix_tail_is_the_point_estimate(self, walk_query):
        _, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        aggregate, ratios = self._aggregate(walk_query, partition)
        prefixes = smlss_prefix_estimates(aggregate, ratios)
        assert prefixes[-1] == pytest.approx(
            smlss_point_estimate(aggregate, ratios))

    def test_prefixes_agree_across_backends(self, walk_query):
        _, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        scalar, ratios = self._aggregate(walk_query, partition,
                                         n_roots=3000, seed=7)
        batched, _ = self._aggregate(walk_query, partition, n_roots=3000,
                                     seed=8, vectorized=True)
        for p_scalar, p_batched, var_s, var_b in zip(
                gmlss_prefix_estimates(scalar, ratios),
                gmlss_prefix_estimates(batched, ratios),
                bootstrap_curve_variances(scalar, ratios, seed=2),
                bootstrap_curve_variances(batched, ratios, seed=3)):
            joint = float(np.sqrt(var_s + var_b))
            assert_close_to(p_scalar, p_batched, joint)

    def test_sampler_run_curve_matches_oracle(self, walk_query):
        betas, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        for sampler in (GMLSSSampler(partition, ratio=3),
                        SMLSSSampler(partition, ratio=3)):
            curve = sampler.run_curve(walk_query, thresholds=betas,
                                      max_roots=3000, seed=9)
            assert curve.method == sampler.method_name
            for beta, estimate in curve:
                assert_close_to(estimate.probability, exact(beta),
                                max(estimate.std_error, 5e-4))

    def test_run_curve_rejects_mismatched_thresholds(self, walk_query):
        _, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        with pytest.raises(ValueError, match="thresholds"):
            GMLSSSampler(partition).run_curve(
                walk_query, thresholds=(1.0, 2.0), max_roots=10)


class TestMaxLevelBookkeeping:
    def test_scripted_path_records_highest_level(self):
        # Path climbs to 0.55 and falls back: max level is 1 of {0,1,2}.
        process = ScriptedProcess([0.3, 0.55, 0.2, 0.1])
        query = DurabilityQuery(process=process,
                                value_function=lambda s, t: s, horizon=4)
        partition = LevelPartition([0.5, 0.9])
        runner = ForestRunner(query, partition,
                              normalize_ratios(2, partition.num_levels),
                              random.Random(0))
        record = runner.run_root()
        assert record.max_level == 1

    def test_hit_records_target_level(self):
        process = ScriptedProcess([0.6, 1.0])
        query = DurabilityQuery(process=process,
                                value_function=lambda s, t: s, horizon=2)
        partition = LevelPartition([0.5])
        runner = ForestRunner(query, partition,
                              normalize_ratios(2, partition.num_levels),
                              random.Random(0))
        record = runner.run_root()
        assert record.max_level == partition.num_levels

    def test_backends_agree_on_level_reach(self, walk_query):
        _, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        ratios = normalize_ratios(3, partition.num_levels)
        n_roots = 2000

        scalar = ForestRunner(walk_query, partition, ratios,
                              random.Random(10))
        batched = VectorizedForestRunner(walk_query, partition, ratios,
                                         np.random.default_rng(11))
        agg_s = ForestAggregate(partition.num_levels)
        agg_s.extend(scalar.run_cohort(n_roots))
        agg_b = ForestAggregate(partition.num_levels)
        agg_b.extend(batched.run_cohort(n_roots))

        reach_s = agg_s.level_reach_counts()
        reach_b = agg_b.level_reach_counts()
        assert reach_s[0] == reach_b[0] == n_roots
        # Reach fractions agree between backends within binomial noise.
        for level in range(1, partition.num_levels + 1):
            p = reach_s[level] / n_roots
            sigma = np.sqrt(max(p * (1 - p), 1e-4) / n_roots)
            assert_close_to(reach_b[level] / n_roots, p, 2 * float(sigma))

    def test_level_reach_counts_are_monotone(self, walk_query):
        _, levels = threshold_grid(THRESHOLDS)
        partition = LevelPartition(levels[:-1])
        runner = ForestRunner(walk_query, partition,
                              normalize_ratios(3, partition.num_levels),
                              random.Random(12))
        aggregate = ForestAggregate(partition.num_levels)
        aggregate.extend(runner.run_cohort(500))
        reach = aggregate.level_reach_counts()
        assert reach == sorted(reach, reverse=True)
