"""Tests for balanced-growth partition tuning (Section 5.1)."""

import math

import pytest

from repro.core.balanced import (balanced_growth_partition,
                                 empirical_survival, fit_exponential_tail,
                                 hybrid_survival, pilot_max_values)
from repro.core.forest import ForestRunner
from repro.core.gmlss import gmlss_pi_hats
from repro.core.levels import normalize_ratios
from repro.core.records import ForestAggregate
import random


class TestPilotMaxValues:
    def test_sorted_and_bounded(self, small_chain_query):
        maxima = pilot_max_values(small_chain_query, n_paths=200, seed=1)
        assert len(maxima) == 200
        assert maxima == sorted(maxima)
        assert all(0.0 <= m <= 1.0 for m in maxima)

    def test_hits_record_value_one(self, small_chain_query):
        maxima = pilot_max_values(small_chain_query, n_paths=3000, seed=2)
        # tau ~ 1e-2: expect some pilot hits at exactly 1.0.
        assert maxima[-1] == 1.0

    def test_rejects_zero_paths(self, small_chain_query):
        with pytest.raises(ValueError):
            pilot_max_values(small_chain_query, n_paths=0)


class TestSurvivalEstimators:
    def test_empirical_survival_basics(self):
        survival = empirical_survival([0.1, 0.2, 0.3, 0.4])
        assert survival(0.05) == 1.0
        assert survival(0.25) == 0.5
        assert survival(0.9) == 0.0

    def test_tail_fit_recovers_exponential(self):
        # Exact exponential survival: maxima at known quantiles.
        rate = 6.0
        n = 2000
        maxima = sorted(-math.log(1.0 - (i + 0.5) / n) / rate
                        for i in range(n))
        a, b = fit_exponential_tail(maxima, tail_fraction=0.3)
        assert b == pytest.approx(rate, rel=0.25)

    def test_hybrid_extends_beyond_data(self):
        rate = 8.0
        n = 1000
        maxima = sorted(min(-math.log(1.0 - (i + 0.5) / n) / rate, 0.99)
                        for i in range(n))
        survival = hybrid_survival(maxima)
        deep_tail = survival(0.95)
        assert 0.0 < deep_tail < 0.01
        # Monotone across the empirical/tail switch.
        probes = [0.1, 0.3, 0.5, 0.7, 0.9, 0.95]
        values = [survival(p) for p in probes]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_tail_fit_needs_distinct_points(self):
        with pytest.raises(ValueError):
            fit_exponential_tail([0.5] * 50)


class TestBalancedGrowthPartition:
    def test_single_level_plan_is_empty(self, small_chain_query):
        plan = balanced_growth_partition(small_chain_query, 1,
                                         pilot_paths=100, seed=3)
        assert plan.boundaries == ()

    def test_produces_requested_levels(self, small_chain_query):
        plan = balanced_growth_partition(small_chain_query, 4,
                                         pilot_paths=2000, seed=5)
        assert plan.num_levels in (3, 4)  # dedup may drop a boundary

    def test_plan_approximately_balances_advancement(self, small_chain_query):
        """The point of the recipe: pi_hats roughly equal across levels."""
        plan = balanced_growth_partition(small_chain_query, 4,
                                         pilot_paths=4000, seed=7)
        ratios = normalize_ratios(3, plan.num_levels)
        runner = ForestRunner(small_chain_query, plan, ratios,
                              random.Random(11))
        aggregate = ForestAggregate(plan.num_levels)
        aggregate.extend(runner.run_cohort(2000))
        pis = gmlss_pi_hats(aggregate, ratios)
        positive = [p for p in pis if p > 0]
        assert len(positive) == len(pis)
        spread = max(positive) / min(positive)
        assert spread < 4.0, f"advancement probabilities too uneven: {pis}"

    def test_rejects_bad_level_count(self, small_chain_query):
        with pytest.raises(ValueError):
            balanced_growth_partition(small_chain_query, 0)
