"""Tests for the fused fleet passes (repro.core.fleet)."""

import math

import numpy as np
import pytest

from repro.core.analytic import (hitting_probability,
                                 random_walk_hitting_curve)
from repro.core.fleet import (cluster_members_by_initial, screen_fleet,
                              screen_fleet_curves, screen_fleet_mlss)
from repro.core.levels import LevelPartition
from repro.core.pool import WorkerPool
from repro.core.quality import ConfidenceIntervalTarget, RelativeErrorTarget
from repro.core.srs import SRSSampler
from repro.core.stats import critical_value
from repro.core.value_functions import DurabilityQuery
from repro.processes import GBMProcess, RandomWalkProcess, fuse_processes
from repro.processes.markov_chain import (MarkovChainProcess,
                                          birth_death_chain)

Z999 = critical_value(0.999)


def walk_fleet():
    """Random-walk entities with per-entity move probabilities."""
    return [RandomWalkProcess(p_up=0.35, p_down=0.45),
            RandomWalkProcess(p_up=0.45, p_down=0.45),
            RandomWalkProcess(p_up=0.50, p_down=0.40)]


class TestScreenFleet:
    def test_matches_exact_oracle_per_member(self):
        members = walk_fleet()
        betas = [6.0, 8.0, 10.0]
        estimates = screen_fleet(
            fuse_processes(members), RandomWalkProcess.position, betas,
            horizon=40, max_roots=20_000, seed=1)
        for member, beta, estimate in zip(members, betas, estimates):
            exact = float(random_walk_hitting_curve(
                member.p_up, [beta], 40, p_down=member.p_down)[0])
            assert abs(estimate.probability - exact) <= \
                Z999 * estimate.std_error + 2e-4, (beta, exact)

    def test_matches_independent_srs_within_joint_ci(self):
        members = walk_fleet()
        betas = [6.0, 7.0, 8.0]
        fused = screen_fleet(
            fuse_processes(members), RandomWalkProcess.position, betas,
            horizon=40, max_roots=10_000, seed=2)
        for member, beta, estimate in zip(members, betas, fused):
            query = DurabilityQuery.threshold(
                member, RandomWalkProcess.position, beta=beta, horizon=40)
            independent = SRSSampler(backend="vectorized").run(
                query, max_roots=10_000, seed=3)
            joint = Z999 * math.sqrt(estimate.variance
                                     + independent.variance)
            assert abs(estimate.probability
                       - independent.probability) <= joint + 1e-4

    def test_budgets_are_per_member(self):
        estimates = screen_fleet(
            fuse_processes(walk_fleet()), RandomWalkProcess.position,
            [6.0, 6.0, 6.0], horizon=20, max_roots=500, seed=4)
        assert all(e.n_roots == 500 for e in estimates)
        # A member's steps are bounded by its own paths running the
        # full horizon; a fleet-wide budget would give ~3x that.
        assert all(e.steps <= 500 * 20 for e in estimates)

    def test_max_steps_respected_per_member(self):
        estimates = screen_fleet(
            fuse_processes(walk_fleet()), RandomWalkProcess.position,
            [25.0, 25.0, 25.0], horizon=20, max_steps=4_000,
            batch_roots=50, seed=5)
        # Cohort-granular overshoot only: one extra cohort's worth.
        assert all(e.steps < 4_000 + 51 * 20 for e in estimates)
        assert all(e.steps >= 4_000 for e in estimates)

    def test_quality_target_stops_easy_members_first(self):
        members = [RandomWalkProcess(p_up=0.6, p_down=0.3),
                   RandomWalkProcess(p_up=0.35, p_down=0.45)]
        estimates = screen_fleet(
            fuse_processes(members), RandomWalkProcess.position,
            [5.0, 9.0], horizon=30,
            quality=RelativeErrorTarget(target=0.2, min_hits=5),
            max_roots=50_000, batch_roots=200, seed=6)
        easy, hard = estimates
        assert easy.n_roots < hard.n_roots
        for estimate in estimates:
            relative = estimate.std_error / max(estimate.probability, 1e-12)
            assert relative <= 0.2

    def test_details_mark_fused_pass(self):
        estimates = screen_fleet(
            fuse_processes(walk_fleet()), RandomWalkProcess.position,
            [6.0, 6.0, 6.0], horizon=10, max_roots=100, seed=7)
        for estimate in estimates:
            assert estimate.details["fused"]
            assert estimate.details["fleet_size"] == 3
            assert estimate.method == "srs"

    def test_needs_a_stopping_rule(self):
        with pytest.raises(ValueError, match="stop"):
            screen_fleet(fuse_processes(walk_fleet()),
                         RandomWalkProcess.position, [6.0, 6.0, 6.0],
                         horizon=10)

    def test_threshold_count_must_match_members(self):
        with pytest.raises(ValueError, match="thresholds"):
            screen_fleet(fuse_processes(walk_fleet()),
                         RandomWalkProcess.position, [6.0], horizon=10,
                         max_roots=10)

    @pytest.mark.parametrize("batch_roots", [0, -2])
    @pytest.mark.parametrize("entry", ["screen", "curves", "mlss"])
    def test_batch_roots_must_be_positive(self, entry, batch_roots):
        fused = fuse_processes(walk_fleet())
        z = RandomWalkProcess.position
        with pytest.raises(ValueError, match="batch_roots must be >= 1"):
            if entry == "screen":
                screen_fleet(fused, z, [6.0] * 3, horizon=10,
                             max_roots=100, batch_roots=batch_roots)
            elif entry == "curves":
                screen_fleet_curves(fused, z, [[3.0, 6.0]] * 3,
                                    horizon=10, max_roots=100,
                                    batch_roots=batch_roots)
            else:
                screen_fleet_mlss(fused, z, [6.0] * 3,
                                  LevelPartition([0.5]), horizon=10,
                                  max_roots=100, batch_roots=batch_roots)

    def test_adaptive_rounds_give_hard_members_more_roots(self):
        """Adaptive cohort sizing: the member far from its quality
        target collects (far) more roots than the member that meets it
        immediately, and does so in few growing rounds rather than many
        fixed ones."""
        members = [RandomWalkProcess(p_up=0.6, p_down=0.3),
                   RandomWalkProcess(p_up=0.35, p_down=0.45)]
        quality = RelativeErrorTarget(target=0.1, min_hits=10)
        easy, hard = screen_fleet(
            fuse_processes(members), RandomWalkProcess.position,
            [4.0, 9.0], horizon=30, quality=quality, max_roots=200_000,
            batch_roots=100, seed=11)
        assert hard.n_roots > 3 * easy.n_roots
        assert easy.relative_error() <= 0.1
        assert hard.relative_error() <= 0.1
        # The projection jumps straight toward the hard member's need:
        # the round count stays far below the fixed-batch equivalent.
        fixed_rounds = hard.n_roots / 100
        assert easy.details["rounds"] < fixed_rounds / 4

    def test_adaptive_matches_fixed_in_distribution(self):
        """Rounds grown toward the quality target still land on the
        exact per-member answers."""
        members = walk_fleet()
        quality = RelativeErrorTarget(target=0.25, min_hits=5)
        adaptive = screen_fleet(
            fuse_processes(members), RandomWalkProcess.position,
            [7.0, 7.0, 7.0], horizon=30, quality=quality,
            max_roots=100_000, seed=12)
        for member, estimate in zip(members, adaptive):
            exact = float(random_walk_hitting_curve(
                member.p_up, [7.0], 30, p_down=member.p_down)[0])
            assert abs(estimate.probability - exact) <= \
                Z999 * estimate.std_error + 1e-4
            assert estimate.relative_error() <= 0.25

    def test_pooled_screen_invariant_under_worker_count(self):
        members = walk_fleet()
        outcomes = []
        for n_workers in (1, 2, 3):
            with WorkerPool(n_workers=n_workers) as pool:
                estimates = screen_fleet(
                    fuse_processes(members), RandomWalkProcess.position,
                    [6.0, 7.0, 8.0], horizon=30, max_roots=2_000,
                    seed=14, pool=pool, members_per_task=1)
            outcomes.append(tuple((e.probability, e.steps)
                                  for e in estimates))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_pooled_screen_matches_unsharded_within_ci(self):
        members = walk_fleet()
        betas = [6.0, 7.0, 8.0]
        with WorkerPool(n_workers=2) as pool:
            pooled = screen_fleet(
                fuse_processes(members), RandomWalkProcess.position,
                betas, horizon=30, max_roots=8_000, seed=15, pool=pool,
                members_per_task=2)
        unsharded = screen_fleet(
            fuse_processes(members), RandomWalkProcess.position,
            betas, horizon=30, max_roots=8_000, seed=16)
        for p, u in zip(pooled, unsharded):
            joint = Z999 * math.sqrt(p.variance + u.variance)
            assert abs(p.probability - u.probability) <= joint + 1e-4

    def test_gbm_fleet_mean_hit_ordering(self):
        """Easier thresholds screen higher probabilities (sanity on a
        continuous-state family)."""
        members = [GBMProcess(start_price=100.0, sigma=0.02)
                   for _ in range(3)]
        estimates = screen_fleet(
            fuse_processes(members), GBMProcess.price,
            [102.0, 106.0, 112.0], horizon=30, max_roots=4_000, seed=8)
        probabilities = [e.probability for e in estimates]
        assert probabilities == sorted(probabilities, reverse=True)
        assert probabilities[0] > probabilities[2]


class TestScreenFleetCurves:
    def test_matches_exact_oracle_per_member_and_level(self):
        members = walk_fleet()
        grids = [[3.0, 6.0], [4.0, 8.0, 10.0], [5.0, 10.0]]
        curves = screen_fleet_curves(
            fuse_processes(members), RandomWalkProcess.position, grids,
            horizon=40, max_roots=20_000, seed=1)
        for member, grid, curve in zip(members, grids, curves):
            exact = random_walk_hitting_curve(
                member.p_up, grid, 40, p_down=member.p_down)
            assert curve.thresholds == tuple(grid)
            for estimate, truth in zip(curve.estimates, exact):
                assert abs(estimate.probability - float(truth)) <= \
                    Z999 * estimate.std_error + 3e-3

    def test_grids_may_differ_in_length(self):
        curves = screen_fleet_curves(
            fuse_processes(walk_fleet()), RandomWalkProcess.position,
            [[3.0], [2.0, 4.0, 6.0, 8.0], [5.0, 9.0]],
            horizon=20, max_roots=500, seed=2)
        assert [len(c.estimates) for c in curves] == [1, 4, 2]

    def test_curve_is_monotone_in_threshold(self):
        curves = screen_fleet_curves(
            fuse_processes(walk_fleet()), RandomWalkProcess.position,
            [[2.0, 4.0, 6.0, 8.0]] * 3, horizon=30, max_roots=4_000,
            seed=3)
        for curve in curves:
            probabilities = [e.probability for e in curve.estimates]
            assert probabilities == sorted(probabilities, reverse=True)

    def test_budgets_are_per_member(self):
        curves = screen_fleet_curves(
            fuse_processes(walk_fleet()), RandomWalkProcess.position,
            [[4.0, 8.0]] * 3, horizon=20, max_roots=400, seed=4)
        assert all(c.n_roots == 400 for c in curves)
        assert all(c.steps <= 400 * 20 for c in curves)

    def test_matches_independent_curve_within_joint_ci(self):
        members = walk_fleet()
        grid = [4.0, 6.0, 8.0]
        fused = screen_fleet_curves(
            fuse_processes(members), RandomWalkProcess.position,
            [grid] * 3, horizon=30, max_roots=8_000, seed=5)
        for member, curve in zip(members, fused):
            query = DurabilityQuery.threshold(
                member, RandomWalkProcess.position, beta=grid[-1],
                horizon=30)
            independent = SRSSampler(backend="vectorized").run_curve(
                query, [b / grid[-1] for b in grid], thresholds=grid,
                max_roots=8_000, seed=6)
            for f, i in zip(curve.estimates, independent.estimates):
                joint = Z999 * math.sqrt(f.variance + i.variance)
                assert abs(f.probability - i.probability) <= joint + 1e-4

    def test_pooled_curves_invariant_under_worker_count(self):
        grids = [[3.0, 6.0], [4.0, 8.0], [5.0, 10.0]]
        outcomes = []
        for n_workers in (1, 3):
            with WorkerPool(n_workers=n_workers) as pool:
                curves = screen_fleet_curves(
                    fuse_processes(walk_fleet()),
                    RandomWalkProcess.position, grids, horizon=30,
                    max_roots=2_000, seed=7, pool=pool,
                    members_per_task=1)
            outcomes.append(tuple(
                tuple(e.probability for e in c.estimates) + (c.steps,)
                for c in curves))
        assert outcomes[0] == outcomes[1]

    def test_quality_target_holds_at_every_level(self):
        quality = RelativeErrorTarget(target=0.2, min_hits=5)
        curves = screen_fleet_curves(
            fuse_processes(walk_fleet()), RandomWalkProcess.position,
            [[4.0, 7.0]] * 3, horizon=30, quality=quality,
            max_roots=200_000, seed=8)
        for curve in curves:
            for estimate in curve.estimates:
                assert estimate.relative_error() <= 0.2

    def test_rejects_bad_grids(self):
        fused = fuse_processes(walk_fleet())
        with pytest.raises(ValueError, match="ascending"):
            screen_fleet_curves(fused, RandomWalkProcess.position,
                                [[4.0, 3.0], [1.0], [1.0]], horizon=10,
                                max_roots=10)
        with pytest.raises(ValueError, match="empty"):
            screen_fleet_curves(fused, RandomWalkProcess.position,
                                [[], [1.0], [1.0]], horizon=10,
                                max_roots=10)
        with pytest.raises(ValueError, match="grids"):
            screen_fleet_curves(fused, RandomWalkProcess.position,
                                [[1.0]], horizon=10, max_roots=10)


class TestScreenFleetMlss:
    """Fused splitting-forest screening for rare-event fleets."""

    @staticmethod
    def chain_fleet():
        return [birth_death_chain(n=13, p_up=p_up, p_down=0.35, start=0)
                for p_up in (0.22, 0.25, 0.28)]

    def test_matches_exact_oracle_per_member(self):
        chains = self.chain_fleet()
        partition = LevelPartition([4.0 / 12.0, 8.0 / 12.0])
        estimates = screen_fleet_mlss(
            fuse_processes(chains), MarkovChainProcess.state_index,
            [12.0] * 3, partition, horizon=60, ratio=3,
            max_roots=3_000, seed=1)
        for chain, estimate in zip(chains, estimates):
            exact = hitting_probability(chain.matrix, 0, [12], 60)
            assert abs(estimate.probability - exact) <= \
                Z999 * estimate.std_error + 1e-3
            assert estimate.method == "gmlss"
            assert estimate.details["fused"]
            assert estimate.n_roots == 3_000

    def test_matches_per_entity_gmlss_within_joint_ci(self):
        from repro.core.gmlss import GMLSSSampler
        chains = self.chain_fleet()
        partition = LevelPartition([4.0 / 12.0, 8.0 / 12.0])
        fused = screen_fleet_mlss(
            fuse_processes(chains), MarkovChainProcess.state_index,
            [12.0] * 3, partition, horizon=60, max_roots=2_000, seed=2)
        for chain, estimate in zip(chains, fused):
            query = DurabilityQuery.threshold(
                chain, MarkovChainProcess.state_index, beta=12.0,
                horizon=60)
            independent = GMLSSSampler(
                partition, ratio=3, backend="vectorized").run(
                query, max_roots=2_000, seed=3)
            joint = Z999 * math.sqrt(estimate.variance
                                     + independent.variance)
            assert abs(estimate.probability
                       - independent.probability) <= joint + 1e-4

    def test_pooled_invariant_under_worker_count(self):
        chains = self.chain_fleet()
        partition = LevelPartition([4.0 / 12.0, 8.0 / 12.0])
        outcomes = []
        for n_workers in (1, 2):
            with WorkerPool(n_workers=n_workers) as pool:
                estimates = screen_fleet_mlss(
                    fuse_processes(chains),
                    MarkovChainProcess.state_index, [12.0] * 3,
                    partition, horizon=60, max_roots=600, seed=4,
                    pool=pool, members_per_task=2)
            outcomes.append(tuple((e.probability, e.steps)
                                  for e in estimates))
        assert outcomes[0] == outcomes[1]

    def test_rejects_plan_below_initial_value(self):
        from repro.core.forest import LevelPlanError
        chains = [birth_death_chain(n=13, p_up=0.25, p_down=0.35,
                                    start=6) for _ in range(2)]
        partition = LevelPartition([4.0 / 12.0, 8.0 / 12.0])
        with pytest.raises(LevelPlanError):
            screen_fleet_mlss(
                fuse_processes(chains), MarkovChainProcess.state_index,
                [12.0] * 2, partition, horizon=20, max_roots=100)

    def test_needs_a_stopping_rule(self):
        partition = LevelPartition([0.5])
        with pytest.raises(ValueError, match="stop"):
            screen_fleet_mlss(
                fuse_processes(self.chain_fleet()),
                MarkovChainProcess.state_index, [12.0] * 3, partition,
                horizon=10)


class TestAdaptiveFleetMlss:
    """Variance-directed per-member allocation in the fused forest."""

    @staticmethod
    def mixed_fleet():
        """Chains whose oracle probabilities span an order of magnitude
        — the spread where uniform allocation overspends the most."""
        return [birth_death_chain(n=13, p_up=p_up, p_down=0.35, start=0)
                for p_up in (0.20, 0.26, 0.32)]

    @classmethod
    def screen(cls, adaptive, pool=None, seed=5, members_per_task=2,
               half_width=0.02, horizon=30):
        partition = LevelPartition([4.0 / 12.0, 8.0 / 12.0])
        return screen_fleet_mlss(
            fuse_processes(cls.mixed_fleet()),
            MarkovChainProcess.state_index, [8.0] * 3, partition,
            horizon=horizon, ratio=3,
            quality=ConfidenceIntervalTarget(half_width=half_width,
                                             confidence=0.95,
                                             relative=False),
            max_roots=10_000, batch_roots=100, bootstrap_rounds=64,
            seed=seed, adaptive=adaptive, pool=pool,
            members_per_task=members_per_task)

    def test_adaptive_and_uniform_agree_with_oracle(self):
        """Satellite oracle check: both allocators land on the exact
        per-member hitting probabilities, and on each other, within
        joint 99.9% CIs — adaptivity may not shift the answers."""
        adaptive = self.screen(adaptive=True, seed=5)
        uniform = self.screen(adaptive=False, seed=5)
        for chain, a, u in zip(self.mixed_fleet(), adaptive, uniform):
            exact = hitting_probability(chain.matrix, 0, [8], 30)
            assert abs(a.probability - exact) <= \
                Z999 * a.std_error + 1e-3
            assert abs(u.probability - exact) <= \
                Z999 * u.std_error + 1e-3
            joint = Z999 * math.sqrt(a.variance + u.variance)
            assert abs(a.probability - u.probability) <= joint + 1e-3

    def test_adaptive_spends_fewer_steps(self):
        """The point of the PR: same targets, fewer total steps."""
        adaptive = self.screen(adaptive=True, seed=6, half_width=0.004)
        uniform = self.screen(adaptive=False, seed=6, half_width=0.004)
        assert sum(e.steps for e in adaptive) < \
            sum(e.steps for e in uniform)

    def test_met_members_stop_consuming_roots(self):
        """Under adaptive allocation the cheap member's root count stays
        well below the expensive member's (for an absolute CI target the
        highest-probability member carries the most variance); uniform
        gives everyone the same."""
        adaptive = self.screen(adaptive=True, seed=7, half_width=0.004)
        assert all(e.n_roots < 10_000 for e in adaptive)
        assert adaptive[-1].n_roots > 2 * adaptive[0].n_roots
        uniform = self.screen(adaptive=False, seed=7, half_width=0.004)
        assert len({e.n_roots for e in uniform}) == 1

    def test_pooled_adaptive_byte_identical_across_modes(self):
        """Pooled adaptive answers must not depend on the worker count
        or the pool mode — member slices and task seeds are fixed."""
        signatures = []
        for mode, n_workers in (("inline", 2), ("thread", 1),
                                ("thread", 3), ("fork", 2)):
            with WorkerPool(n_workers=n_workers, pool=mode) as pool:
                estimates = self.screen(adaptive=True, pool=pool, seed=8)
            signatures.append(tuple(
                (e.probability, e.variance, e.n_roots, e.hits, e.steps)
                for e in estimates))
        assert all(s == signatures[0] for s in signatures[1:])

    def test_inline_adaptive_reproducible_under_seed(self):
        first = self.screen(adaptive=True, seed=9)
        second = self.screen(adaptive=True, seed=9)
        assert [(e.probability, e.n_roots, e.steps) for e in first] == \
            [(e.probability, e.n_roots, e.steps) for e in second]


class TestClusterMembersByInitial:
    def test_groups_members_within_tolerance(self):
        clusters = cluster_members_by_initial([0.00, 0.05, 0.50, 0.52],
                                              tolerance=0.1)
        assert clusters == [[0, 1], [2, 3]]

    def test_zero_tolerance_splits_distinct_scores(self):
        clusters = cluster_members_by_initial([0.3, 0.1, 0.3, 0.2],
                                              tolerance=0.0)
        assert clusters == [[0, 2], [1], [3]]

    def test_clusters_cover_every_member_once(self):
        scores = list(np.random.default_rng(0).random(37))
        clusters = cluster_members_by_initial(scores, tolerance=0.07)
        flat = sorted(m for cluster in clusters for m in cluster)
        assert flat == list(range(37))

    def test_grouping_is_deterministic(self):
        scores = list(np.random.default_rng(1).random(20))
        assert cluster_members_by_initial(scores, 0.05) == \
            cluster_members_by_initial(scores, 0.05)

    def test_empty_fleet_yields_no_clusters(self):
        assert cluster_members_by_initial([]) == []

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            cluster_members_by_initial([0.1], tolerance=-0.1)
