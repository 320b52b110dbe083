"""Cohort sizing of quality-stopped forest runs.

A quality-stopped MLSS run checks its stopping rule first at
``first_check_roots``, then at the root count its target projects from
the measured variance (clamped to ``[ceil(1.1 n), 4 n]``), or — with no
projection — ``growth`` times further on.  It simulates the whole
stretch up to the next check as one cohort
(:class:`~repro.core.smlss.CheckSchedule`).  A spy runner records every
``accumulate`` call, and a spy target every level it was asked about,
so these tests see the cohorts each sampler loop asks for and why.
"""

import math
import statistics
from collections import namedtuple

import pytest

from repro.core.gmlss import GMLSSSampler
from repro.core.levels import LevelPartition
from repro.core.pool import WorkerPool
from repro.core.quality import NeverTarget, RelativeErrorTarget
from repro.core.records import ForestAggregate
from repro.core.smlss import CheckSchedule, SMLSSSampler, close_runner
from repro.core.value_functions import DurabilityQuery
from repro.processes import birth_death_chain

#: One ``accumulate`` call: the cohort asked for, the aggregate's roots
#: and steps before and after, and the step budget.
Call = namedtuple("Call", "cohort roots_before steps_before roots_after "
                          "steps_after max_steps")

PARTITION = LevelPartition([4 / 12, 8 / 12])

#: ``first_check_roots = 200`` grown by 1.5 from each checked count.
SCHEDULE = [200, 300, 450, 675, 1013, 1520, 2280, 3420, 5130]


def projected_check(projection, n_roots):
    """``clamp(projection, ceil(1.1 n), 4 n)``."""
    return min(max(projection, math.ceil(n_roots * 11 / 10)),
               4 * n_roots)


def chain_query():
    chain = birth_death_chain(n=13, p_up=0.25, p_down=0.35, start=0)
    return DurabilityQuery.threshold(chain, chain.state_value, beta=12.0,
                                     horizon=60)


class SpyRunner:
    """Forwards to a real runner and records each ``accumulate``."""

    def __init__(self, runner):
        self.runner = runner
        self.calls = []

    def accumulate(self, aggregate, batch_roots, max_steps=None,
                   max_roots=None):
        roots, steps = aggregate.n_roots, aggregate.steps
        done = self.runner.accumulate(aggregate, batch_roots,
                                      max_steps=max_steps,
                                      max_roots=max_roots)
        self.calls.append(Call(batch_roots, roots, steps, aggregate.n_roots,
                               aggregate.steps, max_steps))
        return done

    def close(self):
        close_runner(self.runner)


def spy_on(sampler):
    """Make ``sampler`` build spied runners; returns the spy list."""
    spies = []
    make = sampler._make_runner

    def make_spied(*args, **kwargs):
        spies.append(SpyRunner(make(*args, **kwargs)))
        return spies[-1]

    sampler._make_runner = make_spied
    return spies


def answer(sampler, kind, **rule):
    spies = spy_on(sampler)
    if kind == "point":
        result = sampler.run(chain_query(), seed=5, **rule)
    else:
        result = sampler.run_curve(chain_query(), seed=5, **rule)
    return result, spies[0].calls


SAMPLERS = {
    "gmlss": lambda **kw: GMLSSSampler(PARTITION, **kw),
    "smlss": lambda **kw: SMLSSSampler(PARTITION, **kw),
}

LOOPS = [("gmlss", "point"), ("gmlss", "curve"), ("smlss", "curve")]


@pytest.mark.parametrize("backend", ["scalar", "vectorized"])
@pytest.mark.parametrize("method,kind", LOOPS)
def test_quality_cohorts_land_on_the_check_schedule(method, kind, backend):
    sampler = SAMPLERS[method](backend=backend)
    _, calls = answer(sampler, kind, quality=NeverTarget(),
                      max_roots=5_000)
    assert [call.roots_after for call in calls] == SCHEDULE[:-1] + [5_000]
    assert [call.cohort for call in calls] == [
        after - before for before, after in
        zip([0] + SCHEDULE[:-2], SCHEDULE[:-1])] + [5_130 - 3_420]


@pytest.mark.parametrize("method,kind", LOOPS)
def test_budget_only_runs_keep_batch_roots_cohorts(method, kind):
    sampler = SAMPLERS[method](backend="vectorized", batch_roots=70)
    _, calls = answer(sampler, kind, max_roots=1_000)
    assert {call.cohort for call in calls} == {70}
    assert calls[-1].roots_after == 1_000


def test_per_batch_checked_smlss_run_keeps_batch_roots_cohorts():
    sampler = SMLSSSampler(PARTITION, backend="vectorized", batch_roots=70)
    _, calls = answer(sampler, "point", quality=NeverTarget(),
                      max_roots=1_000)
    assert {call.cohort for call in calls} == {70}


@pytest.mark.parametrize("method,kind", LOOPS)
def test_step_budget_clamps_cohorts_to_the_measured_cost(method, kind):
    sampler = SAMPLERS[method](backend="vectorized")
    result, calls = answer(sampler, kind, quality=NeverTarget(),
                           max_steps=150_000)
    for call in calls:
        # Before any root has run, a root is assumed to cost two
        # horizons (60 steps each).
        cost = (call.steps_before / call.roots_before if call.roots_before
                else 2 * 60)
        affordable = math.floor((call.max_steps - call.steps_before) / cost)
        assert call.cohort <= max(sampler.batch_roots, affordable)
    # The budget clamp, not the schedule, sized some cohort.
    assert any(call.roots_after not in SCHEDULE for call in calls)
    assert result.steps >= 150_000


def test_first_cohort_is_clamped_by_the_projected_cost():
    sampler = GMLSSSampler(PARTITION, backend="vectorized")
    _, calls = answer(sampler, "point", quality=NeverTarget(),
                      max_steps=15_000)
    assert calls[0].cohort == 15_000 // 120
    _, calls = answer(sampler, "point", quality=NeverTarget(),
                      max_steps=3_000)
    assert calls[0].cohort == sampler.batch_roots


def test_budget_bound_quality_run_overshoots_about_one_batch():
    budget = 100_000
    overshoots, cohort_steps = [], []
    for seed in range(10):
        sampler = GMLSSSampler(PARTITION, backend="vectorized")
        estimate = sampler.run(chain_query(), quality=NeverTarget(),
                               max_steps=budget, seed=seed)
        overshoots.append(estimate.steps - budget)
        cohort_steps.append(
            sampler.batch_roots * estimate.steps / estimate.n_roots)
    # A budget-bound run stops within its last cohort, which the clamp
    # keeps near one ``batch_roots`` cohort: about half of one on
    # average, two at most.
    assert 0 <= statistics.mean(overshoots) <= statistics.mean(cohort_steps)
    assert max(overshoots) <= 2 * max(cohort_steps)


@pytest.mark.parametrize("backend", ["scalar", "vectorized"])
def test_large_batches_do_not_bootstrap_every_batch(backend):
    # With cohorts of 1000 roots the schedule grows from the checked
    # count: checks at 1000, 2000, 3000, 4500 and 6750, then the
    # 10000-root cap ends the run and one final bootstrap prices it.
    # Growing from the scheduled count instead (200, 300, 450, ...)
    # would check after every one of the ten batches.
    sampler = GMLSSSampler(PARTITION, backend=backend, batch_roots=1_000)
    estimate, calls = answer(sampler, "point", quality=NeverTarget(),
                             max_roots=10_000)
    assert [call.roots_after for call in calls] == [
        1_000, 2_000, 3_000, 4_500, 6_750, 10_000]
    assert estimate.details["bootstrap_evals"] == 6


def test_pooled_cohorts_follow_the_schedule():
    with WorkerPool(n_workers=1, pool="inline") as pool:
        sampler = GMLSSSampler(PARTITION, backend="vectorized", pool=pool,
                               roots_per_task=64, tasks_per_round=2)
        _, calls = answer(sampler, "point", quality=NeverTarget(),
                          max_roots=2_000)
    # A pooled round is at least two 64-root tasks; the schedule grows
    # from the count each round actually reached.
    assert [call.roots_after for call in calls] == [
        200, 328, 492, 738, 1107, 1661, 2000]


class TestCheckSchedule:
    def test_without_quality_every_cohort_is_batch_roots(self):
        schedule = CheckSchedule(200, 1.5, 100, None, 50)
        aggregate = ForestAggregate(3)
        assert schedule.cohort(aggregate) == 100
        assert schedule.cohort(aggregate, max_steps=10) == 100
        assert not schedule.due(10_000)

    def test_first_cohort_reaches_the_first_check(self):
        schedule = CheckSchedule(200, 1.5, 100, NeverTarget(), 50)
        aggregate = ForestAggregate(3)
        assert schedule.cohort(aggregate) == 200
        assert not schedule.due(199) and schedule.due(200)
        schedule.advance(200)
        assert schedule.next_check == 300
        schedule.advance(1_000)  # grows from the count actually checked
        assert schedule.next_check == 1_500

    def test_advance_always_moves_forward(self):
        schedule = CheckSchedule(1, 1.01, 1, NeverTarget(), 50)
        schedule.advance(1)
        assert schedule.next_check == 2

    def test_a_met_check_stops_without_rescheduling(self):
        schedule = CheckSchedule(200, 1.5, 100,
                                 RelativeErrorTarget(0.1, min_hits=1), 50)
        assert schedule.check([(0.1, 1e-6, 50)], 200)
        assert schedule.next_check == 200

    @pytest.mark.parametrize("variance,expected", [
        (2e-4, 400),       # projects 400 roots: inside the clamp
        (1.05e-4, 220),    # projects 210: floored at ceil(1.1 * 200)
        (1e-3, 800),       # projects 2,000: capped at 4 * 200
    ])
    def test_a_failed_check_jumps_to_the_clamped_projection(
            self, variance, expected):
        target = RelativeErrorTarget(0.1, min_hits=1, min_roots=1)
        schedule = CheckSchedule(200, 1.5, 100, target, 50)
        assert not schedule.check([(0.1, variance, 50)], 200)
        assert schedule.next_check == expected

    def test_a_curve_projects_from_its_worst_unmet_level(self):
        target = RelativeErrorTarget(0.1, min_hits=1, min_roots=1)
        schedule = CheckSchedule(200, 1.5, 100, target, 50)
        levels = [(0.5, 1e-6, 100),    # met: its projection is ignored
                  (0.1, 2e-4, 50),     # projects 400
                  (0.1, 3e-4, 50)]     # projects 600: the worst
        assert not schedule.check(levels, 200)
        assert schedule.next_check == 600

    @pytest.mark.parametrize("levels", [
        [(0.0, 0.0, 0)],                     # a zero estimate
        [(0.1, 3e-4, 50), (0.0, 0.0, 0)],    # one unmet level without one
    ])
    def test_no_projection_keeps_the_growth_step(self, levels):
        target = RelativeErrorTarget(0.1, min_hits=1, min_roots=1)
        schedule = CheckSchedule(200, 1.5, 100, target, 50)
        assert not schedule.check(levels, 200)
        assert schedule.next_check == 300


class SpyTarget(RelativeErrorTarget):
    """Records every level checked as ``(n_roots, probability,
    variance, hits)``; behaves exactly like its parent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "seen", [])

    def is_met(self, probability, variance, hits, n_roots):
        self.seen.append((n_roots, probability, variance, hits))
        return super().is_met(probability, variance, hits, n_roots)


class NoProjectionTarget(RelativeErrorTarget):
    def projected_roots(self, probability, hits, n_roots, variance=None):
        return None


def expected_next_checks(target):
    """The check each failed one schedules, recomputed from the levels
    the target saw: ``{n: clamp(worst projection, ceil(1.1 n), 4 n)}``."""
    by_roots = {}
    for n_roots, probability, variance, hits in target.seen:
        by_roots.setdefault(n_roots, []).append((probability, variance,
                                                 hits))
    expected = {}
    for n_roots, levels in by_roots.items():
        projections = [
            RelativeErrorTarget.projected_roots(target, p, h, n_roots,
                                                variance=v)
            for p, v, h in levels
            if not RelativeErrorTarget.is_met(target, p, v, h, n_roots)]
        if projections:
            assert None not in projections
            expected[n_roots] = projected_check(max(projections), n_roots)
    return expected


@pytest.mark.parametrize("method,kind", LOOPS)
def test_failed_checks_schedule_the_clamped_projection(method, kind):
    sampler = SAMPLERS[method](backend="vectorized")
    target = SpyTarget(target=0.03)
    _, calls = answer(sampler, kind, quality=target, max_roots=60_000)
    expected = expected_next_checks(target)
    ends = [call.roots_after for call in calls]
    assert ends[0] == 200
    # Every failed check but the budget-cut last one is followed by a
    # cohort ending at the check the projection scheduled.
    for before, after in zip(ends, ends[1:]):
        assert after == min(expected[before], 60_000)
    # The projection, not only the clamp, placed some check.
    assert any(4 * n > expected[n] > math.ceil(1.1 * n) for n in expected)


@pytest.mark.parametrize("method,kind", LOOPS)
def test_without_a_projection_checks_grow_by_the_growth_step(method, kind):
    sampler = SAMPLERS[method](backend="vectorized")
    _, calls = answer(sampler, kind,
                      quality=NoProjectionTarget(target=0.001),
                      max_roots=5_000)
    assert [call.roots_after for call in calls] == SCHEDULE[:-1] + [5_000]


@pytest.mark.parametrize("method,kind", LOOPS)
def test_step_budget_clamps_cohorts_when_checks_jump_fourfold(method, kind):
    sampler = SAMPLERS[method](backend="vectorized")
    # Never met, and projected far beyond 4 n: every check jumps 4x.
    result, calls = answer(sampler, kind,
                           quality=RelativeErrorTarget(target=0.001),
                           max_steps=150_000)
    for call in calls:
        cost = (call.steps_before / call.roots_before if call.roots_before
                else 2 * 60)
        affordable = math.floor((call.max_steps - call.steps_before) / cost)
        assert call.cohort <= max(sampler.batch_roots, affordable)
    # The second check jumped to 4 * 200 roots; the next 4x jump, to
    # 3,200, did not fit the budget, so the clamp sized that cohort.
    assert [call.roots_after for call in calls[:2]] == [200, 800]
    assert 800 < calls[2].roots_after < 3_200
    assert result.steps >= 150_000


@pytest.mark.parametrize("method,kind", LOOPS)
def test_projected_checks_are_worker_count_invariant(method, kind):
    def run(pool):
        sampler = SAMPLERS[method](backend="vectorized", pool=pool,
                                   roots_per_task=64, tasks_per_round=2)
        result, calls = answer(sampler, kind,
                               quality=RelativeErrorTarget(target=0.06),
                               max_roots=20_000)
        if kind == "point":
            answer_bytes = (result.probability, result.variance,
                            result.n_roots, result.hits, result.steps)
        else:
            answer_bytes = (result.n_roots, result.steps, [
                (e.probability, e.variance, e.hits)
                for e in result.estimates])
        return answer_bytes, [call.roots_after for call in calls]

    with WorkerPool(n_workers=1, pool="inline") as pool:
        inline = run(pool)
    with WorkerPool(n_workers=2, pool="thread") as pool:
        threaded = run(pool)
    assert repr(inline) == repr(threaded)
    # The run stopped on its target, after at least one projected jump.
    assert inline[1][-1] < 20_000 and len(inline[1]) >= 2
