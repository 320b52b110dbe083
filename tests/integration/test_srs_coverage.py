"""Coverage of SRS confidence intervals against exact oracles.

Every SRS answer path — point and curve, scalar, vectorized, pooled and
fused fleet — is run over ``K`` fixed seeds, and each answer's nominal
95% interval ``p_hat +- 1.96 std_error`` is scored against the exact DP
oracle (:func:`random_walk_hitting_curve` for random walks,
:func:`hitting_probability_grid` for birth-death chains).  A calibrated
interval misses with probability 0.05, so the miss count over ``n``
independent intervals is ``Binomial(n, 0.05)``; a case fails only when
its misses exceed the count such a calibrated interval exceeds with
probability below ``1e-4``.

Intervals must be independent for that bound to hold.  Runs with
different seeds are; so are the members of one fused fleet (each row
is its own path).  The levels of one curve share their paths, so each
curve run scores a single level, rotating through the grid with the
seed.
"""

import pytest

from repro.core.analytic import (hitting_probability_grid,
                                 random_walk_hitting_curve)
from repro.core.fleet import screen_fleet, screen_fleet_curves
from repro.core.pool import WorkerPool
from repro.core.srs import SRSSampler
from repro.core.value_functions import DurabilityQuery, threshold_grid
from repro.processes import RandomWalkProcess, fuse_processes
from repro.processes.markov_chain import (MarkovChainProcess,
                                          birth_death_chain)

#: Two-sided 95% normal quantile.
Z95 = 1.959963984540054

#: Nominal miss rate of a 95% interval.
MISS_RATE = 0.05

#: A case fails when its misses are this unlikely under calibration.
MISS_TAIL = 1e-4

#: Seeds per case.
K = 40

HORIZON = 30
WALKS = [(0.40, 0.45), (0.45, 0.45), (0.50, 0.40), (0.42, 0.40)]
WALK_GRID = (3.0, 5.0, 7.0)
CHAINS = [(0.30, 0.35), (0.34, 0.33), (0.38, 0.32), (0.36, 0.36)]
CHAIN_GRID = (3.0, 5.0, 7.0)


def allowed_misses(n: int, rate: float = MISS_RATE) -> int:
    """Fewest misses ``k`` with ``P(X > k) < MISS_TAIL`` for
    ``X ~ Binomial(n, rate)``."""
    pmf = (1.0 - rate) ** n
    cdf = pmf
    k = 0
    while 1.0 - cdf >= MISS_TAIL:
        pmf *= (n - k) / (k + 1) * rate / (1.0 - rate)
        k += 1
        cdf += pmf
    return k


def walk(params):
    return RandomWalkProcess(p_up=params[0], p_down=params[1])


def chain(params):
    return birth_death_chain(n=10, p_up=params[0], p_down=params[1])


def walk_exact(params, grid):
    return [float(p) for p in random_walk_hitting_curve(
        params[0], grid, HORIZON, p_down=params[1])]


def chain_exact(params, grid):
    process = chain(params)
    return [float(p) for p in hitting_probability_grid(
        process.matrix, process.start,
        [[s for s in range(len(process.matrix)) if s >= b] for b in grid],
        HORIZON)]


def walk_query(params, beta):
    return DurabilityQuery.threshold(
        walk(params), RandomWalkProcess.position, beta=beta,
        horizon=HORIZON)


def chain_query(params, beta):
    process = chain(params)
    return DurabilityQuery.threshold(process, process.state_value,
                                     beta=beta, horizon=HORIZON)


FAMILIES = {
    "walk": (WALKS, WALK_GRID, walk_query, walk_exact, walk,
             RandomWalkProcess.position),
    "chain": (CHAINS, CHAIN_GRID, chain_query, chain_exact, chain,
              MarkovChainProcess.state_index),
}


def missed(estimate, exact: float) -> int:
    return int(abs(estimate.probability - exact)
               > Z95 * estimate.std_error)


@pytest.fixture(scope="module")
def thread_pool():
    with WorkerPool(n_workers=2, pool="thread") as pool:
        yield pool


def sampler_for(runner, pool):
    if runner == "pooled":
        return SRSSampler(backend="vectorized", pool=pool,
                          roots_per_task=250, tasks_per_round=2)
    return SRSSampler(backend=runner)


def single_outcomes(family, answer, runner, pool):
    """``(missed, scored)`` over K seeds of one sampler run per seed."""
    members, grid, make_query, exact_fn, _, _ = FAMILIES[family]
    sampler = sampler_for(runner, pool)
    budget = 1000 if runner == "scalar" else 2000
    misses = 0
    for seed in range(K):
        params = members[seed % len(members)]
        exact = exact_fn(params, grid)
        if answer == "point":
            level = seed % len(grid)
            estimate = sampler.run(make_query(params, grid[level]),
                                   max_roots=budget, seed=seed)
        else:
            betas, levels = threshold_grid(grid)
            curve = sampler.run_curve(make_query(params, betas[-1]), levels,
                                      thresholds=betas, max_roots=budget,
                                      seed=seed)
            level = seed % len(grid)
            estimate = curve.estimates[level]
        misses += missed(estimate, exact[level])
    return misses, K


def fleet_outcomes(family, answer, pool):
    """``(missed, scored)`` over K seeds of one fused fleet per seed."""
    members, grid, _, exact_fn, make, z = FAMILIES[family]
    fused = fuse_processes([make(params) for params in members])
    exact = [exact_fn(params, grid) for params in members]
    options = {"max_roots": 2000, "pool": pool, "members_per_task": 2}
    misses = scored = 0
    for seed in range(K // len(members) * 2):
        level = seed % len(grid)
        if answer == "point":
            estimates = screen_fleet(fused, z, [grid[level]] * len(members),
                                     HORIZON, seed=seed, **options)
        else:
            curves = screen_fleet_curves(fused, z, [grid] * len(members),
                                         HORIZON, seed=seed, **options)
            estimates = [curve.estimates[level] for curve in curves]
        for member, estimate in enumerate(estimates):
            misses += missed(estimate, exact[member][level])
            scored += 1
    return misses, scored


@pytest.mark.parametrize("family,answer,runner", [
    ("chain", "point", "scalar"),
    ("walk", "point", "vectorized"),
    ("chain", "point", "pooled"),
    ("walk", "curve", "scalar"),
    ("chain", "curve", "vectorized"),
    ("walk", "curve", "pooled"),
])
def test_sampler_intervals_cover_oracle(thread_pool, family, answer,
                                        runner):
    misses, scored = single_outcomes(family, answer, runner, thread_pool)
    assert misses <= allowed_misses(scored), (misses, scored)


@pytest.mark.parametrize("family,answer,pooled", [
    ("walk", "point", False),
    ("chain", "point", True),
    ("chain", "curve", False),
    ("walk", "curve", True),
])
def test_fused_fleet_intervals_cover_oracle(thread_pool, family, answer,
                                            pooled):
    misses, scored = fleet_outcomes(family, answer,
                                    thread_pool if pooled else None)
    assert misses <= allowed_misses(scored), (misses, scored)


def test_allowed_misses_matches_binomial_tail():
    # Binomial(40, 0.05): P(X > 8) ~ 1.3e-4 and P(X > 9) ~ 2.1e-5.
    assert allowed_misses(40) == 9
    assert allowed_misses(0) == 0
