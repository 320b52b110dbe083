"""Coverage of g-MLSS confidence intervals against exact oracles.

Each g-MLSS answer path — a quality-stopped point answer, a
``max_roots`` point answer and a one-pass curve (whose per-level
variances come from :func:`bootstrap_curve_variances`), on the
vectorized backend and through a thread pool — is run over ``K`` fixed
seeds.  Each answer's nominal 95% interval ``p_hat +- 1.96 std_error``
is scored against the exact DP oracle, with the same
``Binomial(n, 0.05)`` tail-``1e-4`` gate as the SRS coverage suite.

The plan splits at the grid's interior thresholds, so one curve answers
the whole grid.  Its levels share their paths, so each curve run scores
a single level, rotating through the grid with the seed; point answers
score the top threshold.
"""

import pytest

from repro.core.gmlss import GMLSSSampler
from repro.core.levels import LevelPartition
from repro.core.pool import WorkerPool
from repro.core.quality import RelativeErrorTarget
from repro.core.value_functions import threshold_grid

from .test_srs_coverage import FAMILIES, allowed_misses, missed

#: Seeds per case.
K = 200

RULES = {
    "quality": {"quality": RelativeErrorTarget(target=0.1, min_hits=10),
                "max_roots": 20_000},
    "max_roots": {"max_roots": 600},
}


@pytest.fixture(scope="module")
def thread_pool():
    with WorkerPool(n_workers=2, pool="thread") as pool:
        yield pool


def outcomes(family, answer, pool):
    """``(missed, scored)`` over K seeds of one sampler run per seed."""
    members, grid, make_query, exact_fn, _, _ = FAMILIES[family]
    betas, levels = threshold_grid(grid)
    options = ({"pool": pool, "roots_per_task": 100, "tasks_per_round": 2}
               if pool is not None else {})
    sampler = GMLSSSampler(LevelPartition(levels[:-1]), ratio=3,
                           backend="vectorized", **options)
    misses = 0
    for seed in range(K):
        params = members[seed % len(members)]
        exact = exact_fn(params, grid)
        query = make_query(params, betas[-1])
        if answer == "curve":
            curve = sampler.run_curve(query, thresholds=betas, seed=seed,
                                      **RULES["max_roots"])
            level = seed % len(grid)
            estimate = curve.estimates[level]
        else:
            level = len(grid) - 1
            estimate = sampler.run(query, seed=seed, **RULES[answer])
        misses += missed(estimate, exact[level])
    return misses, K


@pytest.mark.parametrize("family,answer,pooled", [
    ("walk", "quality", False),
    ("chain", "max_roots", False),
    ("chain", "curve", False),
    ("chain", "quality", True),
    ("walk", "max_roots", True),
    ("walk", "curve", True),
])
def test_gmlss_intervals_cover_oracle(thread_pool, family, answer, pooled):
    misses, scored = outcomes(family, answer,
                              thread_pool if pooled else None)
    assert misses <= allowed_misses(scored), (misses, scored)
