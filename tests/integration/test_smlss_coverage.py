"""Coverage of quality-stopped s-MLSS confidence intervals.

The s-MLSS counterpart of :mod:`test_gmlss_coverage`: a quality-stopped
point answer (:meth:`SMLSSSampler.run`, which checks its target after
every batch) and a quality-stopped one-pass curve
(:meth:`SMLSSSampler.run_curve`, which checks on the
:class:`~repro.core.smlss.CheckSchedule`), on the vectorized backend
and through a thread pool, are each run over ``K`` fixed seeds.  Each
answer's nominal 95% interval ``p_hat +- 1.96 std_error`` is scored
against the exact DP oracle with the same ``Binomial(n, 0.05)``
tail-``1e-4`` gate as the SRS suite.

s-MLSS is unbiased only when the process cannot skip a level, so both
families qualify: the +-1 random walk and the birth-death chain move one
unit per step and the plan splits at integer thresholds.  The levels of
one curve share their paths, so each curve run scores a single level,
rotating through the grid with the seed; point answers score the top
threshold.
"""

import pytest

from repro.core.levels import LevelPartition
from repro.core.quality import RelativeErrorTarget
from repro.core.smlss import SMLSSSampler
from repro.core.value_functions import threshold_grid

from .test_gmlss_coverage import thread_pool  # noqa: F401 (fixture)
from .test_srs_coverage import FAMILIES, allowed_misses, missed

#: Seeds per case.
K = 200

#: Tight enough that most curve runs fail their first check (at 200
#: roots) and stop at a projected one.
QUALITY = {"quality": RelativeErrorTarget(target=0.05, min_hits=10),
           "max_roots": 20_000}


def outcomes(family, answer, pool):
    """``(missed, scored)`` over K seeds of one sampler run per seed."""
    members, grid, make_query, exact_fn, _, _ = FAMILIES[family]
    betas, levels = threshold_grid(grid)
    options = ({"pool": pool, "roots_per_task": 100, "tasks_per_round": 2}
               if pool is not None else {})
    sampler = SMLSSSampler(LevelPartition(levels[:-1]), ratio=3,
                           backend="vectorized", **options)
    misses = 0
    for seed in range(K):
        params = members[seed % len(members)]
        exact = exact_fn(params, grid)
        query = make_query(params, betas[-1])
        if answer == "curve":
            curve = sampler.run_curve(query, thresholds=betas, seed=seed,
                                      **QUALITY)
            level = seed % len(grid)
            estimate = curve.estimates[level]
        else:
            level = len(grid) - 1
            estimate = sampler.run(query, seed=seed, **QUALITY)
        misses += missed(estimate, exact[level])
    return misses, K


@pytest.mark.parametrize("family,answer,pooled", [
    ("walk", "point", False),
    ("chain", "curve", False),
    ("chain", "point", True),
    ("walk", "curve", True),
])
def test_smlss_intervals_cover_oracle(thread_pool, family,  # noqa: F811
                                      answer, pooled):
    misses, scored = outcomes(family, answer,
                              thread_pool if pooled else None)
    assert misses <= allowed_misses(scored), (misses, scored)
