"""SRS answers pinned at fixed seeds.

Every SRS answer — a point estimate from :meth:`SRSSampler.run`, a
fused fleet screen from :func:`screen_fleet` — is a pure function of
the query, the stopping rule, the backend, the task decomposition and
the seed.  These tests pin those answers bit for bit, ``details``
included: the trace (every field but ``elapsed_seconds``) and the
``parallel`` dict.  Any change to how the simulation loops draw, stop
or count must reproduce them exactly.  Pooled answers do not depend on
the pool mode or worker count, so the inline, thread and fork cases of
one backend and stopping rule share their numbers and differ only in
``details["parallel"]``.
"""

import hashlib

import pytest

from repro.core.fleet import screen_fleet
from repro.core.pool import WorkerPool
from repro.core.quality import RelativeErrorTarget
from repro.core.srs import SRSSampler
from repro.core.value_functions import DurabilityQuery
from repro.processes import (RandomWalkProcess, TandemQueueProcess,
                             fuse_processes)

QUERIES = {
    "walk": lambda: DurabilityQuery.threshold(
        RandomWalkProcess(0.45), RandomWalkProcess.position, beta=6.0,
        horizon=30),
    "queue": lambda: DurabilityQuery.threshold(
        TandemQueueProcess(), TandemQueueProcess.queue2_length,
        beta=8.0, horizon=25),
}

RULES = {
    "max_roots": {"max_roots": 1300},
    "max_steps": {"max_steps": 12_000},
    "quality": {"quality": RelativeErrorTarget(target=0.08, min_hits=10),
                "max_roots": 6000},
}

POOLS = ("none", "inline", "thread", "fork")


@pytest.fixture(scope="module")
def pools():
    """One long-lived pool per mode, shared by every pinned case."""
    made = {"inline": WorkerPool(n_workers=1, pool="inline"),
            "thread": WorkerPool(n_workers=2, pool="thread"),
            "fork": WorkerPool(n_workers=2, pool="fork")}
    yield made
    for pool in made.values():
        pool.close()


def details_digest(details) -> str:
    """Digest of ``details`` with every ``elapsed_seconds`` left out."""
    canonical = []
    for key, value in details.items():
        if key == "trace":
            value = [(p.steps, p.probability, p.variance, p.n_roots,
                      p.hits) for p in value]
        elif isinstance(value, dict):
            value = sorted(value.items())
        canonical.append((key, value))
    return hashlib.sha256(repr(canonical).encode()).hexdigest()[:16]


def fingerprint(estimate) -> tuple:
    return (float(estimate.probability), float(estimate.variance),
            int(estimate.n_roots), int(estimate.hits), int(estimate.steps),
            details_digest(estimate.details))


def point(query_name, backend, pool, rule, seed=101, record_trace=True):
    sampler = SRSSampler(batch_roots=300, record_trace=record_trace,
                         backend=backend, pool=pool, roots_per_task=100,
                         tasks_per_round=3)
    return sampler.run(QUERIES[query_name](), seed=seed, **RULES[rule])


def walk_fleet():
    return fuse_processes([RandomWalkProcess(p_up=0.35, p_down=0.45),
                           RandomWalkProcess(p_up=0.45, p_down=0.45),
                           RandomWalkProcess(p_up=0.50, p_down=0.40)])


def screen(pool, rule, seed=202):
    return screen_fleet(walk_fleet(), RandomWalkProcess.position,
                        [5.0, 7.0, 8.0], horizon=30, batch_roots=200,
                        seed=seed, pool=pool, members_per_task=2,
                        **RULES[rule])


POINT_CASES = [(query, backend, pool, rule)
               for query in QUERIES
               for backend in ("scalar", "vectorized")
               for pool in POOLS
               for rule in RULES]

#: Recorded with separate point and curve simulation loops; a point
#: answer must reproduce them from whatever loop now produces it.
PINNED_POINT = {
    ('walk', 'scalar', 'none', 'max_roots'):
        (0.12846153846153846, 8.612243969048704e-05,
         1300, 167, 36858, '831d84fdf3b149b6'),
    ('walk', 'scalar', 'none', 'max_steps'):
        (0.12293144208037825, 0.00025489196838869235,
         423, 52, 12026, '1ee03a769c2720d2'),
    ('walk', 'scalar', 'none', 'quality'):
        (0.1275, 9.2703125e-05, 1200, 153, 34070, '831d84fdf3b149b6'),
    ('walk', 'scalar', 'inline', 'max_roots'):
        (0.14692307692307693, 9.641283568502504e-05,
         1300, 191, 36510, '28d259b035f78909'),
    ('walk', 'scalar', 'inline', 'max_steps'):
        (0.15813953488372093, 0.000309607959047631,
         430, 68, 11996, 'ce6b2e8330c9f052'),
    ('walk', 'scalar', 'inline', 'quality'):
        (0.15416666666666667, 0.00010866608796296297,
         1200, 185, 33594, 'a3d35c97d68995d4'),
    ('walk', 'scalar', 'thread', 'max_roots'):
        (0.14692307692307693, 9.641283568502504e-05,
         1300, 191, 36510, '7cc6bad70464325c'),
    ('walk', 'scalar', 'thread', 'max_steps'):
        (0.15813953488372093, 0.000309607959047631,
         430, 68, 11996, '6be70a90537a55d6'),
    ('walk', 'scalar', 'thread', 'quality'):
        (0.15416666666666667, 0.00010866608796296297,
         1200, 185, 33594, 'ef26706ec27efc1a'),
    ('walk', 'scalar', 'fork', 'max_roots'):
        (0.14692307692307693, 9.641283568502504e-05,
         1300, 191, 36510, 'a135dc73575091f3'),
    ('walk', 'scalar', 'fork', 'max_steps'):
        (0.15813953488372093, 0.000309607959047631,
         430, 68, 11996, '4ed6f3f3de56f33b'),
    ('walk', 'scalar', 'fork', 'quality'):
        (0.15416666666666667, 0.00010866608796296297,
         1200, 185, 33594, '7a74e25761f6d27a'),
    ('walk', 'vectorized', 'none', 'max_roots'):
        (0.14307692307692307, 9.43122439690487e-05,
         1300, 186, 36610, 'c46c8097839fb1da'),
    ('walk', 'vectorized', 'none', 'max_steps'):
        (0.1597222222222222, 0.00031067368970050295,
         432, 69, 12028, 'b1b546e73f01f471'),
    ('walk', 'vectorized', 'none', 'quality'):
        (0.145, 0.00010331249999999998, 1200, 174, 33750, '982eef04c2333971'),
    ('walk', 'vectorized', 'inline', 'max_roots'):
        (0.16384615384615384, 0.00010538507055075101,
         1300, 213, 36444, '76477c82fd1079c7'),
    ('walk', 'vectorized', 'inline', 'max_steps'):
        (0.16705336426914152, 0.00032284579525638753,
         431, 72, 11992, '266bf0a1115bbf8d'),
    ('walk', 'vectorized', 'inline', 'quality'):
        (0.16555555555555557, 0.0001534965706447188,
         900, 149, 25146, '85553dc5dfb623aa'),
    ('walk', 'vectorized', 'thread', 'max_roots'):
        (0.16384615384615384, 0.00010538507055075101,
         1300, 213, 36444, '745ac05d01f4c6fe'),
    ('walk', 'vectorized', 'thread', 'max_steps'):
        (0.16705336426914152, 0.00032284579525638753,
         431, 72, 11992, '854ce8d88753e8c6'),
    ('walk', 'vectorized', 'thread', 'quality'):
        (0.16555555555555557, 0.0001534965706447188,
         900, 149, 25146, '4b41aa8f500d53fe'),
    ('walk', 'vectorized', 'fork', 'max_roots'):
        (0.16384615384615384, 0.00010538507055075101,
         1300, 213, 36444, '6bcf3f2b577c61d7'),
    ('walk', 'vectorized', 'fork', 'max_steps'):
        (0.16705336426914152, 0.00032284579525638753,
         431, 72, 11992, '2c76905f210f2740'),
    ('walk', 'vectorized', 'fork', 'quality'):
        (0.16555555555555557, 0.0001534965706447188,
         900, 149, 25146, '13a49a452c3ecf88'),
    ('queue', 'scalar', 'none', 'max_roots'):
        (0.026153846153846153, 1.9592171142467e-05,
         1300, 34, 32358, 'c050b1f6257985d1'),
    ('queue', 'scalar', 'none', 'max_steps'):
        (0.014553014553014554, 2.9815435177618088e-05,
         481, 7, 12002, 'dabe6e0c79cdddc5'),
    ('queue', 'scalar', 'none', 'quality'):
        (0.03229166666666667, 6.510190610532407e-06,
         4800, 155, 119282, '88b8367f054f282d'),
    ('queue', 'scalar', 'inline', 'max_roots'):
        (0.03076923076923077, 2.2940373236231225e-05,
         1300, 40, 32301, '2367706f4d35d9e1'),
    ('queue', 'scalar', 'inline', 'max_steps'):
        (0.03112033195020747, 6.255571968779329e-05,
         482, 15, 11985, 'cc7623b041e8f2a9'),
    ('queue', 'scalar', 'inline', 'quality'):
        (0.03137254901960784, 5.9584925858078715e-06,
         5100, 160, 126743, '9de3831737a0174c'),
    ('queue', 'scalar', 'thread', 'max_roots'):
        (0.03076923076923077, 2.2940373236231225e-05,
         1300, 40, 32301, 'b53726cd08345b83'),
    ('queue', 'scalar', 'thread', 'max_steps'):
        (0.03112033195020747, 6.255571968779329e-05,
         482, 15, 11985, '5a48d6a3d81a487e'),
    ('queue', 'scalar', 'thread', 'quality'):
        (0.03137254901960784, 5.9584925858078715e-06,
         5100, 160, 126743, 'bc6e8f1a37da05e9'),
    ('queue', 'scalar', 'fork', 'max_roots'):
        (0.03076923076923077, 2.2940373236231225e-05,
         1300, 40, 32301, 'e162a841d7d30aa9'),
    ('queue', 'scalar', 'fork', 'max_steps'):
        (0.03112033195020747, 6.255571968779329e-05,
         482, 15, 11985, 'a5a05583338bee25'),
    ('queue', 'scalar', 'fork', 'quality'):
        (0.03137254901960784, 5.9584925858078715e-06,
         5100, 160, 126743, 'b64e4c5fd40641c2'),
    ('queue', 'vectorized', 'none', 'max_roots'):
        (0.033846153846153845, 2.515430131998179e-05,
         1300, 44, 32301, 'edc1226f473e5a4c'),
    ('queue', 'vectorized', 'none', 'max_steps'):
        (0.03925619834710744, 7.792386206289257e-05,
         484, 19, 12023, '2c2e5aaa81802a71'),
    ('queue', 'vectorized', 'none', 'quality'):
        (0.026333333333333334, 4.273314814814815e-06,
         6000, 158, 149345, '31d2901a30dfd807'),
    ('queue', 'vectorized', 'inline', 'max_roots'):
        (0.03538461538461538, 2.6255803368229405e-05,
         1300, 46, 32266, 'a11d4039644c4b05'),
    ('queue', 'vectorized', 'inline', 'max_steps'):
        (0.04338842975206612, 8.575593784238872e-05,
         484, 21, 11999, 'fd1d38a90776726d'),
    ('queue', 'vectorized', 'inline', 'quality'):
        (0.03058823529411765, 5.814234344256733e-06,
         5100, 156, 126837, '69c8ef6753d3aa16'),
    ('queue', 'vectorized', 'thread', 'max_roots'):
        (0.03538461538461538, 2.6255803368229405e-05,
         1300, 46, 32266, '292a097bf7c4e265'),
    ('queue', 'vectorized', 'thread', 'max_steps'):
        (0.04338842975206612, 8.575593784238872e-05,
         484, 21, 11999, 'ca0f9ac151379771'),
    ('queue', 'vectorized', 'thread', 'quality'):
        (0.03058823529411765, 5.814234344256733e-06,
         5100, 156, 126837, 'b6f8d8cce5d6ea38'),
    ('queue', 'vectorized', 'fork', 'max_roots'):
        (0.03538461538461538, 2.6255803368229405e-05,
         1300, 46, 32266, 'c0672a3c80603561'),
    ('queue', 'vectorized', 'fork', 'max_steps'):
        (0.04338842975206612, 8.575593784238872e-05,
         484, 21, 11999, '566674fa433fcb08'),
    ('queue', 'vectorized', 'fork', 'quality'):
        (0.03058823529411765, 5.814234344256733e-06,
         5100, 156, 126837, '3de06c2cd74fb88b'),
}

PINNED_FLEET = {
    (True, 'max_roots'): ([
        (0.16307692307692306, 0.00010498680018206643, 1300, 212, 36108),
        (0.1946153846153846, 0.00012056941283568502, 1300, 253, 36268),
        (0.2846153846153846, 0.00015662266727355486, 1300, 370, 35115),
    ], 7),
    (True, 'max_steps'): ([
        (0.1550925925925926, 0.0003033307414710664, 432, 67, 12013),
        (0.20232558139534884, 0.00037532544304275095, 430, 87, 12004),
        (0.28442437923250563, 0.0004594292364124367, 443, 126, 12029),
    ], 6),
    (True, 'quality'): ([
        (0.1715438950554995, 0.00014340725239625355, 991, 170, 27439),
        (0.1914648212226067, 0.00017855368334117872, 867, 166, 24193),
        (0.2606741573033708, 0.0004330857101517939, 445, 116, 12237),
    ], 3),
    (False, 'max_roots'): ([
        (0.15615384615384614, 0.00010136140191169778, 1300, 203, 36221),
        (0.18307692307692308, 0.00011504597177969958, 1300, 238, 36333),
        (0.30230769230769233, 0.00016224442421483841, 1300, 393, 35130),
    ], 7),
    (False, 'max_steps'): ([
        (0.1542056074766355, 0.0003047342011668162, 428, 66, 12018),
        (0.20185614849187936, 0.00037380567008794363, 431, 87, 12022),
        (0.33111111111111113, 0.0004921700960219479, 450, 149, 12007),
    ], 4),
    (False, 'quality'): ([
        (0.1407185628742515, 0.00012067549794097488, 1002, 141, 28125),
        (0.218705035971223, 0.0002458606377151785, 695, 152, 19127),
        (0.33, 0.00055275, 400, 132, 10677),
    ], 3),
}


@pytest.mark.parametrize("query_name,backend,pool_mode,rule", POINT_CASES)
def test_point_answers_are_pinned(pools, query_name, backend, pool_mode,
                                  rule):
    pool = None if pool_mode == "none" else pools[pool_mode]
    estimate = point(query_name, backend, pool, rule)
    assert estimate.method == "srs"
    assert fingerprint(estimate) == \
        PINNED_POINT[(query_name, backend, pool_mode, rule)]


@pytest.mark.parametrize("pool_mode", POOLS)
def test_details_without_trace(pools, pool_mode):
    pool = None if pool_mode == "none" else pools[pool_mode]
    details = point("walk", "vectorized", pool, "max_roots",
                    record_trace=False).details
    if pool is None:
        assert details == {}
    else:
        assert details == {"parallel": {"n_workers": pool.n_workers,
                                        "mode": pool.mode, "tasks": 13}}


@pytest.mark.parametrize("pool_mode", ("none", "inline", "fork"))
@pytest.mark.parametrize("rule", list(RULES))
def test_fleet_screens_are_pinned(pools, pool_mode, rule):
    pool = None if pool_mode == "none" else pools[pool_mode]
    estimates = screen(pool, rule)
    rounds = {e.details["rounds"] for e in estimates}
    assert len(rounds) == 1
    assert ([fingerprint(e)[:5] for e in estimates], rounds.pop()) == \
        PINNED_FLEET[(pool_mode == "none", rule)]


@pytest.mark.parametrize("query_name,backend,pool_mode,rule", [
    ("walk", "scalar", "none", "quality"),
    ("queue", "vectorized", "none", "max_steps"),
    ("walk", "vectorized", "thread", "quality"),
    ("queue", "scalar", "inline", "max_roots"),
])
def test_point_equals_one_level_curve(pools, query_name, backend,
                                      pool_mode, rule):
    pool = None if pool_mode == "none" else pools[pool_mode]
    sampler = SRSSampler(batch_roots=300, backend=backend, pool=pool,
                         roots_per_task=100, tasks_per_round=3)
    query = QUERIES[query_name]()
    answer = sampler.run(query, seed=7, **RULES[rule])
    level = sampler.run_curve(query, (1.0,), seed=7,
                              **RULES[rule]).estimates[0]
    assert fingerprint(answer)[:5] == fingerprint(level)[:5]
