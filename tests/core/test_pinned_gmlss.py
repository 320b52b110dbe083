"""g-MLSS answers pinned at fixed seeds.

A g-MLSS answer — a point estimate from :meth:`GMLSSSampler.run` or a
one-pass curve from :meth:`GMLSSSampler.run_curve` — is a pure function
of the query, the plan, the stopping rule, the backend, the task
decomposition and the seed.  These tests pin those answers bit for bit,
``details`` included (the trace without ``elapsed_seconds``, and
without ``bootstrap_seconds``).

Two groups:

* **Budget-only answers** (``max_roots`` or ``max_steps``, no quality
  target) advance in fixed ``batch_roots`` cohorts.  They were recorded
  before quality-stopped runs switched to one cohort per stopping-check
  interval, and must never move with the check schedule.
* **Quality-stopped answers** follow the check schedule: their cohorts,
  and so their random streams, are sized by
  :class:`~repro.core.smlss.CheckSchedule`.  They were recorded with
  one cohort per check interval, so the next change to how those runs
  draw is visible here.

Pooled answers do not depend on the pool mode or worker count, so one
inline pool stands in for all of them.
"""

import hashlib

import pytest

from repro.core.gmlss import GMLSSSampler
from repro.core.levels import LevelPartition
from repro.core.pool import WorkerPool
from repro.core.quality import RelativeErrorTarget
from repro.core.value_functions import DurabilityQuery
from repro.processes import (RandomWalkProcess, TandemQueueProcess,
                             birth_death_chain)


def walk_query():
    return DurabilityQuery.threshold(RandomWalkProcess(0.45),
                                     RandomWalkProcess.position,
                                     beta=9.0, horizon=50)


def chain_query():
    chain = birth_death_chain(n=13, p_up=0.25, p_down=0.35, start=0)
    return DurabilityQuery.threshold(chain, chain.state_value, beta=12.0,
                                     horizon=60)


def queue_query():
    return DurabilityQuery.threshold(TandemQueueProcess(),
                                     TandemQueueProcess.queue2_length,
                                     beta=10.0, horizon=40)


#: ``(query, boundaries, ratio)`` per process.
SETUPS = {
    "walk": (walk_query, (0.3, 0.6), 3),
    "chain": (chain_query, (4 / 12, 8 / 12), 3),
    "queue": (queue_query, (0.4, 0.7), 4),
}

BUDGET_RULES = {
    "max_roots": {"max_roots": 650},
    "max_steps": {"max_steps": 30_000},
}

QUALITY_RULES = {
    # Met before the cap on every case.
    "quality": {"quality": RelativeErrorTarget(target=0.08, min_hits=10),
                "max_roots": 20_000},
    # Never met: the step budget stops the run between checks.
    "quality_steps": {"quality": RelativeErrorTarget(target=0.01),
                      "max_steps": 60_000},
}

POOLS = ("none", "inline")

ANSWERS = ("point", "curve")


@pytest.fixture(scope="module")
def pools():
    with WorkerPool(n_workers=1, pool="inline") as pool:
        yield {"none": None, "inline": pool}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def details_digest(details) -> str:
    """Digest of ``details`` without its wall-clock fields."""
    canonical = []
    for key, value in details.items():
        if key == "bootstrap_seconds":
            continue
        if key == "trace":
            value = [(p.steps, p.probability, p.variance, p.n_roots,
                      p.hits) for p in value]
        canonical.append((key, value))
    return digest(canonical)


def answer(setup, backend, pool, kind, rule, seed=303):
    make_query, boundaries, ratio = SETUPS[setup]
    sampler = GMLSSSampler(LevelPartition(boundaries), ratio=ratio,
                           record_trace=True, backend=backend, pool=pool,
                           roots_per_task=64, tasks_per_round=2)
    if kind == "point":
        estimate = sampler.run(make_query(), seed=seed, **rule)
        return (float(estimate.probability), float(estimate.variance),
                int(estimate.n_roots), int(estimate.hits),
                int(estimate.steps), details_digest(estimate.details))
    curve = sampler.run_curve(make_query(), seed=seed, **rule)
    levels = [(float(e.probability), float(e.variance), int(e.hits))
              for e in curve.estimates]
    return (digest(levels), curve.n_roots, curve.steps,
            details_digest(curve.details))


BUDGET_CASES = [(setup, backend, pool, kind, rule)
                for setup in SETUPS
                for backend in ("scalar", "vectorized")
                for pool in POOLS
                for kind in ANSWERS
                for rule in BUDGET_RULES]

QUALITY_CASES = [(setup, backend, pool, kind, rule)
                 for setup in SETUPS
                 for backend in ("scalar", "vectorized")
                 for pool in POOLS
                 for kind in ANSWERS
                 for rule in QUALITY_RULES]

#: Recorded with fixed ``batch_roots`` cohorts between stopping checks.
PINNED_BUDGET = {
    ('walk', 'scalar', 'none', 'point', 'max_roots'):
        (0.0676923076923077, 2.244999926948645e-05,
         650, 396, 66286, '51568db55d2fbcaa'),
    ('walk', 'scalar', 'none', 'point', 'max_steps'):
        (0.07395264116575592, 7.445165742648498e-05,
         305, 203, 30027, '35cdfb7ae6e8c72a'),
    ('walk', 'scalar', 'none', 'curve', 'max_roots'):
        ('7f990d7bf3d028d4', 650, 66286, '7e4e9877461e8860'),
    ('walk', 'scalar', 'none', 'curve', 'max_steps'):
        ('860625adc91e35bc', 305, 30027, '3aec75e44593cc1a'),
    ('walk', 'scalar', 'inline', 'point', 'max_roots'):
        (0.0711111111111111, 3.041328877200673e-05,
         650, 416, 65454, 'c02c5683d44bfbf2'),
    ('walk', 'scalar', 'inline', 'point', 'max_steps'):
        (0.0844130349430703, 6.711971203640887e-05,
         283, 215, 29457, 'ce6966affc844efe'),
    ('walk', 'scalar', 'inline', 'curve', 'max_roots'):
        ('dc05df969b691f2b', 650, 65454, '395f8ed0b9df34a3'),
    ('walk', 'scalar', 'inline', 'curve', 'max_steps'):
        ('30204c28ebbc7c0b', 283, 29457, 'f3f7922da1e17d80'),
    ('walk', 'vectorized', 'none', 'point', 'max_roots'):
        (0.08341880341880341, 3.074466725107751e-05,
         650, 488, 69784, '4f9fc984eead495c'),
    ('walk', 'vectorized', 'none', 'point', 'max_steps'):
        (0.09518518518518518, 6.856471536351166e-05,
         300, 257, 32859, 'e467d4674b7bbc31'),
    ('walk', 'vectorized', 'none', 'curve', 'max_roots'):
        ('b52c02caeb6b395a', 650, 69784, 'f374503cd62e72da'),
    ('walk', 'vectorized', 'none', 'curve', 'max_steps'):
        ('4c0e8992efb2de2e', 300, 32859, 'd699ef7e32f7d665'),
    ('walk', 'vectorized', 'inline', 'point', 'max_roots'):
        (0.07247863247863248, 2.312653663525458e-05,
         650, 424, 69304, 'b285aad894849a54'),
    ('walk', 'vectorized', 'inline', 'point', 'max_steps'):
        (0.06620209059233449, 5.2443078714289155e-05,
         287, 171, 29437, '0d5759e0809670fd'),
    ('walk', 'vectorized', 'inline', 'curve', 'max_roots'):
        ('7273a2c6ab45cd1c', 650, 69304, '53fa4366e12eb422'),
    ('walk', 'vectorized', 'inline', 'curve', 'max_steps'):
        ('11cca6fa063f0b44', 287, 29437, '418dfcc6df41a997'),
    ('chain', 'scalar', 'none', 'point', 'max_roots'):
        (0.009572649572649573, 1.9022390240338956e-06,
         650, 56, 72114, '8ab01d040777bfc3'),
    ('chain', 'scalar', 'none', 'point', 'max_steps'):
        (0.010250102501025012, 6.6671432396980804e-06,
         271, 25, 30075, 'aa1d6afcd4f34484'),
    ('chain', 'scalar', 'none', 'curve', 'max_roots'):
        ('399280158ab2ecf4', 650, 72114, '635a8e570d04593e'),
    ('chain', 'scalar', 'none', 'curve', 'max_steps'):
        ('9df397f74b7df27f', 271, 30075, '5f5a81104f3b6e3b'),
    ('chain', 'scalar', 'inline', 'point', 'max_roots'):
        (0.011794871794871795, 2.5584330484330485e-06,
         650, 69, 72106, '0e4c68cacbc3868b'),
    ('chain', 'scalar', 'inline', 'point', 'max_steps'):
        (0.012113617376775269, 6.027386588163532e-06,
         266, 29, 29351, 'adb49820348b028a'),
    ('chain', 'scalar', 'inline', 'curve', 'max_roots'):
        ('012ba169b6ba7b60', 650, 72106, 'fe97b57792727a25'),
    ('chain', 'scalar', 'inline', 'curve', 'max_steps'):
        ('0baddcd287ab94b3', 266, 29351, '0e9b284c70a5cadf'),
    ('chain', 'vectorized', 'none', 'point', 'max_roots'):
        (0.008034188034188032, 1.9761151289356413e-06,
         650, 47, 72000, '8e820f17bcb8bf2b'),
    ('chain', 'vectorized', 'none', 'point', 'max_steps'):
        (0.007037037037037038, 2.953906035665295e-06,
         300, 19, 32692, '1dd1fea98cdca653'),
    ('chain', 'vectorized', 'none', 'curve', 'max_roots'):
        ('ec67b72b0d0083fc', 650, 72000, 'f58fc6bcd0de1ecb'),
    ('chain', 'vectorized', 'none', 'curve', 'max_steps'):
        ('7688d266aa4d61a7', 300, 32692, '2a99873f11eeef7f'),
    ('chain', 'vectorized', 'inline', 'point', 'max_roots'):
        (0.008547008547008548, 1.6347249616480387e-06,
         650, 50, 69293, '58fef2a474cd3d1d'),
    ('chain', 'vectorized', 'inline', 'point', 'max_steps'):
        (0.009696969696969695, 4.964517906336088e-06,
         275, 24, 29263, '6f9cb1f7b1136ad5'),
    ('chain', 'vectorized', 'inline', 'curve', 'max_roots'):
        ('43fecf44b520958c', 650, 69293, 'da0dd2e0d7884908'),
    ('chain', 'vectorized', 'inline', 'curve', 'max_steps'):
        ('94897aa5bc841b81', 275, 29263, 'd0898800ce10931b'),
    ('queue', 'scalar', 'none', 'point', 'max_roots'):
        (0.03807692307692307, 1.0273851470044382e-05,
         650, 396, 62204, '56e1acc2fcfb4285'),
    ('queue', 'scalar', 'none', 'point', 'max_steps'):
        (0.036120129870129865, 1.746432619164014e-05,
         308, 178, 30100, '7a39c836cfe104b8'),
    ('queue', 'scalar', 'none', 'curve', 'max_roots'):
        ('999440d4fcd96619', 650, 62204, '3464ebd4994cd577'),
    ('queue', 'scalar', 'none', 'curve', 'max_steps'):
        ('6af0a9593070f06e', 308, 30100, 'a8d6cbf0be7a729a'),
    ('queue', 'scalar', 'inline', 'point', 'max_roots'):
        (0.04057692307692309, 1.1153431028106515e-05,
         650, 422, 63650, 'a4c49bafcc327cb2'),
    ('queue', 'scalar', 'inline', 'point', 'max_steps'):
        (0.03906249999999999, 2.2451356451732557e-05,
         296, 185, 29167, '2eca26201cabd262'),
    ('queue', 'scalar', 'inline', 'curve', 'max_roots'):
        ('5720dce215197519', 650, 63650, 'f5d396900b1b0754'),
    ('queue', 'scalar', 'inline', 'curve', 'max_steps'):
        ('95200648498db9b7', 296, 29167, 'd0a781ed216642f7'),
    ('queue', 'vectorized', 'none', 'point', 'max_roots'):
        (0.04545104227833235, 1.335583919942946e-05,
         650, 470, 64884, '9a98e074613485c3'),
    ('queue', 'vectorized', 'none', 'point', 'max_steps'):
        (0.04669187898089172, 2.873201103994909e-05,
         400, 296, 39055, 'bef6f76c68537f8f'),
    ('queue', 'vectorized', 'none', 'curve', 'max_roots'):
        ('768c9907459a6d72', 650, 64884, 'bd0cf250aa16a161'),
    ('queue', 'vectorized', 'none', 'curve', 'max_steps'):
        ('d8123fe0d9ad63ba', 400, 39055, '0051b8b7377bbf80'),
    ('queue', 'vectorized', 'inline', 'point', 'max_roots'):
        (0.04067307692307693, 1.1520957609097633e-05,
         650, 423, 65317, '6969a4d73bf997b1'),
    ('queue', 'vectorized', 'inline', 'point', 'max_steps'):
        (0.04628839590443686, 2.667141102218722e-05,
         293, 217, 29252, '2c818364e3bab5b1'),
    ('queue', 'vectorized', 'inline', 'curve', 'max_roots'):
        ('eec05aee47ed3ce9', 650, 65317, '53d91a8e1396785c'),
    ('queue', 'vectorized', 'inline', 'curve', 'max_steps'):
        ('8cbad919018e41ff', 293, 29252, '334ad0b0bddc98c9'),
}

#: Recorded with one cohort per stopping-check interval.
PINNED_QUALITY = {
    ('walk', 'scalar', 'none', 'point', 'quality'):
        (0.06864197530864198, 2.6423072363630202e-05,
         675, 417, 68435, 'ef73f986e27421b6'),
    ('walk', 'scalar', 'none', 'point', 'quality_steps'):
        (0.0676409968146899, 2.6674991992752033e-05,
         593, 361, 60045, '25c2a836898f0ef2'),
    ('walk', 'scalar', 'none', 'curve', 'quality'):
        ('1d750520d75ba6ff', 675, 68435, 'c967badf29f5f8b3'),
    ('walk', 'scalar', 'none', 'curve', 'quality_steps'):
        ('d4ed19e2f320a7f7', 593, 60045, '6d11c80fe09c6bed'),
    ('walk', 'scalar', 'inline', 'point', 'quality'):
        (0.06797651309846431, 2.5547746938061073e-05,
         492, 301, 48697, 'd6faf23b327680ed'),
    ('walk', 'scalar', 'inline', 'point', 'quality_steps'):
        (0.06811836962590732, 2.293237180796137e-05,
         597, 366, 59374, '08c75de14054826b'),
    ('walk', 'scalar', 'inline', 'curve', 'quality'):
        ('4e2c78f1ea134b5d', 492, 48697, '9cf1a2e4b6050281'),
    ('walk', 'scalar', 'inline', 'curve', 'quality_steps'):
        ('20a9165032e09a45', 597, 59374, '103dac2e2c868c59'),
    ('walk', 'vectorized', 'none', 'point', 'quality'):
        (0.07925925925925925, 3.522103185490017e-05,
         450, 321, 49131, 'fce9d5b5aaf8dce5'),
    ('walk', 'vectorized', 'none', 'point', 'quality_steps'):
        (0.07846153846153847, 2.595776462853386e-05,
         650, 459, 69845, '53243cc32e1f4da9'),
    ('walk', 'vectorized', 'none', 'curve', 'quality'):
        ('6f069e3423c765e2', 450, 49131, '739195cd52d2bbe5'),
    ('walk', 'vectorized', 'none', 'curve', 'quality_steps'):
        ('2a741970504cba47', 650, 69845, '170e72a6cfa3d2c4'),
    ('walk', 'vectorized', 'inline', 'point', 'quality'):
        (0.07678410117434506, 2.6689195909009685e-05,
         492, 340, 52350, 'eee83191bea53259'),
    ('walk', 'vectorized', 'inline', 'point', 'quality_steps'):
        (0.07239903219802718, 3.094155005507786e-05,
         597, 389, 59417, '8511d5a67b6761c0'),
    ('walk', 'vectorized', 'inline', 'curve', 'quality'):
        ('f2c512a9d9d7c2f4', 492, 52350, 'b407fbd33a704e19'),
    ('walk', 'vectorized', 'inline', 'curve', 'quality_steps'):
        ('c1f108ec443944cc', 597, 59417, 'ed76dc6111d9592c'),
    ('chain', 'scalar', 'none', 'point', 'quality'):
        (0.010867446393762184, 6.224146841003308e-07,
         2280, 223, 254156, 'fc7297308460eb56'),
    ('chain', 'scalar', 'none', 'point', 'quality_steps'):
        (0.008880627839735648, 2.598885415221794e-06,
         538, 43, 60078, '780083bac648a09d'),
    ('chain', 'scalar', 'none', 'curve', 'quality'):
        ('96054c8bf76a5ea5', 2280, 254156, '9d43849b8ab0fdf6'),
    ('chain', 'scalar', 'none', 'curve', 'quality_steps'):
        ('f05c92b2f58b3f5e', 538, 60078, '4ba266c0c283b034'),
    ('chain', 'scalar', 'inline', 'point', 'quality'):
        (0.009719992866060283, 5.309381972851142e-07,
         2492, 218, 275546, 'f6cd4198ee34bbec'),
    ('chain', 'scalar', 'inline', 'point', 'quality_steps'):
        (0.011574074074074073, 3.102800415773901e-06,
         528, 55, 59239, 'e09fd71ea4b67b6e'),
    ('chain', 'scalar', 'inline', 'curve', 'quality'):
        ('efcd8a1b35f2f02f', 2492, 275546, '2af7c448c8ced917'),
    ('chain', 'scalar', 'inline', 'curve', 'quality_steps'):
        ('2664b2830c5c6344', 528, 59239, '806e39cd5285919f'),
    ('chain', 'vectorized', 'none', 'point', 'quality'):
        (0.0101364522417154, 5.510240092868082e-07,
         2280, 208, 252667, '7cb5e211b0a9f5d0'),
    ('chain', 'vectorized', 'none', 'point', 'quality_steps'):
        (0.007863247863247864, 1.9749696836876323e-06,
         650, 46, 69827, 'a6e5e3660ddd0667'),
    ('chain', 'vectorized', 'none', 'curve', 'quality'):
        ('d396db801bd8b512', 2280, 252667, '0b9a5fb09670ca28'),
    ('chain', 'vectorized', 'none', 'curve', 'quality_steps'):
        ('f2bc8c3f07190bf1', 650, 69827, 'b6a5cd2cc26653ff'),
    ('chain', 'vectorized', 'inline', 'point', 'quality'):
        (0.008828250401284108, 2.89169181200878e-07,
         3738, 297, 406706, '4893b95a382cebc0'),
    ('chain', 'vectorized', 'inline', 'point', 'quality_steps'):
        (0.008261049153242462, 2.4087518325897195e-06,
         538, 40, 59376, 'd1c2fee8a32e2e7b'),
    ('chain', 'vectorized', 'inline', 'curve', 'quality'):
        ('efd7018dc08a2273', 3738, 406706, '0dbc464d82bf7dcc'),
    ('chain', 'vectorized', 'inline', 'curve', 'quality_steps'):
        ('22e01009caa5cd15', 538, 59376, '9257464fb0092743'),
    ('queue', 'scalar', 'none', 'point', 'quality'):
        (0.039301579466929915, 6.997773697607314e-06,
         1013, 631, 98313, 'e2315af6824731ef'),
    ('queue', 'scalar', 'none', 'point', 'quality_steps'):
        (0.03771894904458599, 1.0987239108568679e-05,
         628, 379, 60045, '95edb6030cf4df91'),
    ('queue', 'scalar', 'none', 'curve', 'quality'):
        ('55cfadbaec79e6b5', 1013, 98313, 'fd37c20aee6618f0'),
    ('queue', 'scalar', 'none', 'curve', 'quality_steps'):
        ('5c7864932d1ff896', 628, 60045, 'b7523830a52754ae'),
    ('queue', 'scalar', 'inline', 'point', 'quality'):
        (0.038702574525745256, 8.905896091931154e-06,
         738, 457, 70235, 'e5eacc72ee4b0b0f'),
    ('queue', 'scalar', 'inline', 'point', 'quality_steps'):
        (0.03970826580226904, 1.006390689603259e-05,
         617, 392, 59198, '5f177697fdc48a55'),
    ('queue', 'scalar', 'inline', 'curve', 'quality'):
        ('2140e4bca92d3a00', 738, 70235, '9225a66dd7cda2b4'),
    ('queue', 'scalar', 'inline', 'curve', 'quality_steps'):
        ('d775d745c7341275', 617, 59198, '07b74ca19af58313'),
    ('queue', 'vectorized', 'none', 'point', 'quality'):
        (0.03944444444444444, 8.84036351165981e-06,
         675, 423, 65322, '6e53c6d6807da982'),
    ('queue', 'vectorized', 'none', 'point', 'quality_steps'):
        (0.03756830601092896, 8.210590137806446e-06,
         732, 437, 68965, 'f9bea57f25853028'),
    ('queue', 'vectorized', 'none', 'curve', 'quality'):
        ('fa19143ec9e64326', 675, 65322, '8de460c0b6967707'),
    ('queue', 'vectorized', 'none', 'curve', 'quality_steps'):
        ('21f75b067bd7879b', 732, 68965, '48f68dd327106cf6'),
    ('queue', 'vectorized', 'inline', 'point', 'quality'):
        (0.042005420054200535, 7.800095107997151e-06,
         738, 496, 72644, '8068e75ffaff93fb'),
    ('queue', 'vectorized', 'inline', 'point', 'quality_steps'):
        (0.0381121549743493, 9.930367243922043e-06,
         623, 372, 59181, 'd30ada08b634e9ec'),
    ('queue', 'vectorized', 'inline', 'curve', 'quality'):
        ('7ccee4179b8a1584', 738, 72644, 'b75a36d44545a052'),
    ('queue', 'vectorized', 'inline', 'curve', 'quality_steps'):
        ('327a9a740af72465', 623, 59181, '5da5d59650adaec1'),
}


@pytest.mark.parametrize("setup,backend,pool,kind,rule", BUDGET_CASES)
def test_budget_only_answers_are_pinned(pools, setup, backend, pool, kind,
                                        rule):
    assert answer(setup, backend, pools[pool], kind,
                  BUDGET_RULES[rule]) == PINNED_BUDGET[
        (setup, backend, pool, kind, rule)]


@pytest.mark.parametrize("setup,backend,pool,kind,rule", QUALITY_CASES)
def test_quality_stopped_answers_are_pinned(pools, setup, backend, pool,
                                            kind, rule):
    assert answer(setup, backend, pools[pool], kind,
                  QUALITY_RULES[rule]) == PINNED_QUALITY[
        (setup, backend, pool, kind, rule)]
