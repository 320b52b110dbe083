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
  one cohort per check interval and checks scheduled at the target's
  variance projection, so the next change to how those runs draw is
  visible here.

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

#: Recorded with one cohort per stopping-check interval, each check
#: scheduled at the target's variance projection.
PINNED_QUALITY = {
    ('walk', 'scalar', 'none', 'point', 'quality'):
        (0.06829765545361877, 2.874544999225863e-05,
         545, 335, 55145, '19144a4c070f5b8f'),
    ('walk', 'scalar', 'none', 'point', 'quality_steps'):
        (0.0676409968146899, 2.7707194101975074e-05,
         593, 361, 60045, '6fb6d1f48687c610'),
    ('walk', 'scalar', 'none', 'curve', 'quality'):
        ('09faf71c4f7ad070', 545, 55145, 'a386092c0ff31ea8'),
    ('walk', 'scalar', 'none', 'curve', 'quality_steps'):
        ('e81611363eb9b13d', 593, 60045, 'e743c33e8ff8d66e'),
    ('walk', 'scalar', 'inline', 'point', 'quality'):
        (0.07490382439465942, 2.9849553408129152e-05,
         491, 331, 49835, 'ee340d915ac98683'),
    ('walk', 'scalar', 'inline', 'point', 'quality_steps'):
        (0.0704331450094162, 2.836817059806144e-05,
         590, 374, 59394, '90a04f45a0a4a82c'),
    ('walk', 'scalar', 'inline', 'curve', 'quality'):
        ('921f266f58813c6f', 491, 49835, '9659f0d0fced8203'),
    ('walk', 'scalar', 'inline', 'curve', 'quality_steps'):
        ('29b2879123f75842', 590, 59394, 'a43c9c0857be9f69'),
    ('walk', 'vectorized', 'none', 'point', 'quality'):
        (0.07478223921818568, 3.109525502723908e-05,
         523, 352, 54148, '3161f3ce324369be'),
    ('walk', 'vectorized', 'none', 'point', 'quality_steps'):
        (0.07486209613869188, 2.9057707208197426e-05,
         564, 380, 60598, 'f0b4726874646797'),
    ('walk', 'vectorized', 'none', 'curve', 'quality'):
        ('cc6bab3408467fd0', 523, 54148, '4881fb7a96415fe0'),
    ('walk', 'vectorized', 'none', 'curve', 'quality_steps'):
        ('b6f2f41a03a6b165', 564, 60598, '6e3c9e9d5211ceeb'),
    ('walk', 'vectorized', 'inline', 'point', 'quality'):
        (0.07631121053939846, 3.707225431150947e-05,
         447, 307, 46551, 'a06baa8a2568eeff'),
    ('walk', 'vectorized', 'inline', 'point', 'quality_steps'):
        (0.07048785012057132, 2.9241731919144565e-05,
         599, 380, 59490, 'ffc23e4930785c37'),
    ('walk', 'vectorized', 'inline', 'curve', 'quality'):
        ('6f0b87e67c92b27c', 447, 46551, '60b8abe798810006'),
    ('walk', 'vectorized', 'inline', 'curve', 'quality_steps'):
        ('9feef7343fe01067', 599, 59490, '0770823c9c61d199'),
    ('chain', 'scalar', 'none', 'point', 'quality'):
        (0.010904804008252285, 6.00557612797146e-07,
         2262, 222, 251889, '5c973ec0dfe73054'),
    ('chain', 'scalar', 'none', 'point', 'quality_steps'):
        (0.008880627839735648, 2.584647816051243e-06,
         538, 43, 60078, '6a201d6f02b9c749'),
    ('chain', 'scalar', 'none', 'curve', 'quality'):
        ('0625469eea80d06e', 2262, 251889, '0f71938559f53a12'),
    ('chain', 'scalar', 'none', 'curve', 'quality_steps'):
        ('6a7b7a0928bafbbd', 538, 60078, '08f7a6e6d3959ab2'),
    ('chain', 'scalar', 'inline', 'point', 'quality'):
        (0.00967727615749989, 5.335745046933011e-07,
         2503, 218, 275669, 'ae61ed6ab7bc2996'),
    ('chain', 'scalar', 'inline', 'point', 'quality_steps'):
        (0.010691823899371069, 2.9818440726237087e-06,
         530, 51, 59367, 'a859f9ed404fd766'),
    ('chain', 'scalar', 'inline', 'curve', 'quality'):
        ('47f81c111bf02da7', 2503, 275669, '096febae64417c31'),
    ('chain', 'scalar', 'inline', 'curve', 'quality_steps'):
        ('8360b5c2e7443b14', 530, 59367, '352903a42bb69721'),
    ('chain', 'vectorized', 'none', 'point', 'quality'):
        (0.010724852071005916, 6.560431787540723e-07,
         2704, 261, 300371, 'e455c60478105320'),
    ('chain', 'vectorized', 'none', 'point', 'quality_steps'):
        (0.007851169141491723, 2.104382003654697e-06,
         651, 46, 70018, '0f1bca30f627c1e2'),
    ('chain', 'vectorized', 'none', 'curve', 'quality'):
        ('e1d982bc7dab940a', 2704, 300371, '84b67759ce2ddb6e'),
    ('chain', 'vectorized', 'none', 'curve', 'quality_steps'):
        ('195dadc1b41ff705', 651, 70018, '5e6f1e82ead4a555'),
    ('chain', 'vectorized', 'inline', 'point', 'quality'):
        (0.008686210640608033, 4.690896778081818e-07,
         2763, 216, 303035, '5c6c283b148a699f'),
    ('chain', 'vectorized', 'inline', 'point', 'quality_steps'):
        (0.009987515605493132, 2.396434639458342e-06,
         534, 48, 59334, 'c841c916239298a0'),
    ('chain', 'vectorized', 'inline', 'curve', 'quality'):
        ('a4d25cf621cf5ec7', 2763, 303035, '9c15ee568aceca49'),
    ('chain', 'vectorized', 'inline', 'curve', 'quality_steps'):
        ('f20870204a9dd916', 534, 59334, 'ea00012f7d5c6d26'),
    ('queue', 'scalar', 'none', 'point', 'quality'):
        (0.03930961070559611, 8.639097421788518e-06,
         822, 514, 79651, '1c9ef2ae33c2cd76'),
    ('queue', 'scalar', 'none', 'point', 'quality_steps'):
        (0.03771894904458599, 1.1530509198759963e-05,
         628, 379, 60045, '32e31f88b7da38e0'),
    ('queue', 'scalar', 'none', 'curve', 'quality'):
        ('2a6210d2a6f74869', 822, 79651, '56df5736a7aefc63'),
    ('queue', 'scalar', 'none', 'curve', 'quality_steps'):
        ('943bd5407c76fba2', 628, 60045, '7657aa4f5bbd21f0'),
    ('queue', 'scalar', 'inline', 'point', 'quality'):
        (0.041640127388535036, 5.824112888707451e-06,
         785, 523, 75480, '998f84ce352e44ff'),
    ('queue', 'scalar', 'inline', 'point', 'quality_steps'):
        (0.039415322580645167, 1.1931825318271983e-05,
         620, 391, 59259, 'f64b1d886250c4e4'),
    ('queue', 'scalar', 'inline', 'curve', 'quality'):
        ('0b091cc863926a32', 785, 75480, '40133a6fe395f0b1'),
    ('queue', 'scalar', 'inline', 'curve', 'quality_steps'):
        ('295c2e8d94e03bfc', 620, 59259, '30970ad2f219eac4'),
    ('queue', 'vectorized', 'none', 'point', 'quality'):
        (0.043090201081575144, 1.0284627904422103e-05,
         691, 469, 68102, '3fd0a14a3399c68e'),
    ('queue', 'vectorized', 'none', 'point', 'quality_steps'):
        (0.04450354609929078, 8.558554453686936e-06,
         705, 502, 69462, '13389234c2457924'),
    ('queue', 'vectorized', 'none', 'curve', 'quality'):
        ('1a5dd78ca2f3ade9', 691, 68102, '62c70ec5b06725f8'),
    ('queue', 'vectorized', 'none', 'curve', 'quality_steps'):
        ('7f1ac0ce69224b71', 705, 69462, '4027870ebc63a051'),
    ('queue', 'vectorized', 'inline', 'point', 'quality'):
        (0.04181338028169015, 1.081671795185727e-05,
         568, 380, 58178, '288a30d9a0628020'),
    ('queue', 'vectorized', 'inline', 'point', 'quality_steps'):
        (0.04120640498013891, 1.1178432490093044e-05,
         603, 395, 59319, '95209f5d9b9f7252'),
    ('queue', 'vectorized', 'inline', 'curve', 'quality'):
        ('695b524ca14f7205', 568, 58178, '7a33e5f8113092ee'),
    ('queue', 'vectorized', 'inline', 'curve', 'quality_steps'):
        ('c6db24205b4b0d12', 603, 59319, '3cfa12e95a58ba0b'),
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
