"""Calibration of quality-stopped g-MLSS intervals against exact oracles.

Draws quality-stopped g-MLSS point answers (a 10% relative-error
target, plans from the balanced pilot) over the families of the
``point_mlss`` benchmark workload: rare-threshold +-1 random walks and
birth-death chains, each with an exact DP oracle.  Every answer has its
own seed.  Each answer's normal interval ``p_hat +- z std_error`` is
scored against the oracle at 95%, 99% and 99.9%.

A calibrated interval at level ``c`` misses ``Binomial(n, 1 - c)``
times over ``n`` independent answers.  A level fails when its misses
exceed the count such an interval exceeds with probability below
``1e-4``.  The script prints one line per level (misses, the allowance,
and how many misses fell below and above the truth) and exits 1 when
any level fails.

Usage::

    python benchmarks/calibration_check.py [--answers 6000] [--seed 1]

6,000 answers take about four minutes on a 2-CPU host.  The report is
also written to ``benchmarks/results/calibration.txt``.
"""

import argparse
import sys
import time

import numpy as np

from bench_common import write_report
from repro import DurabilityEngine, DurabilityQuery, ExecutionPolicy
from repro.core.analytic import (hitting_probability,
                                 random_walk_hitting_probability)
from repro.core.quality import RelativeErrorTarget
from repro.core.stats import critical_value
from repro.processes import RandomWalkProcess, birth_death_chain

#: Interval levels scored.
LEVELS = (0.95, 0.99, 0.999)

#: A level fails when its misses are this unlikely under calibration.
MISS_TAIL = 1e-4

#: ``(beta, horizon)`` of the random walks and ``(states, horizon)`` of
#: the birth-death chains; the target is the top state.
WALK_SHAPES = ((10, 50), (11, 60), (12, 70), (12, 60),
               (10, 60), (11, 50), (11, 70), (12, 80))
CHAIN_SHAPES = ((13, 60), (14, 70), (15, 80), (14, 60),
                (13, 70), (14, 80), (15, 70), (13, 50))


def allowed_misses(n: int, rate: float) -> int:
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


def shapes(rng) -> list:
    """``(query, exact probability)`` per shape."""
    out = []
    for beta, horizon in WALK_SHAPES:
        p_up = 0.35 + float(rng.uniform(-0.003, 0.003))
        query = DurabilityQuery.threshold(
            RandomWalkProcess(p_up=p_up, p_down=0.45),
            RandomWalkProcess.position, beta=beta, horizon=horizon)
        out.append((query, random_walk_hitting_probability(
            p_up, beta, horizon, p_down=0.45)))
    for n, horizon in CHAIN_SHAPES:
        chain = birth_death_chain(
            n=n, p_up=0.29 + float(rng.uniform(-0.003, 0.003)),
            p_down=0.35)
        query = DurabilityQuery.threshold(chain, chain.state_value,
                                          beta=float(n - 1), horizon=horizon)
        out.append((query, hitting_probability(chain.matrix, 0, [n - 1],
                                               horizon)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--answers", type=int, default=6_000)
    parser.add_argument("--seed", type=int, default=1,
                        help="draws the shapes and the plan-search seed")
    args = parser.parse_args(argv)

    rng = np.random.default_rng([args.seed, 1])
    cases = shapes(rng)
    engine = DurabilityEngine(ExecutionPolicy(
        method="auto", quality=RelativeErrorTarget(0.10),
        max_steps=4_000_000, num_levels=4, trial_steps=200_000,
        seed=int(rng.integers(2 ** 31))))
    for query, _ in cases:
        engine.warm_plan(query)

    started = time.perf_counter()
    below = {level: 0 for level in LEVELS}  # truth below the interval
    above = {level: 0 for level in LEVELS}  # truth above it
    roots = []
    try:
        for seed in range(args.answers):
            query, exact = cases[seed % len(cases)]
            estimate = engine.answer(query, seed=seed)
            roots.append(estimate.n_roots)
            for level in LEVELS:
                half = critical_value(level) * estimate.std_error
                if exact < estimate.probability - half:
                    below[level] += 1
                elif exact > estimate.probability + half:
                    above[level] += 1
    finally:
        engine.close()
    elapsed = time.perf_counter() - started

    failed = False
    lines = [f"{args.answers} quality-stopped g-MLSS answers "
             f"(RE 10%) over {len(cases)} shapes, shape seed "
             f"{args.seed}; mean roots {np.mean(roots):.0f}; "
             f"{elapsed:.0f} s", "",
             f"{'level':>7s} {'misses':>7s} {'nominal':>8s} "
             f"{'allowed':>8s} {'below':>6s} {'above':>6s}  verdict"]
    for level in LEVELS:
        misses = below[level] + above[level]
        allowed = allowed_misses(args.answers, 1.0 - level)
        ok = misses <= allowed
        failed |= not ok
        lines.append(
            f"{level:>7.1%} {misses:>7d} "
            f"{args.answers * (1.0 - level):>8.1f} {allowed:>8d} "
            f"{below[level]:>6d} {above[level]:>6d}  "
            f"{'ok' if ok else 'FAIL'}")
    write_report("calibration", "Calibration of quality-stopped g-MLSS "
                 "intervals", lines)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
