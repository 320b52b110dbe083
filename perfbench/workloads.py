"""Workload inputs, the closed-loop workloads and their correctness checks.

Every input comes from ``--seed`` through one ``numpy`` generator; the
program only ever sees the generated queries and policies.  See
README.md for why each workload exists and which layers it loads.
"""

import math
import resource
import statistics
import time

import numpy as np

from repro import DurabilityEngine, DurabilityQuery, ExecutionPolicy
from repro.core.analytic import (hitting_probability,
                                 random_walk_hitting_probability)
from repro.core.quality import RelativeErrorTarget
from repro.engine import ParallelPolicy
from repro.processes import (RandomWalkProcess, TandemQueueProcess,
                             birth_death_chain)

#: Two-sided 99.9% normal quantile, for the oracle intervals.
Z999 = 3.2905267314919255

#: Oracle misses beyond this tail probability fail a run.
MISS_TAIL = 1e-4


def allowed_misses(n: int, rate: float = 0.001) -> int:
    """Fewest misses ``k`` with ``P(X > k) < MISS_TAIL`` for
    ``X ~ Binomial(n, rate)``: the count a calibrated 99.9% interval
    exceeds only by chance once in ten thousand runs."""
    pmf = (1.0 - rate) ** n
    cdf = pmf
    k = 0
    while 1.0 - cdf >= MISS_TAIL:
        pmf *= (n - k) / (k + 1) * rate / (1.0 - rate)
        k += 1
        cdf += pmf
    return k


def wilson_interval(hits: int, n: int, z: float = Z999) -> tuple:
    """Wilson score interval of a binomial proportion."""
    if n <= 0:
        return 0.0, 1.0
    p = hits / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) \
        / (1 + z * z / n)
    return centre - half, centre + half


def signature(estimate) -> tuple:
    """What must repeat exactly when the same op runs again."""
    return (estimate.probability, estimate.variance, estimate.n_roots,
            estimate.hits, estimate.steps)


class ClosedLoopWorkload:
    """One caller, each op sent when the previous one returns.

    Subclasses build ``self.ops`` (a fixed list, cycled), set
    ``slo_ms`` and implement ``setup``, ``run_op``, ``check_op``,
    ``oracle_misses`` and ``oracle_size``.  An op is checked on its own
    (exceptions, quality target, repeat determinism); the oracle test
    runs once over the distinct ops at the end.
    """

    def teardown(self, engine) -> None:
        engine.close()


class PointMLSS(ClosedLoopWorkload):
    """g-MLSS point answers over warmed plans, with exact DP oracles."""

    slo_ms = 250.0
    answers_per_shape = 24

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.quality = RelativeErrorTarget(0.10)
        # Balanced-growth plans from a large pilot: greedy plans vary
        # so much between seeds that the per-op cost would follow the
        # plan search rather than the program.
        self.policy = ExecutionPolicy(
            method="auto", quality=self.quality, max_steps=4_000_000,
            num_levels=4, trial_steps=200_000,
            seed=int(rng.integers(2 ** 31)))
        self.shapes = []  # (query, exact probability)
        for beta, horizon in ((10, 50), (11, 60), (12, 70), (12, 60),
                              (10, 60), (11, 50), (11, 70), (12, 80)):
            p_up = 0.35 + float(rng.uniform(-0.003, 0.003))
            query = DurabilityQuery.threshold(
                RandomWalkProcess(p_up=p_up, p_down=0.45),
                RandomWalkProcess.position, beta=beta, horizon=horizon)
            self.shapes.append((query, random_walk_hitting_probability(
                p_up, beta, horizon, p_down=0.45)))
        for n, horizon in ((13, 60), (14, 70), (15, 80), (14, 60),
                           (13, 70), (14, 80), (15, 70), (13, 50)):
            chain = birth_death_chain(
                n=n, p_up=0.29 + float(rng.uniform(-0.003, 0.003)),
                p_down=0.35)
            query = DurabilityQuery.threshold(
                chain, chain.state_value, beta=float(n - 1),
                horizon=horizon)
            self.shapes.append((query, hitting_probability(
                chain.matrix, 0, [n - 1], horizon)))
        ops = [(shape, int(rng.integers(2 ** 31)))
               for shape in range(len(self.shapes))
               for _ in range(self.answers_per_shape)]
        self.ops = [ops[i] for i in rng.permutation(len(ops))]

    def setup(self):
        engine = DurabilityEngine(self.policy)
        for query, _ in self.shapes:
            engine.warm_plan(query)
        return engine

    def run_op(self, engine, op):
        shape, seed = op
        estimate = engine.answer(self.shapes[shape][0], seed=seed)
        return estimate, estimate.steps

    def check_op(self, index, estimate) -> str:
        if not self.quality.is_met(estimate.probability, estimate.variance,
                                   estimate.hits, estimate.n_roots):
            return (f"op {index}: quality target missed (RE "
                    f"{estimate.relative_error():.3f})")
        return ""

    def oracle_misses(self, first) -> list:
        """Indices of ops whose 99.9% interval misses the exact answer."""
        misses = []
        for index, estimate in first.items():
            exact = self.shapes[self.ops[index][0]][1]
            if abs(estimate.probability - exact) > Z999 * estimate.std_error:
                misses.append(index)
        return misses

    def oracle_size(self, first) -> int:
        return len(first)


def fleet_queries(rng, n_queues: int, n_walks: int) -> tuple:
    """A mixed fleet: tandem-queue clusters plus random walks.

    Returns ``(queries, walk_params)``; ``walk_params[i]`` is
    ``(p_up, beta, horizon)`` for walk members and ``None`` for queues.
    """
    queries, params = [], []
    for _ in range(n_queues):
        cluster = TandemQueueProcess(
            arrival_rate=0.5, mean_service1=2.0,
            mean_service2=float(rng.uniform(1.8, 2.1)))
        queries.append(DurabilityQuery.threshold(
            cluster, TandemQueueProcess.queue2_length, beta=14,
            horizon=100))
        params.append(None)
    for _ in range(n_walks):
        p_up = float(rng.uniform(0.30, 0.40))
        queries.append(DurabilityQuery.threshold(
            RandomWalkProcess(p_up=p_up, p_down=0.45),
            RandomWalkProcess.position, beta=8, horizon=60))
        params.append((p_up, 8, 60))
    return queries, params


class FleetPooled(ClosedLoopWorkload):
    """Fused SRS screens of mixed fleets through a 2-worker fork pool."""

    slo_ms = 1000.0
    n_fleets = 12

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.policy = ExecutionPolicy(
            method="srs", max_roots=500, seed=int(rng.integers(2 ** 31)),
            parallel=ParallelPolicy(pool="fork", n_workers=2,
                                    members_per_task=8))
        self.fleets = [fleet_queries(rng, 12, 12)
                       for _ in range(self.n_fleets)]
        self.ops = list(range(self.n_fleets))
        self.exact = [[None if p is None else
                       random_walk_hitting_probability(
                           p[0], p[1], p[2], p_down=0.45)
                       for p in params] for _, params in self.fleets]
        self.warmup, _ = fleet_queries(rng, 2, 2)

    def setup(self):
        engine = DurabilityEngine(self.policy)
        engine.answer_batch(self.warmup)  # starts the worker pool
        return engine

    def run_op(self, engine, op):
        estimates = engine.answer_batch(self.fleets[op][0])
        return estimates, sum(e.steps for e in estimates)

    def check_op(self, index, estimates) -> str:
        for estimate in estimates:
            if not 0.0 <= estimate.probability <= 1.0 \
                    or estimate.n_roots != self.policy.max_roots:
                return f"op {index}: malformed member estimate"
        return ""

    def oracle_misses(self, first) -> list:
        misses = []
        for index, estimates in first.items():
            for estimate, exact in zip(estimates,
                                       self.exact[self.ops[index]]):
                if exact is None:
                    continue
                lo, hi = wilson_interval(estimate.hits, estimate.n_roots)
                if not lo <= exact <= hi:
                    misses.append(index)
        return misses

    def oracle_size(self, first) -> int:
        return sum(1 for index in first
                   for exact in self.exact[self.ops[index]]
                   if exact is not None)


def same_result(a, b) -> bool:
    if isinstance(a, list):
        return [signature(x) for x in a] == [signature(x) for x in b]
    return signature(a) == signature(b)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(latencies_s, slo_ms: float) -> dict:
    ms = [1000.0 * x for x in latencies_s]
    p90 = percentile(ms, 90)
    return {"latency_p50_ms": percentile(ms, 50), "latency_p90_ms": p90,
            "latency_samples": len(ms),
            "samples_beyond_p90": sum(1 for x in ms if x > p90),
            "slo_limit_ms": slo_ms}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    return float(np.percentile(values, q)) if len(values) else 0.0


# ----------------------------------------------------------------------
# Closed loop (point_mlss, fleet_pooled)
# ----------------------------------------------------------------------

def closed_loop(workload, engine, seconds: float, tracer=None) -> dict:
    """Run ops back to back for ``seconds``; check each as it returns."""
    first, latencies, failures = {}, [], []
    op_steps = {}
    attempted = total_steps = 0
    started = time.perf_counter()
    deadline = started + seconds
    run_op = workload.run_op
    if tracer is not None:
        run_op = tracer.wrap("harness.op", run_op)
    while time.perf_counter() < deadline:
        index = attempted % len(workload.ops)
        op = workload.ops[index]
        attempted += 1
        begun = time.perf_counter()
        try:
            result, steps = run_op(engine, op)
        except Exception as exc:  # a failed op is counted, not fatal
            failures.append(f"op {index}: {type(exc).__name__}: {exc}")
            continue
        latency = time.perf_counter() - begun
        problem = workload.check_op(index, result)
        if index not in first:
            first[index] = result
            op_steps[index] = steps
        elif not same_result(first[index], result):
            problem = problem or f"op {index}: repeat differs from first run"
        if problem:
            failures.append(problem)
            continue
        latencies.append(latency)
        total_steps += steps
    elapsed = time.perf_counter() - started
    misses = workload.oracle_misses(first)
    allowed = allowed_misses(workload.oracle_size(first))
    if len(misses) > allowed:
        # Every run of a missed op counts as failed.
        missed = set(misses)
        failures += [f"op {index}: outside its 99.9% oracle interval"
                     for index in range(attempted)
                     if index % len(workload.ops) in missed]
    return {
        "attempted": attempted, "failures": failures, "elapsed_s": elapsed,
        "ops_per_s": len(latencies) / elapsed,
        "steps_per_s": total_steps / elapsed,
        "steps_per_op": (sum(op_steps.values()) / len(op_steps)
                         if op_steps else 0.0),
        "distinct_ops": len(first), "oracle_checked": workload.oracle_size(
            first), "oracle_misses": len(misses), "oracle_allowed": allowed,
        "slo_ok_frac": sum(1 for x in latencies
                           if 1000.0 * x <= workload.slo_ms) / attempted,
        **latency_metrics(latencies, workload.slo_ms),
    }


def timed_setups(workload, repeats: int) -> tuple:
    """Set the program up ``repeats`` times; keep the last engine."""
    times, engine = [], None
    for _ in range(repeats):
        if engine is not None:
            workload.teardown(engine)
        begun = time.perf_counter()
        engine = workload.setup()
        times.append(time.perf_counter() - begun)
    return engine, times


def run_closed(workload, seconds: float, trace: bool,
               setup_repeats: int) -> tuple:
    from spans import Tracer, install, layer_metrics, columns
    if not trace:
        engine, setup_times = timed_setups(workload, setup_repeats)
        try:
            result = closed_loop(workload, engine, seconds)
        finally:
            workload.teardown(engine)
        result["setup_s"] = statistics.median(setup_times)
        result["setup_times_s"] = setup_times
        result["peak_rss_mb"] = peak_rss_mb()
        return result, None
    engine, _ = timed_setups(workload, 1)
    try:
        plain = closed_loop(workload, engine, seconds / 2)
    finally:
        workload.teardown(engine)
    tracer = Tracer()
    install(tracer)
    engine, _ = timed_setups(workload, 1)
    try:
        restarts_before = engine.resilience_stats()
        worker_before = tracer.worker_kernel[:3].copy()
        tracer.start()
        traced = closed_loop(workload, engine, seconds / 2, tracer)
        tracer.stop()
        worker = tracer.worker_kernel[:3] - worker_before
        restarts = engine.resilience_stats()
    finally:
        workload.teardown(engine)
    layers = layer_metrics(tracer.spans, worker)
    layers["pool.worker_restarts"] = (restarts["worker_restarts"]
                                      - restarts_before["worker_restarts"])
    layers["pool.tasks_recovered"] = (restarts["tasks_recovered"]
                                      - restarts_before["tasks_recovered"])
    layers.update({"serve.server_ms_p50": 0.0, "serve.overhead_ms_p50": 0.0,
                   "serve.non200": 0, "harness.gen_lag_p90_ms": 0.0})
    layers["harness.trace_overhead_frac"] = \
        1.0 - traced["ops_per_s"] / plain["ops_per_s"]
    traced["failures"] += plain["failures"]
    traced["attempted"] += plain["attempted"]
    traced["untraced_ops_per_s"] = plain["ops_per_s"]
    return traced, {"layers": layers, "spans": columns(tracer.spans)}
