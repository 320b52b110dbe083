"""The ``served_mixed`` workload: an open loop against a server process.

The parent process generates the traffic from ``--seed``, computes every
expected response body in-process before the timed phase, boots the
server in a child process (this file, run as a script) and sends
the requests at a fixed rate over at most two keep-alive connections.
Each latency is timed from the request's due time, so a stall also
delays the requests queued behind it.

The child process reads commands from its standard input: ``start`` and
``stop`` bracket the traced phase, and end of input shuts the server
down.  It then writes its peak RSS and, when traced, its spans and
per-layer metrics to the JSON file named by ``--out``.
"""

import argparse
import asyncio
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Requests per second, about half of what the server sustains on a
#: 2-CPU host for this mix (measured once, closed loop, 2 connections).
RATE = 9.0

#: Latency limit for ``slo_ok_frac`` (as in benchmarks/bench_serving.py).
SLO_MS = 250.0

CONNECTIONS = 2

#: Share of each request kind in the schedule.
MIX = {"warm": 0.5, "cold": 0.1, "batch": 0.2, "curve": 0.2}

BOOT_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Inputs and expected bodies (parent)
# ----------------------------------------------------------------------

def walk_doc(p_up: float, beta: int, horizon: int) -> dict:
    return {"process": {"family": "random_walk",
                        "params": {"p_up": p_up, "p_down": 0.45}},
            "beta": beta, "horizon": horizon}


def queue_doc(mean_service2: float) -> dict:
    return {"process": {"family": "tandem_queue",
                        "params": {"arrival_rate": 0.5,
                                   "mean_service1": 2.0,
                                   "mean_service2": mean_service2}},
            "beta": 12, "horizon": 80}


class ServedInputs:
    """Request shapes, the schedule and the server policy for one seed."""

    def __init__(self, seed: int, seconds: float):
        import numpy as np
        from repro import ExecutionPolicy
        from repro.core.quality import RelativeErrorTarget

        rng = np.random.default_rng([seed, 3])
        self.quality = RelativeErrorTarget(0.20)
        self.policy = ExecutionPolicy(
            method="auto", quality=self.quality, max_steps=1_000_000,
            trial_steps=5_000, seed=int(rng.integers(2 ** 31)))
        self.batch_policy = {"method": "srs", "max_roots": 300}
        self.warm = [walk_doc(float(rng.uniform(0.33, 0.37)),
                              int(rng.integers(9, 12)),
                              int(rng.integers(40, 61)))
                     for _ in range(6)]
        self.batches = [
            [queue_doc(float(rng.uniform(1.8, 2.1))) for _ in range(4)]
            + [walk_doc(float(rng.uniform(0.30, 0.40)), 6, 40)
               for _ in range(4)]
            for _ in range(3)]
        self.curves = [walk_doc(float(rng.uniform(0.33, 0.37)), 12, 50)
                       for _ in range(2)]
        self.curve_grid = [6, 9, 12]

        n = max(1, round(RATE * seconds))
        kinds = []
        for kind, share in MIX.items():
            kinds += [kind] * round(share * n)
        kinds = [kinds[i] for i in rng.permutation(len(kinds))]
        self.cold = []
        self.schedule = []  # (offset_s, kind, shape index)
        for index, kind in enumerate(kinds):
            if kind == "cold":
                shape = len(self.cold)
                self.cold.append(walk_doc(float(rng.uniform(0.33, 0.37)),
                                          int(rng.integers(9, 12)),
                                          int(rng.integers(40, 61))))
            else:
                shape = int(rng.integers(len(self.shapes(kind))))
            self.schedule.append((index / RATE, kind, shape))
        params = {json.dumps(doc, sort_keys=True)
                  for doc in self.warm + self.cold + self.curves}
        if len(params) != len(self.warm) + len(self.cold) + len(self.curves):
            raise RuntimeError("generated request shapes collide")

    def shapes(self, kind: str) -> list:
        return {"warm": self.warm, "cold": self.cold,
                "batch": self.batches, "curve": self.curves}[kind]

    def request(self, kind: str, shape: int) -> tuple:
        """(path, payload) of one request."""
        doc = self.shapes(kind)[shape]
        if kind == "batch":
            return "/answer_batch", {"queries": doc,
                                     "policy": self.batch_policy}
        if kind == "curve":
            return "/curve", {"query": doc, "thresholds": self.curve_grid,
                              "stream": True}
        return "/answer", {"query": doc}


def expected_bodies(inputs: ServedInputs) -> tuple:
    """Expected bytes and steps per (kind, shape), plus check failures.

    A fresh in-process engine answers every shape the way the server
    will: warm shapes twice (the served answer is a plan-cache hit),
    cold shapes once (an on-path plan search).  Point answers are also
    checked against the exact random-walk oracle and the quality target.
    """
    from repro import DurabilityEngine
    from repro.core.analytic import random_walk_hitting_probability
    from repro.serve.protocol import (curve_events, dumps_canonical,
                                      encode_estimate, parse_policy,
                                      parse_query)
    from workloads import Z999, allowed_misses

    expected, problems, misses = {}, {}, []
    with DurabilityEngine(inputs.policy) as engine:
        for kind, cost_class in (("warm", "cache_hit"),
                                 ("cold", "cold_search")):
            for shape, doc in enumerate(inputs.shapes(kind)):
                query = parse_query(doc)
                estimate = engine.answer(query)
                if kind == "warm":
                    estimate = engine.answer(query)
                expected[kind, shape] = (dumps_canonical(
                    {"ok": True, "result": encode_estimate(estimate),
                     "cost_class": cost_class}), estimate.steps)
                exact = random_walk_hitting_probability(
                    doc["process"]["params"]["p_up"], doc["beta"],
                    doc["horizon"], p_down=0.45)
                if abs(estimate.probability - exact) \
                        > Z999 * estimate.std_error:
                    misses.append((kind, shape))
                if not inputs.quality.is_met(
                        estimate.probability, estimate.variance,
                        estimate.hits, estimate.n_roots):
                    problems[kind, shape] = "quality target missed"
        batch_policy = parse_policy(inputs.batch_policy, inputs.policy)
        for shape, docs in enumerate(inputs.batches):
            estimates = engine.answer_batch(
                [parse_query(doc) for doc in docs], policy=batch_policy)
            expected["batch", shape] = (dumps_canonical(
                {"ok": True,
                 "results": [encode_estimate(e) for e in estimates],
                 "cost_class": "fleet"}), sum(e.steps for e in estimates))
        for shape, doc in enumerate(inputs.curves):
            curve = engine.durability_curve(parse_query(doc),
                                            inputs.curve_grid)
            expected["curve", shape] = (b"".join(
                dumps_canonical(event) + b"\n"
                for event in curve_events(curve)), curve.steps)
    if len(misses) > allowed_misses(len(inputs.warm) + len(inputs.cold)):
        for key in misses:
            problems[key] = "outside its 99.9% oracle interval"
    return expected, problems


# ----------------------------------------------------------------------
# The server process (child)
# ----------------------------------------------------------------------

def serve_main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--policy", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(here))
    from repro import ExecutionPolicy
    from repro.serve import DurabilityServer
    from spans import Tracer, columns, install, layer_metrics

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer, serve=True)
    policy = ExecutionPolicy.from_dict(json.loads(args.policy))

    async def amain():
        loop = asyncio.get_running_loop()
        done = asyncio.Event()
        server = DurabilityServer(policy=policy)
        await server.start()

        def commands():
            for line in sys.stdin:
                if tracer is not None and line.strip() == "start":
                    tracer.start()
                elif tracer is not None and line.strip() == "stop":
                    tracer.stop()
            loop.call_soon_threadsafe(done.set)

        threading.Thread(target=commands, daemon=True).start()
        print(f"PORT {server.port}", flush=True)
        await done.wait()
        await server.stop()

    asyncio.run(amain())
    report = {"peak_rss_mb":
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        report["layers"] = layer_metrics(tracer.spans, (0.0, 0.0, 0.0))
        report["spans"] = columns(tracer.spans)
    Path(args.out).write_text(json.dumps(report))
    return 0


class ServerProcess:
    """A server child process; :meth:`close` stops it and reads its report."""

    def __init__(self, policy, trace: bool, out: Path):
        self.out = out
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--policy", json.dumps(policy.to_dict()),
             "--trace", str(int(trace)), "--out", str(out)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            line = self._read_line()
            if not line.startswith("PORT "):
                raise RuntimeError(f"server did not boot: {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.kill()
            raise

    def _read_line(self) -> str:
        result = []
        reader = threading.Thread(
            target=lambda: result.append(self.proc.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(BOOT_TIMEOUT_S)
        return result[0].strip() if result else ""

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def close(self) -> dict:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop within 60 s")
        finally:
            self.kill()
            self.proc.stdout.close()
        report = json.loads(self.out.read_text())
        self.out.unlink()
        return report


# ----------------------------------------------------------------------
# The open loop (parent)
# ----------------------------------------------------------------------

async def send_all(port: int, inputs: ServedInputs, schedule) -> list:
    """Send ``schedule`` at its offsets; one record per request."""
    from repro.serve import ServeClient, ServeError

    queue: asyncio.Queue = asyncio.Queue()
    records = [None] * len(schedule)
    origin = time.perf_counter() + 0.05

    async def generator():
        for index, (offset, _, _) in enumerate(schedule):
            due = origin + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((index, due, time.perf_counter() - due))
        for _ in range(CONNECTIONS):
            queue.put_nowait(None)

    async def connection():
        async with ServeClient("127.0.0.1", port, timeout=60.0) as client:
            while (item := await queue.get()) is not None:
                index, due, lag = item
                _, kind, shape = schedule[index]
                path, payload = inputs.request(kind, shape)
                sent = time.perf_counter()
                status, raw, server_ms = -1, b"", None
                try:
                    reply = await client.request("POST", path, payload)
                    status, raw = reply.status, reply.raw
                    server_ms = reply.elapsed_ms
                except ServeError as exc:
                    status = exc.status
                except (OSError, EOFError, asyncio.TimeoutError,
                        ValueError):
                    await client.close()
                records[index] = {"due": due, "sent": sent,
                                  "done": time.perf_counter(), "lag": lag,
                                  "status": status, "raw": raw,
                                  "server_ms": server_ms}

    await asyncio.gather(generator(),
                         *(connection() for _ in range(CONNECTIONS)))
    return records


def warm_up(port: int, inputs: ServedInputs) -> None:
    """Set-up traffic: every shape except the cold ones, once each."""
    requests = [(kind, shape) for kind in ("warm", "batch", "curve")
                for shape in range(len(inputs.shapes(kind)))]

    async def sequential():
        from repro.serve import ServeClient
        async with ServeClient("127.0.0.1", port, timeout=60.0) as client:
            for kind, shape in requests:
                path, payload = inputs.request(kind, shape)
                await client.request("POST", path, payload)

    asyncio.run(sequential())


def boot(inputs: ServedInputs, trace: bool, out: Path) -> tuple:
    """Boot and warm one server; returns ``(server, seconds)``."""
    begun = time.perf_counter()
    server = ServerProcess(inputs.policy, trace, out)
    try:
        warm_up(server.port, inputs)
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - begun


def timed_phase(server, inputs, schedule, expected, problems,
                traced: bool) -> dict:
    if traced:
        server.command("start")
    records = asyncio.run(send_all(server.port, inputs, schedule))
    if traced:
        server.command("stop")
    failures, latencies, steps, server_ms, overhead = [], [], 0, [], []
    for (_, kind, shape), record in zip(schedule, records):
        body, op_steps = expected[kind, shape]
        if record["status"] != 200:
            failures.append(f"{kind} {shape}: HTTP {record['status']}")
            continue
        if record["raw"] != body:
            failures.append(f"{kind} {shape}: body differs from the "
                            f"in-process reference")
            continue
        if (kind, shape) in problems:
            failures.append(f"{kind} {shape}: {problems[kind, shape]}")
            continue
        latencies.append(record["done"] - record["due"])
        steps += op_steps
        if record["server_ms"] is not None:
            server_ms.append(record["server_ms"])
            overhead.append(1000.0 * (record["done"] - record["sent"])
                            - record["server_ms"])
    from workloads import latency_metrics, percentile
    elapsed = max(r["done"] for r in records) - min(r["due"]
                                                    for r in records)
    sent = len(schedule)
    return {
        "attempted": sent, "failures": failures, "elapsed_s": elapsed,
        "ops_per_s": len(latencies) / elapsed,
        "steps_per_s": steps / elapsed,
        "steps_per_op": sum(expected[kind, shape][1]
                            for _, kind, shape in schedule) / sent,
        "slo_ok_frac": sum(1 for x in latencies
                           if 1000.0 * x <= SLO_MS) / sent,
        "cold_sent": sum(1 for _, kind, _ in schedule if kind == "cold"),
        "rate_per_s": RATE,
        "non200": sum(1 for r in records if r["status"] != 200),
        "gen_lag_p90_ms": percentile([1000.0 * r["lag"] for r in records],
                                     90),
        "server_ms_p50": percentile(server_ms, 50),
        "overhead_ms_p50": percentile(overhead, 50),
        **latency_metrics(latencies, SLO_MS),
    }


def run_served(seed: int, seconds: float, trace: bool, here: Path) -> tuple:
    inputs = ServedInputs(seed, seconds)
    expected, problems = expected_bodies(inputs)
    (here / "out").mkdir(exist_ok=True)
    out = here / "out" / f"server-{os.getpid()}.json"
    if not trace:
        times = []
        for repeat in range(3):
            server, took = boot(inputs, False, out)
            times.append(took)
            if repeat < 2:
                server.close()
        try:
            result = timed_phase(server, inputs, inputs.schedule, expected,
                                 problems, False)
        finally:
            report = server.close()
        result["setup_s"] = statistics.median(times)
        result["setup_times_s"] = times
        result["peak_rss_mb"] = report["peak_rss_mb"]
        return result, None

    half = seconds / 2
    first = [s for s in inputs.schedule if s[0] < half]
    second = [(offset - half, kind, shape)
              for offset, kind, shape in inputs.schedule if offset >= half]
    server, _ = boot(inputs, False, out)
    try:
        plain = timed_phase(server, inputs, first, expected, problems,
                            False)
    finally:
        server.close()
    server, _ = boot(inputs, True, out)
    try:
        traced = timed_phase(server, inputs, second, expected, problems,
                             True)
    finally:
        report = server.close()
    layers = report["layers"]
    layers.update({
        "pool.worker_restarts": 0, "pool.tasks_recovered": 0,
        "serve.server_ms_p50": traced["server_ms_p50"],
        "serve.overhead_ms_p50": traced["overhead_ms_p50"],
        "serve.non200": traced["non200"],
        "harness.gen_lag_p90_ms": traced["gen_lag_p90_ms"],
        "harness.trace_overhead_frac":
            1.0 - traced["ops_per_s"] / plain["ops_per_s"],
    })
    traced["failures"] += plain["failures"]
    traced["attempted"] += plain["attempted"]
    traced["untraced_ops_per_s"] = plain["ops_per_s"]
    return traced, {"layers": layers, "spans": report["spans"]}


if __name__ == "__main__":
    raise SystemExit(serve_main(sys.argv[1:]))
