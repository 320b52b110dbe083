"""The durability service benchmark: one command, three workloads.

    python3 perfbench/run.py --workload point_mlss --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
spends the first half of ``--seconds`` untraced and the second half
with layer wrappers installed, and reports the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Host facts, the full
result, and for traced runs the spans and the per-layer table are
written under ``perfbench/out/``.  Any failed op or check makes the
command exit with status 1.  README.md explains the workloads and
metrics.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: Every per-layer metric, for the table a traced run writes;
#: BENCHMARK.json names the ones reported in the result line.
PER_LAYER = {
    "kernel.calls": "count", "kernel.rows_per_call": "rows",
    "kernel.self_s": "s", "kernel.share": "ratio",
    "kernel.worker_s": "s", "kernel.total_s": "s",
    "value.calls": "count", "value.self_s": "s", "value.share": "ratio",
    "forest.cohorts": "count", "forest.roots_per_cohort": "roots",
    "forest.self_s": "s", "forest.share": "ratio",
    "bootstrap.calls": "count", "bootstrap.self_s": "s",
    "bootstrap.share": "ratio",
    "plan.searches": "count", "plan.searches_on_path": "count",
    "plan.search_steps": "steps",
    "plan.self_s": "s", "plan.share": "ratio",
    "cache.lookups": "count", "cache.hit_frac": "ratio",
    "engine.self_s": "s", "engine.share": "ratio",
    "pool.tasks": "count", "pool.wait_s": "s", "pool.wait_share": "ratio",
    "pool.worker_restarts": "count", "pool.tasks_recovered": "count",
    "serve.server_ms_p50": "ms", "serve.overhead_ms_p50": "ms",
    "serve.admit_wait_ms_p50": "ms", "serve.encode_self_s": "s",
    "serve.non200": "count",
    "harness.gen_lag_p90_ms": "ms", "harness.trace_overhead_frac": "ratio",
}


#: What the traced run should show if each workload loads the layers it
#: was chosen for (README.md).  A claim that fails is reported, not
#: fixed by adjusting the workload.
RATIONALE = {
    "point_mlss": [
        ("forest + value + bootstrap self time exceeds kernel self time",
         lambda m, r: m["forest.self_s"] + m["value.self_s"]
         + m["bootstrap.self_s"] > m["kernel.self_s"]),
        ("no plan search in the timed phase",
         lambda m, r: m["plan.searches"] == 0)],
    "fleet_pooled": [
        ("no forest cohorts, bootstrap calls or plan searches",
         lambda m, r: m["forest.cohorts"] == m["bootstrap.calls"]
         == m["plan.searches"] == 0)],
    "served_mixed": [
        ("plan searches equal the cold shapes sent",
         lambda m, r: m["plan.searches"] == r["cold_sent"]),
        ("on-path plan searches equal the cold shapes sent",
         lambda m, r: m["plan.searches_on_path"] == r["cold_sent"])],
}


def host_facts() -> dict:
    import numpy
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha,
            "loadavg_1m": os.getloadavg()[0], "platform": platform.platform()}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def layer_table(layers: dict) -> list:
    lines = [f"{'metric':<28s} {'value':>14s}  unit"]
    for name, unit in PER_LAYER.items():
        lines.append(f"{name:<28s} {layers[name]:>14.6g}  {unit}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["point_mlss", "fleet_pooled",
                                 "served_mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of a source checkout "
              "(src/repro or BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import FleetPooled, PointMLSS, run_closed

    facts = host_facts()
    print(f"host: {json.dumps(facts)}", flush=True)
    if args.workload == "served_mixed":
        from served import run_served
        result, traced = run_served(args.seed, args.seconds,
                                    bool(args.trace), HERE)
    else:
        workload = {"point_mlss": PointMLSS,
                    "fleet_pooled": FleetPooled}[args.workload](args.seed)
        result, traced = run_closed(workload, args.seconds,
                                    bool(args.trace), SETUP_REPEATS)

    failed = len(result["failures"])
    attempted = max(result["attempted"], 1)
    result["failed_frac"] = failed / attempted
    if traced is None:
        metrics = {m["name"]: {"value": result[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        metrics = {m["name"]: {"value": traced["layers"][m["name"]],
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace
                                                 else "")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": facts,
              "result": result, "metrics": metrics}
    if traced is not None:
        record["layers"] = traced["layers"]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(traced["spans"]))
        record["rationale"] = {
            claim: check(traced["layers"], result)
            for claim, check in RATIONALE[args.workload]}
        table = layer_table(traced["layers"]) + [
            f"rationale: {claim}: {'holds' if holds else 'DOES NOT HOLD'}"
            for claim, holds in record["rationale"].items()]
        (OUT / f"{stem}-layers.txt").write_text("\n".join(table) + "\n")
        print("\n".join(table))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in result["failures"][:10]:
        print(f"FAILED {line}")
    summary = {k: v for k, v in result.items()
               if not isinstance(v, (list, dict))}
    print(f"summary: {json.dumps(summary)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
