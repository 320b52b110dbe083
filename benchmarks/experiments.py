"""Implementations of the paper's Section 6 experiments.

Each function regenerates the data behind one table or figure and
returns printable rows; the ``bench_*`` files wrap them with
pytest-benchmark timing, shape assertions and report files.  All
experiments work through the workload registry (``repro.workloads``),
so the thresholds and quality rules are the calibrated Table 2 ones.
"""

from __future__ import annotations

import time

from repro.core.gmlss import GMLSSSampler
from repro.core.greedy import adaptive_greedy_partition
from repro.core.smlss import SMLSSSampler
from repro.core.srs import SRSSampler
from repro.workloads import workload

from bench_common import (RNN_CACHE_DIR, mean_std, quality_for,
                          run_to_quality, step_cap)

#: Balanced-plan level counts per query type (Section 6.3's findings:
#: Small queries prefer few levels, Tiny/Rare want 5-6).
LEVELS_FOR_TYPE = {"medium": 2, "small": 3, "tiny": 5, "rare": 6}


def trial_budget(spec, base: int) -> int:
    """Plan-search trial budget: rarer targets need longer trials to
    observe any hits at all (Section 5.1's t_0)."""
    factor = {"medium": 1, "small": 1, "tiny": 4, "rare": 6}
    return base * factor[spec.query_type]


def make_sampler(method, spec, num_levels=None, ratio=3):
    """Build a sampler for a workload with its balanced plan."""
    if method == "srs":
        return SRSSampler(batch_roots=500)
    levels = num_levels or LEVELS_FOR_TYPE[spec.query_type]
    partition = spec.balanced_partition(levels)
    if method == "smlss":
        return SMLSSSampler(partition, ratio=ratio, batch_roots=100)
    if method == "gmlss":
        return GMLSSSampler(partition, ratio=ratio, batch_roots=100)
    raise ValueError(f"unknown method {method!r}")


# ----------------------------------------------------------------------
# Tables 3 and 4: answer agreement under a fixed budget
# ----------------------------------------------------------------------

def answers_table(model: str, n_runs: int, budget: int,
                  mlss_method: str = "smlss") -> list:
    """SRS vs MLSS answers (mean +/- std over repeated runs)."""
    rows = []
    for spec in _model_specs(model):
        query = spec.make_query()
        srs_values, mlss_values = [], []
        for run in range(n_runs):
            seed = 1000 * run + hash(spec.key) % 997
            srs_values.append(SRSSampler().run(
                query, max_steps=budget, seed=seed).probability)
            mlss_values.append(make_sampler(mlss_method, spec).run(
                query, max_steps=budget, seed=seed + 1).probability)
        srs_mean, srs_std = mean_std(srs_values)
        mlss_mean, mlss_std = mean_std(mlss_values)
        rows.append({
            "type": spec.query_type, "beta": spec.beta,
            "expected": spec.expected_probability,
            "paper": spec.paper_probability,
            "srs_mean": srs_mean, "srs_std": srs_std,
            "mlss_mean": mlss_mean, "mlss_std": mlss_std,
        })
    return rows


def _model_specs(model: str) -> list:
    from repro.workloads import workloads_for

    return workloads_for(model)


def format_answers_rows(rows) -> list:
    lines = [f"{'type':8s} {'paper':>8s} {'calibrated':>10s} "
             f"{'SRS':>20s} {'MLSS':>20s}"]
    for row in rows:
        lines.append(
            f"{row['type']:8s} {row['paper']:8.4f} {row['expected']:10.4f} "
            f"{row['srs_mean']:10.5f}±{row['srs_std']:<9.5f}"
            f"{row['mlss_mean']:10.5f}±{row['mlss_std']:<9.5f}")
    return lines


# ----------------------------------------------------------------------
# Table 5: the RNN model (single runs, like the paper)
# ----------------------------------------------------------------------

def rnn_table5(cap: int) -> list:
    rows = []
    for key in ("rnn-small", "rnn-tiny"):
        spec = workload(key)
        query = spec.make_query(rnn_cache_dir=RNN_CACHE_DIR)
        quality = quality_for(spec)
        for method in ("srs", "smlss"):
            sampler = make_sampler(method, spec)
            started = time.perf_counter()
            estimate, steps_needed, capped = run_to_quality(
                sampler, query, quality, cap=cap, seed=42)
            rows.append({
                "workload": key, "method": method,
                "probability": estimate.probability,
                "steps": estimate.steps, "steps_to_target": steps_needed,
                "capped": capped,
                "seconds": time.perf_counter() - started,
                "paper": spec.paper_probability,
            })
    return rows


# ----------------------------------------------------------------------
# Figures 6 and 7: steps and time to reach the quality target
# ----------------------------------------------------------------------

def efficiency_figure(model: str, cap: int,
                      mlss_method: str = "smlss") -> list:
    rows = []
    for spec in _model_specs(model):
        query = spec.make_query()
        quality = quality_for(spec)
        row = {"type": spec.query_type, "target": quality.describe()}
        for method in ("srs", mlss_method):
            sampler = make_sampler(method, spec)
            started = time.perf_counter()
            estimate, steps_needed, capped = run_to_quality(
                sampler, query, quality, cap=cap, seed=7)
            label = "srs" if method == "srs" else "mlss"
            row[f"{label}_steps"] = steps_needed
            row[f"{label}_capped"] = capped
            row[f"{label}_seconds"] = time.perf_counter() - started
            row[f"{label}_estimate"] = estimate.probability
        row["step_speedup"] = row["srs_steps"] / max(row["mlss_steps"], 1)
        rows.append(row)
    return rows


def format_efficiency_rows(rows) -> list:
    lines = [f"{'type':8s} {'SRS steps':>12s} {'MLSS steps':>12s} "
             f"{'speedup':>8s} {'SRS s':>8s} {'MLSS s':>8s}"]
    for row in rows:
        srs_mark = "*" if row["srs_capped"] else " "
        mlss_mark = "*" if row["mlss_capped"] else " "
        lines.append(
            f"{row['type']:8s} {row['srs_steps']:>11d}{srs_mark} "
            f"{row['mlss_steps']:>11d}{mlss_mark} "
            f"{row['step_speedup']:>8.1f} {row['srs_seconds']:>8.2f} "
            f"{row['mlss_seconds']:>8.2f}")
    lines.append("(* = budget-capped; steps projected by the 1/n law)")
    return lines


# ----------------------------------------------------------------------
# Figure 8: convergence of the estimate and its quality over time
# ----------------------------------------------------------------------

def convergence_trace(key: str, method: str, budget: int,
                      num_levels: int = 4, seed: int = 3,
                      rnn_cache=None) -> tuple:
    """``(trace, final estimate)`` of one budget-only run.

    The trace holds the per-batch snapshots; it is empty when the first
    batch already spends the budget, so the final answer is returned
    alongside it.
    """
    spec = workload(key)
    query = spec.make_query(rnn_cache_dir=rnn_cache)
    if method == "srs":
        sampler = SRSSampler(batch_roots=200, record_trace=True)
    else:
        partition = spec.balanced_partition(num_levels)
        sampler = SMLSSSampler(partition, ratio=3, batch_roots=50,
                               record_trace=True)
    estimate = sampler.run(query, max_steps=budget, seed=seed)
    return estimate.details["trace"], estimate


def format_trace(trace, expected: float, every: int = 1,
                 final=None) -> list:
    """Rows of every ``every``-th trace point, then the ``final``
    estimate when given (a short run may have an empty trace)."""
    lines = [f"{'steps':>10s} {'estimate':>10s} {'RE':>8s} "
             f"{'CI half':>9s}"]
    for point in trace[::every] + ([final] if final is not None else []):
        re = (point.variance ** 0.5 / point.probability
              if point.probability > 0 else float("inf"))
        half = 1.96 * point.variance ** 0.5
        lines.append(f"{point.steps:>10d} {point.probability:>10.5f} "
                     f"{re:>8.3f} {half:>9.5f}")
    if final is not None:
        lines[-1] += "  (final)"
    lines.append(f"(calibrated truth ~ {expected:.5f})")
    return lines


# ----------------------------------------------------------------------
# Table 6: estimation under level skipping (fixed 50k-step budget)
# ----------------------------------------------------------------------

def volatile_bias_table(n_runs: int, budget: int = 50_000) -> list:
    rows = []
    for key in ("volatile-cpp-tiny", "volatile-cpp-rare",
                "volatile-queue-tiny", "volatile-queue-rare"):
        spec = workload(key)
        query = spec.make_query()
        partition = spec.balanced_partition(LEVELS_FOR_TYPE[spec.query_type])
        values = {"srs": [], "smlss": [], "gmlss": []}
        skip_events = 0
        for run in range(n_runs):
            seed = 10_000 + 31 * run
            values["srs"].append(SRSSampler().run(
                query, max_steps=budget, seed=seed).probability)
            smlss = SMLSSSampler(partition, ratio=3).run(
                query, max_steps=budget, seed=seed + 1)
            values["smlss"].append(smlss.probability)
            skip_events += sum(smlss.details["skips"])
            values["gmlss"].append(GMLSSSampler(partition, ratio=3).run(
                query, max_steps=budget, seed=seed + 1).probability)
        row = {"workload": key, "expected": spec.expected_probability,
               "skip_events": skip_events}
        for method, series in values.items():
            mean, std = mean_std(series)
            row[f"{method}_mean"] = mean
            row[f"{method}_std"] = std
        rows.append(row)
    return rows


def format_volatile_rows(rows) -> list:
    lines = [f"{'workload':22s} {'truth~':>8s} {'SRS':>18s} "
             f"{'s-MLSS':>18s} {'g-MLSS':>18s}"]
    for row in rows:
        lines.append(
            f"{row['workload']:22s} {row['expected']:8.4f} "
            f"{row['srs_mean']:9.4f}±{row['srs_std']:<7.4f} "
            f"{row['smlss_mean']:9.4f}±{row['smlss_std']:<7.4f} "
            f"{row['gmlss_mean']:9.4f}±{row['gmlss_std']:<7.4f}")
    return lines


# ----------------------------------------------------------------------
# Figure 9 / 14 support: g-MLSS efficiency with bootstrap breakdown
# ----------------------------------------------------------------------

def gmlss_efficiency(keys, cap: int, use_greedy: bool = False,
                     trial_steps: int = 20_000) -> list:
    rows = []
    for key in keys:
        spec = workload(key)
        query = spec.make_query()
        quality = quality_for(spec)
        row = {"workload": key}

        started = time.perf_counter()
        estimate, steps_needed, capped = run_to_quality(
            SRSSampler(batch_roots=500), query, quality, cap=cap, seed=5)
        row["srs_seconds"] = time.perf_counter() - started
        row["srs_steps"] = steps_needed
        row["srs_capped"] = capped

        search_seconds = 0.0
        if use_greedy:
            started = time.perf_counter()
            search = adaptive_greedy_partition(
                query, ratio=3, trial_steps=trial_budget(spec, trial_steps),
                seed=11)
            search_seconds = time.perf_counter() - started
            partition = search.partition
        else:
            partition = spec.balanced_partition(
                LEVELS_FOR_TYPE[spec.query_type])
        sampler = GMLSSSampler(partition, ratio=3, batch_roots=100)
        started = time.perf_counter()
        estimate, steps_needed, capped = run_to_quality(
            sampler, query, quality, cap=cap, seed=6)
        total = time.perf_counter() - started
        row["gmlss_seconds"] = total
        row["gmlss_steps"] = steps_needed
        row["gmlss_capped"] = capped
        row["bootstrap_seconds"] = estimate.details["bootstrap_seconds"]
        row["search_seconds"] = search_seconds
        row["speedup"] = row["srs_seconds"] / max(
            total + search_seconds, 1e-9)
        rows.append(row)
    return rows


def format_gmlss_rows(rows) -> list:
    lines = [f"{'workload':22s} {'SRS s':>8s} {'gMLSS s':>8s} "
             f"{'boot s':>7s} {'search s':>8s} {'speedup':>8s}"]
    for row in rows:
        lines.append(
            f"{row['workload']:22s} {row['srs_seconds']:>8.2f} "
            f"{row['gmlss_seconds']:>8.2f} "
            f"{row['bootstrap_seconds']:>7.2f} "
            f"{row['search_seconds']:>8.2f} {row['speedup']:>8.1f}")
    return lines


# ----------------------------------------------------------------------
# Figures 10-12: splitting ratio and level-count trade-offs
# ----------------------------------------------------------------------

def splitting_ratio_sweep(key: str, ratios, cap: int,
                          num_levels: int = 4) -> list:
    spec = workload(key)
    query = spec.make_query()
    quality = quality_for(spec)
    partition = spec.balanced_partition(num_levels)
    rows = []
    for ratio in ratios:
        if ratio == 1:
            sampler = SMLSSSampler(partition, ratio=1, batch_roots=500)
        else:
            sampler = SMLSSSampler(partition, ratio=ratio, batch_roots=100)
        estimate, steps_needed, capped = run_to_quality(
            sampler, query, quality, cap=cap, seed=13 + ratio)
        rows.append({"ratio": ratio, "steps": steps_needed,
                     "capped": capped,
                     "estimate": estimate.probability})
    return rows


def level_count_sweep(key: str, level_counts, cap: int,
                      ratio: int = 3) -> list:
    spec = workload(key)
    query = spec.make_query()
    quality = quality_for(spec)
    rows = []
    for levels in level_counts:
        partition = spec.balanced_partition(levels)
        sampler = SMLSSSampler(partition, ratio=ratio, batch_roots=100)
        estimate, steps_needed, capped = run_to_quality(
            sampler, query, quality, cap=cap, seed=17 + levels)
        rows.append({"levels": levels,
                     "actual_levels": partition.num_levels,
                     "steps": steps_needed, "capped": capped,
                     "estimate": estimate.probability})
    return rows


def format_sweep(rows, x_name: str) -> list:
    lines = [f"{x_name:>8s} {'steps':>12s} {'estimate':>10s}"]
    for row in rows:
        mark = "*" if row["capped"] else " "
        lines.append(f"{row[x_name]:>8} {row['steps']:>11d}{mark} "
                     f"{row['estimate']:>10.5f}")
    return lines


# ----------------------------------------------------------------------
# Figure 13: greedy search vs manually balanced plans vs SRS
# ----------------------------------------------------------------------

def greedy_comparison(keys, cap: int, trial_steps: int = 15_000,
                      method: str = "smlss", rnn_cache=None) -> list:
    rows = []
    for key in keys:
        spec = workload(key)
        query = spec.make_query(rnn_cache_dir=rnn_cache)
        quality = quality_for(spec)
        sampler_cls = SMLSSSampler if method == "smlss" else GMLSSSampler
        row = {"workload": key}

        started = time.perf_counter()
        _, steps, capped = run_to_quality(SRSSampler(batch_roots=500),
                                          query, quality, cap, seed=3)
        row["srs_seconds"] = time.perf_counter() - started
        row["srs_steps"] = steps

        balanced = spec.balanced_partition(LEVELS_FOR_TYPE[spec.query_type])
        started = time.perf_counter()
        _, steps, capped = run_to_quality(
            sampler_cls(balanced, ratio=3), query, quality, cap, seed=4)
        row["bal_seconds"] = time.perf_counter() - started
        row["bal_steps"] = steps

        started = time.perf_counter()
        search = adaptive_greedy_partition(
            query, ratio=3, trial_steps=trial_budget(spec, trial_steps),
            seed=5)
        row["search_seconds"] = time.perf_counter() - started
        row["search_steps"] = search.search_steps
        started = time.perf_counter()
        _, steps, capped = run_to_quality(
            sampler_cls(search.partition, ratio=3), query, quality, cap,
            seed=6)
        row["greedy_seconds"] = time.perf_counter() - started
        row["greedy_steps"] = steps
        row["greedy_plan"] = search.partition
        rows.append(row)
    return rows


def format_greedy_rows(rows) -> list:
    lines = [f"{'workload':18s} {'SRS':>11s} {'MLSS-BAL':>11s} "
             f"{'MLSS-G':>11s} {'G-search':>11s}   (steps)"]
    for row in rows:
        lines.append(
            f"{row['workload']:18s} {row['srs_steps']:>11d} "
            f"{row['bal_steps']:>11d} {row['greedy_steps']:>11d} "
            f"{row['search_steps']:>11d}")
        lines.append(
            f"{'':18s} {row['srs_seconds']:>10.2f}s "
            f"{row['bal_seconds']:>10.2f}s {row['greedy_seconds']:>10.2f}s "
            f"{row['search_seconds']:>10.2f}s  (time)")
    return lines


# ----------------------------------------------------------------------
# Table 7: the pipeline inside the DBMS
# ----------------------------------------------------------------------

def dbms_table7(model: str, cap: int) -> list:
    from repro.db import DurabilityDB

    rows = []
    with DurabilityDB() as db:
        model_id = db.register_model(model, model, {})
        for spec in _model_specs(model):
            query_id = db.register_query(spec.key, model_id,
                                         horizon=spec.horizon,
                                         threshold=spec.beta)
            partition = spec.balanced_partition(
                LEVELS_FOR_TYPE[spec.query_type])
            plan_id = db.register_plan(query_id, partition.boundaries,
                                       ratio=3, source="balanced")
            quality = quality_for(spec)
            row = {"type": spec.query_type}
            for method, plan in (("srs", None), ("gmlss", plan_id)):
                started = time.perf_counter()
                estimate = db.answer_query(
                    query_id, method=method, plan_id=plan,
                    quality=quality, max_steps=cap, seed=21)
                label = "srs" if method == "srs" else "mlss"
                row[f"{label}_seconds"] = time.perf_counter() - started
                row[f"{label}_estimate"] = estimate.probability
            rows.append(row)
    return rows


def format_dbms_rows(rows) -> list:
    lines = [f"{'type':8s} {'SRS s':>8s} {'MLSS s':>8s} {'ratio':>7s}"]
    for row in rows:
        ratio = row["srs_seconds"] / max(row["mlss_seconds"], 1e-9)
        lines.append(f"{row['type']:8s} {row['srs_seconds']:>8.2f} "
                     f"{row['mlss_seconds']:>8.2f} {ratio:>7.1f}")
    return lines
