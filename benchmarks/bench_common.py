"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper's Section 6
(the ``bench_fig*`` / ``bench_table*`` file names say which).  Because
the paper's full protocol (100 repetitions, 1 % CI / 10 % RE targets, a
2x Xeon server) does not fit a laptop budget, benchmarks run a *scaled*
protocol by default and the full one when requested:

* ``REPRO_BENCH_SCALE`` (float, default 1.0) — multiplies repetition
  counts and budgets; ``REPRO_FULL=1`` selects paper-scale settings.
* quality targets are relaxed by a per-experiment factor at default
  scale (the comparisons are unchanged: same budget accounting for all
  methods).

Every experiment writes its paper-vs-measured table to
``benchmarks/results/<name>.txt`` (and prints it, visible with
``pytest -s``), so the tee'd benchmark log plus the results directory
together document the reproduction.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

from repro.core.estimates import DurabilityEstimate
from repro.core.quality import (ConfidenceIntervalTarget,
                                RelativeErrorTarget)

RESULTS_DIR = Path(__file__).resolve().parent / "results"
RNN_CACHE_DIR = str(Path(__file__).resolve().parent / "_cache")

FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def repetitions(default: int, paper: int = 100) -> int:
    """Scaled repetition count (the paper averages over ``paper`` runs)."""
    if FULL:
        return paper
    return max(3, int(round(default * SCALE)))


def quality_for(spec, relax_ci: float = 5.0, relax_re: float = 2.5):
    """The workload's stopping rule, relaxed unless running full-scale."""
    if FULL:
        return spec.quality_target(1.0)
    relax = relax_ci if spec.quality_kind == "ci" else relax_re
    return spec.quality_target(relax / max(SCALE, 1e-9))


def step_cap(default: int) -> int:
    """Budget cap protecting laptop runtimes; lifted in full mode."""
    if FULL:
        return default * 100
    return int(default * SCALE)


def run_to_quality(sampler, query, quality, cap: int, seed: int):
    """Run until the quality target or the cap; extrapolate if capped.

    Returns ``(estimate, steps_to_target, capped)`` where
    ``steps_to_target`` is the measured cost, or — when the cap hit
    first — the projected cost from the 1/n variance law (clearly
    flagged).  This keeps the SRS side of rare-event comparisons
    affordable without distorting the reported ratios.
    """
    estimate = sampler.run(query, quality=quality, max_steps=cap, seed=seed)
    if quality.is_met(estimate.probability, estimate.variance,
                      estimate.hits, estimate.n_roots):
        return estimate, estimate.steps, False
    projected = project_steps_to_target(estimate, quality)
    return estimate, projected, True


def project_steps_to_target(estimate: DurabilityEstimate, quality) -> int:
    """Project the steps needed to meet ``quality`` from a capped run."""
    probability = estimate.probability
    if probability <= 0.0 or estimate.variance <= 0.0:
        return estimate.steps * 100  # no signal at all; report a bound
    if isinstance(quality, RelativeErrorTarget):
        current = math.sqrt(estimate.variance) / probability
        ratio = (current / quality.target) ** 2
    elif isinstance(quality, ConfidenceIntervalTarget):
        from repro.core.stats import critical_value

        half = critical_value(quality.confidence) * math.sqrt(
            estimate.variance)
        allowed = quality.half_width * (probability if quality.relative
                                        else 1.0)
        ratio = (half / allowed) ** 2
    else:
        return estimate.steps
    return int(estimate.steps * max(ratio, 1.0))


def mean_std(values) -> tuple:
    values = list(values)
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def write_report(name: str, title: str, lines) -> str:
    """Write (and print) an experiment report; returns the text."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    header = [title, "=" * len(title),
              f"(scale={'FULL' if FULL else SCALE}; "
              f"see benchmarks/bench_common.py)"]
    text = "\n".join(header + [""] + list(lines)) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print("\n" + text)
    return text


def speedup(baseline: float, improved: float) -> float:
    """Cost ratio baseline/improved (>1 means the improvement wins)."""
    if improved <= 0:
        return math.inf
    return baseline / improved
