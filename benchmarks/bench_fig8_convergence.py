"""Figure 8: estimate and quality-guarantee convergence over time.

Paper's shape: both samplers' estimates stay inside their shrinking
confidence bands, and MLSS's band shrinks much faster per simulation
step than SRS's.
"""

import pytest

from bench_common import RNN_CACHE_DIR, step_cap, write_report
from experiments import convergence_trace, format_trace
from repro.workloads import workload


@pytest.mark.benchmark(group="fig8")
def test_fig8a_queue_small_ci_convergence(benchmark):
    budget = step_cap(400_000)
    spec = workload("queue-small")

    def run():
        return (convergence_trace("queue-small", "srs", budget),
                convergence_trace("queue-small", "smlss", budget))

    (srs_trace, srs), (mlss_trace, mlss) = benchmark.pedantic(
        run, rounds=1, iterations=1)
    lines = (["SRS:"] + format_trace(srs_trace, spec.expected_probability,
                                     every=max(len(srs_trace) // 8, 1),
                                     final=srs)
             + ["", "MLSS:"]
             + format_trace(mlss_trace, spec.expected_probability,
                            every=max(len(mlss_trace) // 8, 1),
                            final=mlss))
    write_report("fig8a_queue_small", "Figure 8(1) — Queue Small, CI",
                 lines)
    assert mlss.relative_error() < srs.relative_error()
    # Quality must improve monotonically-ish: compare first vs last.
    assert mlss_trace[-1].variance < mlss_trace[0].variance


@pytest.mark.benchmark(group="fig8")
def test_fig8b_cpp_tiny_re_convergence(benchmark):
    budget = step_cap(700_000)
    spec = workload("cpp-tiny")

    def run():
        return (convergence_trace("cpp-tiny", "srs", budget),
                convergence_trace("cpp-tiny", "smlss", budget,
                                  num_levels=5))

    (srs_trace, srs), (mlss_trace, mlss) = benchmark.pedantic(
        run, rounds=1, iterations=1)
    lines = (["SRS:"] + format_trace(srs_trace, spec.expected_probability,
                                     every=max(len(srs_trace) // 8, 1),
                                     final=srs)
             + ["", "MLSS:"]
             + format_trace(mlss_trace, spec.expected_probability,
                            every=max(len(mlss_trace) // 8, 1),
                            final=mlss))
    write_report("fig8b_cpp_tiny", "Figure 8(2) — CPP Tiny, RE", lines)
    assert mlss.relative_error() < srs.relative_error()


@pytest.mark.benchmark(group="fig8")
def test_fig8c_rnn_tiny_re_convergence(benchmark):
    budget = step_cap(120_000)
    spec = workload("rnn-tiny")

    def run():
        return (convergence_trace("rnn-tiny", "srs", budget,
                                  rnn_cache=RNN_CACHE_DIR),
                convergence_trace("rnn-tiny", "smlss", budget,
                                  num_levels=5, rnn_cache=RNN_CACHE_DIR))

    (srs_trace, srs), (mlss_trace, mlss) = benchmark.pedantic(
        run, rounds=1, iterations=1)
    lines = (["SRS:"] + format_trace(srs_trace, spec.expected_probability,
                                     every=max(len(srs_trace) // 6, 1),
                                     final=srs)
             + ["", "MLSS:"]
             + format_trace(mlss_trace, spec.expected_probability,
                            every=max(len(mlss_trace) // 6, 1),
                            final=mlss))
    write_report("fig8c_rnn_tiny", "Figure 8(3) — RNN Tiny, RE", lines)
    # At this budget SRS has few hits on a ~0.6 % event; MLSS must be
    # strictly tighter.
    assert mlss.relative_error() < srs.relative_error()
