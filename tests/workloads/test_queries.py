"""Tests for the Table 2 workload registry."""

import pytest

from repro.core.quality import ConfidenceIntervalTarget, RelativeErrorTarget
from repro.processes.queueing import TandemQueueProcess
from repro.processes.volatile import ImpulseProcess
from repro.workloads.queries import (REGISTRY, WorkloadSpec, make_process,
                                     workload, workloads_for)

NON_RNN_KEYS = sorted(k for k, s in REGISTRY.items() if s.model != "rnn")


class TestRegistryShape:
    def test_expected_workloads_present(self):
        assert {"queue-medium", "queue-small", "queue-tiny", "queue-rare",
                "cpp-medium", "cpp-small", "cpp-tiny", "cpp-rare",
                "rnn-small", "rnn-tiny", "volatile-queue-tiny",
                "volatile-queue-rare", "volatile-cpp-tiny",
                "volatile-cpp-rare"} == set(REGISTRY)

    def test_lookup_by_key(self):
        spec = workload("queue-tiny")
        assert spec.model == "queue"
        assert spec.query_type == "tiny"
        with pytest.raises(KeyError):
            workload("queue-gigantic")

    def test_workloads_for_model_ordered(self):
        specs = workloads_for("cpp")
        assert [s.query_type for s in specs] == ["medium", "small", "tiny",
                                                 "rare"]

    def test_paper_numbers_recorded(self):
        spec = workload("cpp-medium")
        assert spec.paper_beta == 300
        assert spec.paper_probability == 0.155


class TestCalibration:
    @pytest.mark.parametrize("key", NON_RNN_KEYS)
    def test_expected_probability_in_paper_band(self, key):
        """Calibrated thresholds land in the paper's probability bands."""
        spec = REGISTRY[key]
        expected = spec.expected_probability
        paper = spec.paper_probability
        assert paper * 0.4 <= expected <= paper * 2.5, (
            f"{key}: calibrated {expected:.5f} vs paper {paper:.5f}")

    def test_probability_ladder_is_decreasing(self):
        for model in ("queue", "cpp"):
            specs = workloads_for(model)
            probs = [s.expected_probability for s in specs]
            assert probs == sorted(probs, reverse=True)

    @pytest.mark.parametrize("key", NON_RNN_KEYS)
    def test_balanced_partitions_valid(self, key):
        spec = REGISTRY[key]
        for levels in (2, 4, 6):
            plan = spec.balanced_partition(levels)
            assert plan.num_levels <= levels
            assert all(spec.initial_z() / spec.beta < b < 1.0
                       for b in plan.boundaries)


class TestProcessConstruction:
    def test_queue_process(self):
        process = make_process("queue")
        assert isinstance(process, TandemQueueProcess)

    def test_volatile_processes_are_wrapped(self):
        assert isinstance(make_process("volatile-queue"), ImpulseProcess)
        assert isinstance(make_process("volatile-cpp"), ImpulseProcess)

    def test_volatile_cpp_active_from_start(self):
        # Documented deviation: CPP maxima occur early under its
        # negative drift (repro.workloads.queries).
        assert make_process("volatile-cpp").active_after == 0

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            make_process("abacus")

    def test_make_query_builds_runnable_query(self):
        import random

        spec = workload("queue-small")
        query = spec.make_query()
        state = query.process.initial_state()
        state = query.process.step(state, 1, random.Random(0))
        assert query.value_function(state, 1) < 1.0
        assert query.horizon == 500

    def test_make_query_reuses_given_process(self):
        spec = workload("cpp-tiny")
        process = make_process("cpp")
        query = spec.make_query(process=process)
        assert query.process is process


class TestQualityTargets:
    def test_medium_uses_ci(self):
        target = workload("queue-medium").quality_target()
        assert isinstance(target, ConfidenceIntervalTarget)
        assert target.half_width == pytest.approx(0.01)

    def test_tiny_uses_re(self):
        target = workload("cpp-tiny").quality_target()
        assert isinstance(target, RelativeErrorTarget)
        assert target.target == pytest.approx(0.10)

    def test_scale_relaxes_target(self):
        target = workload("cpp-tiny").quality_target(scale=3.0)
        assert target.target == pytest.approx(0.30)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            workload("cpp-tiny").quality_target(scale=0.0)
