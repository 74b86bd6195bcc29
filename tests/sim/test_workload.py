"""Tests for the closed-loop workload runtime."""

import pytest

from repro.errors import WorkloadError
from repro.sim.scenario import ScenarioSpec
from repro.sim.workload import ScenarioWorkload, random_model_mix


def closed_loop_workload(model_keys, **kwargs) -> ScenarioWorkload:
    return ScenarioWorkload(ScenarioSpec.closed_loop(model_keys, **kwargs))


class TestClosedLoopSpec:
    def test_rejects_empty(self):
        with pytest.raises(WorkloadError):
            ScenarioSpec.closed_loop([])

    def test_rejects_bad_duration(self):
        with pytest.raises(WorkloadError):
            ScenarioSpec.closed_loop(["RS."], duration_s=-1.0)

    def test_rejects_warmup_after_end(self):
        with pytest.raises(WorkloadError):
            ScenarioSpec.closed_loop(["RS."], duration_s=1.0, warmup_s=1.5)

    def test_total_inferences(self):
        spec = ScenarioSpec.closed_loop(["RS.", "MB."], inferences=3,
                                        warmup_inferences=1)
        assert sum(stream.quota for stream in spec.streams) == 8


class TestRandomModelMix:
    def test_first_eight_distinct(self):
        keys = random_model_mix(8)
        assert len(set(keys)) == 8

    def test_deterministic_by_seed(self):
        assert random_model_mix(32, seed=7) == random_model_mix(32, seed=7)

    def test_different_seeds_differ(self):
        assert random_model_mix(32, seed=1) != random_model_mix(32, seed=2)

    def test_small_counts(self):
        assert random_model_mix(1) == ["RS."]

    def test_rejects_zero(self):
        with pytest.raises(WorkloadError):
            random_model_mix(0)


class TestClosedLoopCountMode:
    def test_first_batch_one_per_stream(self):
        workload = closed_loop_workload(["RS.", "MB."])
        initial = workload.pop_due(0.0).instances
        assert len(initial) == 2
        assert {i.stream_id for i in initial} == set(workload.streams)

    def test_quota_enforced(self):
        workload = closed_loop_workload(["RS."], inferences=2,
                                        warmup_inferences=1)
        workload.pop_due(0.0)
        spawned = 0
        while workload.next_instance(workload.streams[0], 0.0):
            spawned += 1
        assert spawned == 2  # 3 total minus the initial one

    def test_warmup_flag(self):
        workload = closed_loop_workload(["RS."], warmup_inferences=1)
        first = workload.pop_due(0.0).instances[0]
        second = workload.next_instance(first.stream_id, 1.0)
        assert workload.is_warmup(first)
        assert not workload.is_warmup(second)

    def test_qos_scale_applied(self):
        workload = closed_loop_workload(["MB."], qos_scale=0.8)
        inst = workload.pop_due(0.0).instances[0]
        assert inst.qos_target_s == pytest.approx(2.8e-3 * 0.8)


class TestClosedLoopSteadyState:
    def test_dispatch_stops_after_window(self):
        workload = closed_loop_workload(["RS."], duration_s=1.0)
        workload.pop_due(0.0)
        assert workload.next_instance(workload.streams[0], 0.5) is not None
        assert workload.next_instance(workload.streams[0], 1.5) is None

    def test_window_measurement_by_arrival(self):
        workload = closed_loop_workload(["RS."], duration_s=1.0,
                                        warmup_s=0.2)
        inst = workload.pop_due(0.0).instances[0]
        inst.finish_time = 0.5
        assert workload.is_warmup(inst)  # arrived at 0 < warmup
        later = workload.next_instance(inst.stream_id, 0.3)
        later.finish_time = 0.9
        assert not workload.is_warmup(later)
        slow = workload.next_instance(inst.stream_id, 0.95)
        slow.finish_time = 1.4
        # Arrived inside the window: measured even though it finishes
        # after the window ends (no survivorship bias against slow models).
        assert not workload.is_warmup(slow)
