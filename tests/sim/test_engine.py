"""Tests for the fluid multi-tenant engine."""

import pytest

from repro.config import SoCConfig
from repro.schedulers import make_scheduler
from repro.schedulers.base import SchedulerPolicy
from repro.sim.engine import MultiTenantEngine
from repro.sim.scenario import ScenarioSpec
from repro.sim.task import LayerWork
from repro.sim.workload import ScenarioWorkload


class FixedWorkScheduler(SchedulerPolicy):
    """Deterministic test policy: every layer costs fixed work."""

    name = "fixed"

    def __init__(self, cycles=1000.0, dram=1000.0):
        super().__init__()
        self.cycles = cycles
        self.dram = dram

    def begin_layer(self, instance, now):
        return LayerWork(compute_cycles=self.cycles,
                         dram_bytes=self.dram), 0.0


def _run(scheduler, model_keys=("MB.",), inferences=1, cores=None,
         qos_scale=float("inf")):
    soc = SoCConfig()
    if cores is not None:
        soc = SoCConfig(num_npu_cores=cores)
    spec = ScenarioSpec.closed_loop(
        model_keys, inferences=inferences, qos_scale=qos_scale
    )
    workload = ScenarioWorkload(spec)
    return MultiTenantEngine(soc, scheduler, workload).run()


class TestDeterministicTiming:
    def test_single_stream_latency_exact(self):
        # MB has 64 layers; compute 1000 cycles @ 1 GHz = 1 us dominates
        # memory 1000 B at full BW (~10 ns).
        result = _run(FixedWorkScheduler(cycles=1000, dram=1000))
        latency = result.metrics.avg_latency_s()
        assert latency == pytest.approx(64 * 1e-6, rel=1e-3)

    def test_memory_bound_latency_exact(self):
        # 1.024 MB per layer at 102.4 GB/s full share = 10 us per layer.
        result = _run(FixedWorkScheduler(cycles=10, dram=1.024e6))
        latency = result.metrics.avg_latency_s()
        assert latency == pytest.approx(64 * 1e-5, rel=1e-3)

    def test_two_streams_share_bandwidth(self):
        solo = _run(FixedWorkScheduler(cycles=10, dram=1.024e6))
        duo = _run(FixedWorkScheduler(cycles=10, dram=1.024e6),
                   model_keys=("MB.", "MB."))
        ratio = (duo.metrics.avg_latency_s() /
                 solo.metrics.avg_latency_s())
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_queueing_beyond_core_count(self):
        # 2 streams on 1 core: one inference waits a full service time, so
        # the mean latency is exactly 1.5x the solo service time.
        solo = _run(FixedWorkScheduler(cycles=1000, dram=10), cores=1)
        queued = _run(FixedWorkScheduler(cycles=1000, dram=10),
                      model_keys=("MB.", "MB."), cores=1)
        assert queued.metrics.avg_latency_s() == pytest.approx(
            1.5 * solo.metrics.avg_latency_s(), rel=0.01
        )

    def test_dram_accounting(self):
        result = _run(FixedWorkScheduler(cycles=10, dram=500))
        assert result.metrics.avg_dram_bytes_per_inference() == \
            pytest.approx(64 * 500)


class TestRealPolicies:
    @pytest.mark.parametrize(
        "policy", ["baseline", "moca", "aurora", "camdn-hw", "camdn-full"]
    )
    def test_every_policy_completes(self, policy):
        result = _run(make_scheduler(policy), model_keys=("MB.", "EF."),
                      inferences=1)
        assert result.metrics.num_inferences == 2
        assert result.sim_time_s > 0

    def test_camdn_traffic_below_baseline_under_contention(self):
        keys = ("RS.", "MB.", "EF.", "VT.") * 2
        base = _run(make_scheduler("baseline"), model_keys=keys)
        camdn = _run(make_scheduler("camdn-full"), model_keys=keys)
        assert camdn.metrics.macro_avg_dram_bytes() < \
            base.metrics.macro_avg_dram_bytes()

    def test_engine_records_all_inferences(self):
        result = _run(make_scheduler("camdn-full"),
                      model_keys=("MB.",), inferences=3)
        assert result.metrics.num_inferences == 3

    def test_scheduler_stats_exposed(self):
        result = _run(make_scheduler("camdn-full"), model_keys=("MB.",))
        assert "lbm_layers" in result.scheduler_stats


class TestSummaryMetrics:
    def test_summary_exposes_tail_and_qos_fields(self):
        result = _run(FixedWorkScheduler(cycles=1000, dram=10),
                      model_keys=("MB.", "RS."), inferences=2)
        summary = result.summary()
        assert "p99_latency_ms" in summary
        assert "qos_violations" in summary
        assert summary["p99_latency_ms"] > 0

    def test_p99_is_max_latency_for_small_samples(self):
        # Nearest-rank p99 over n <= 100 records selects the maximum.
        result = _run(FixedWorkScheduler(cycles=1000, dram=10),
                      model_keys=("MB.", "MB.", "MB."), inferences=3)
        latencies = [r.latency_s for r in result.metrics.records]
        assert result.metrics.p99_latency_s() == pytest.approx(
            max(latencies)
        )

    def test_no_deadlines_means_no_violations(self):
        result = _run(FixedWorkScheduler(cycles=1000, dram=10),
                      model_keys=("MB.",), inferences=2)
        assert result.summary()["qos_violations"] == 0

    def test_impossible_deadlines_all_violate(self):
        result = _run(FixedWorkScheduler(cycles=1000, dram=10),
                      model_keys=("MB.", "MB."), inferences=2,
                      qos_scale=1e-9)
        summary = result.summary()
        assert summary["qos_violations"] == summary["inferences"] == 4
