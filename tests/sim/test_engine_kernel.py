"""Kernel-loop reference equivalence, kernel step, fast-forward and
clamp tests.

The structure-of-arrays kernel loop is pinned against the committed
20-scenario reference summaries (``tests/data/
metric_summary_reference.json``, captured on the pre-refactor engine).
The legacy per-instance scan loop that served as the in-process oracle
for one release has been removed — the frozen reference JSON is the
oracle now.
"""

import json
import math
from pathlib import Path

import pytest

from repro import simulate
from repro.config import DRAMConfig, SoCConfig
from repro.schedulers import make_scheduler
from repro.schedulers.base import SchedulerPolicy
from repro.sim.engine import MultiTenantEngine
from repro.sim.kernel import RunningKernel
from repro.sim.task import LayerWork
from repro.sim.workload import ClosedLoopWorkload, WorkloadSpec

POLICIES = ["baseline", "moca", "aurora", "camdn-hw", "camdn-full"]

#: Mixed workload exercising waits (camdn), multi-core grants (aurora
#: under deadlines) and both dynamic- and static-rate policies.
KEYS = ("RS.", "MB.", "EF.", "BE.")

REFERENCE_PATH = (
    Path(__file__).parent.parent / "data" / "metric_summary_reference.json"
)


def _run(policy_name, *, use_native=None, keys=KEYS,
         qos_scale=float("inf"), inferences=2):
    spec = WorkloadSpec(
        model_keys=list(keys),
        inferences_per_stream=inferences,
        warmup_inferences=0,
        qos_scale=qos_scale,
    )
    engine = MultiTenantEngine(
        SoCConfig(),
        make_scheduler(policy_name),
        ClosedLoopWorkload(spec),
        use_native=use_native,
    )
    return engine.run()


def _metrics_json(result) -> str:
    return json.dumps(result.metric_summary(), sort_keys=True)


class TestReferenceEquivalence:
    """Spot checks against the frozen pre-refactor reference (the full
    20-scenario x 5-policy sweep runs in the slow tier, see
    ``test_reference_summaries.py``)."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_pair_scenario_matches_reference(self, policy):
        reference = json.loads(REFERENCE_PATH.read_text())
        fresh = simulate(policy, ["RS.", "MB."], inferences_per_stream=2)
        assert _metrics_json(fresh) == json.dumps(
            reference["pair-rs-mb"][policy], sort_keys=True
        )

    def test_steady_state_matches_reference(self):
        reference = json.loads(REFERENCE_PATH.read_text())
        fresh = simulate("camdn-full", ["RS.", "MB.", "EF.", "VT."],
                         duration_s=0.03)
        assert _metrics_json(fresh) == json.dumps(
            reference["steady-quad"]["camdn-full"], sort_keys=True
        )


class TestKernelStep:
    @pytest.mark.parametrize("works,rate,wait_dt,dt,finished,rem", [
        # Soonest completion: max(1000/1e9, 500/1e9) = 1 us.
        ([(1000.0, 500.0), (2000.0, 500.0), (3000.0, 500.0)], 1e9,
         math.inf, 1e-6, [0], [0.0, 0.0, 1000.0, 0.0, 2000.0, 0.0]),
        # A layer ends when its slower stream drains: 4000 B at 1000 B/s.
        ([(1000.0, 4000.0)], 1000.0, math.inf, 4.0, [0], [0.0, 0.0]),
        # A due wakeup cuts the step short: both streams drain partway.
        ([(1000.0, 2000.0)], 1000.0, 0.5, 0.5, [], [500.0, 1500.0]),
        # The faster stream overshoots its remainder and clamps at zero.
        ([(10.0, 1000.0)], 1e9, math.inf, 1e-6, [0], [0.0, 0.0]),
    ])
    def test_membership_and_step(self, works, rate, wait_dt, dt,
                                 finished, rem):
        """Unit-level kernel check against closed-form fluid math."""
        from repro.sim.task import TaskInstance
        from repro.models.zoo import build_model

        kernel = RunningKernel()
        graph = build_model("MB.")
        insts = []
        for i, (cycles, dram) in enumerate(works):
            inst = TaskInstance(instance_id=f"t{i}", stream_id=f"t{i}",
                                graph=graph, arrival_time=0.0)
            inst.begin_work(LayerWork(compute_cycles=cycles,
                                      dram_bytes=dram))
            kernel.add(inst)
            insts.append(inst)
        n = len(insts)
        kernel.set_rates([rate] * n, [rate] * n)
        got_dt, got_finished = kernel.step(wait_dt)
        assert got_dt == pytest.approx(dt)
        assert got_finished == finished
        drained = [x for pair in zip(kernel.rem_c, kernel.rem_d)
                   for x in pair]
        assert drained == pytest.approx(rem)
        assert min(drained) >= 0.0
        # Finished instances get their fluid state written back.
        for inst in kernel.take_finished(got_finished):
            assert inst.rem_compute_cycles == 0.0
            assert inst.rem_dram_bytes == 0.0
        # Removal writes back too, and compacts positions in order.
        ids = [inst.instance_id for inst in insts]
        kernel.remove(insts[0])
        assert [insts[0].rem_compute_cycles, insts[0].rem_dram_bytes] \
            == drained[:2]
        assert [i.instance_id for i in kernel.insts] == ids[1:]
        assert kernel.pos == {iid: j for j, iid in enumerate(ids[1:])}


class FixedWork(SchedulerPolicy):
    """Equal-split policy with fixed per-layer work."""

    name = "fixed-work"

    def __init__(self, dram: float):
        super().__init__()
        self.dram = dram

    def begin_layer(self, instance, now):
        return LayerWork(compute_cycles=10.0, dram_bytes=self.dram), 0.0


class TestRateClampConsistency:
    """Regression for the dt/advance clamp mismatch (ISSUE 2 satellite).

    The pre-kernel loop clamped the DRAM rate to >= 1e-6 only in the
    min-dt search while advancing at the raw rate, so a near-zero share
    produced a finite dt with no matching progress — the run crawled
    toward the event cap.  The kernel clamps once, at rate installation,
    so dt and progress always agree.  A near-zero DRAM bandwidth drives
    the rate below the clamp.
    """

    @pytest.mark.parametrize("use_native", [None, False])
    def test_near_zero_rate_completes_consistently(self, use_native):
        spec = WorkloadSpec(model_keys=["MB."], inferences_per_stream=1,
                            warmup_inferences=0)
        soc = SoCConfig(dram=DRAMConfig(total_bandwidth_bytes_per_s=1e-30))
        engine = MultiTenantEngine(
            soc,
            FixedWork(dram=1e-3),
            ClosedLoopWorkload(spec),
            use_native=use_native,
        )
        result = engine.run()
        # One event per layer (plus bounded residual events): progress
        # matches the computed dt instead of stalling.
        assert result.metrics.num_inferences == 1
        assert result.events_processed <= 3 * 64
        # The clamped rate (1e-6 B/s) governs the simulated time.
        assert result.sim_time_s == pytest.approx(64 * 1e-3 / 1e-6,
                                                  rel=0.01)

    def test_normal_shares_unaffected_by_clamp(self):
        """The clamp floor is unreachable for real policies: the frozen
        reference pins the absolute values."""
        result = _run("baseline", keys=("MB.",), inferences=1)
        assert result.metrics.num_inferences == 1


class TestRuntimeObservability:
    def test_wall_time_and_events_in_summary(self):
        result = _run("baseline", keys=("MB.",), inferences=1)
        summary = result.summary()
        assert summary["events_processed"] == result.events_processed > 0
        assert summary["wall_time_s"] > 0
        assert result.events_per_s > 0

    def test_metric_summary_excludes_runtime_keys(self):
        result = _run("baseline", keys=("MB.",), inferences=1)
        metric = result.metric_summary()
        runtime_keys = ("wall_time_s", "events_processed",
                        "avg_queue_delay_ms", "offered_load_ratio",
                        "cancelled_inferences", "dropped_inferences")
        for key in runtime_keys:
            assert key not in metric
        # summary() is metric_summary() plus the runtime/scenario keys.
        full = result.summary()
        assert {k: v for k, v in full.items()
                if k not in runtime_keys} == metric

    def test_closed_loop_offered_load_is_balanced(self):
        result = _run("baseline", keys=("MB.", "MB."), inferences=2)
        assert result.offered_inferences == 4
        assert result.cancelled_inferences == 0
        assert result.offered_load_ratio == pytest.approx(1.0)


class TestFastForward:
    def test_static_policy_uses_fast_forward(self):
        """An equal-split policy with no waiters must produce the same
        metrics whichever step path drains its cached rates; the
        reference suite covers absolute values, this covers the
        fast-forward bookkeeping (dispatch of successor inferences) by
        cross-checking the native static step against the Python one."""
        result = _run("baseline", keys=("MB.", "MB."), inferences=3)
        python = _run("baseline", use_native=False, keys=("MB.", "MB."),
                      inferences=3)
        assert result.metrics.num_inferences == 6
        assert _metrics_json(result) == _metrics_json(python)
        assert result.events_processed == python.events_processed