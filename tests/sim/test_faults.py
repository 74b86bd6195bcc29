"""Fault-injection subsystem: spec round-trips, engine semantics per
fault kind, the empty-spec byte-identity bar, and the watchdog."""

from __future__ import annotations

import json

import pytest

from repro.config import SoCConfig
from repro.errors import SimulationError, WorkloadError
from repro.experiments.common import run_scenario
from repro.runconfig import RunConfig
from repro.schedulers import make_scheduler
from repro.schedulers.camdn_full import CaMDNFullScheduler
from repro.sim.engine import MultiTenantEngine
from repro.sim.faults import (
    CORE_OFFLINE,
    DRAM_DEGRADE,
    EXPIRY,
    ONSET,
    PAGE_RETIRE,
    TENANT_STALL,
    FaultEvent,
    FaultRuntime,
    FaultSpec,
    fault_schedule_names,
    fault_schedule_registry,
    get_fault_schedule,
    register_fault_schedule,
)
from repro.sim.scenario import get_scenario
from repro.sim.workload import ScenarioWorkload

POLICIES = ("baseline", "moca", "aurora", "camdn-hw", "camdn-full")


def _conserved(result) -> bool:
    return result.offered_inferences == (
        result.completed_inferences + result.cancelled_inferences
        + result.dropped_inferences
    )


class TestFaultEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(WorkloadError, match="unknown fault kind"):
            FaultEvent(kind="meteor-strike", t_s=0.1)

    def test_negative_onset_rejected(self):
        with pytest.raises(WorkloadError, match="t_s"):
            FaultEvent(kind=PAGE_RETIRE, t_s=-0.1, pages=4)

    def test_dram_degrade_needs_factor_in_unit_interval(self):
        with pytest.raises(WorkloadError, match="bw_factor"):
            FaultEvent(kind=DRAM_DEGRADE, t_s=0.1, duration_s=0.1)
        with pytest.raises(WorkloadError, match="bw_factor"):
            FaultEvent(kind=DRAM_DEGRADE, t_s=0.1, duration_s=0.1,
                       bw_factor=0.0)
        with pytest.raises(WorkloadError, match="bw_factor"):
            FaultEvent(kind=DRAM_DEGRADE, t_s=0.1, duration_s=0.1,
                       bw_factor=1.5)

    def test_core_offline_requires_duration(self):
        # A permanent outage could strand queued work forever.
        with pytest.raises(WorkloadError, match="duration_s"):
            FaultEvent(kind=CORE_OFFLINE, t_s=0.1, cores=2)

    def test_page_retire_is_permanent(self):
        with pytest.raises(WorkloadError, match="permanent"):
            FaultEvent(kind=PAGE_RETIRE, t_s=0.1, pages=4,
                       duration_s=0.1)

    def test_tenant_stall_requires_duration(self):
        with pytest.raises(WorkloadError, match="duration_s"):
            FaultEvent(kind=TENANT_STALL, t_s=0.1)

    def test_unknown_field_rejected(self):
        with pytest.raises(WorkloadError, match="unknown fault-event"):
            FaultEvent.from_dict(
                {"kind": PAGE_RETIRE, "t_s": 0.1, "pages": 4,
                 "severity": "high"}
            )


class TestFaultSpecRoundTrip:
    def test_exact_round_trip(self):
        spec = FaultSpec(
            events=(
                FaultEvent(kind=DRAM_DEGRADE, t_s=0.1,
                           duration_s=0.07, bw_factor=1.0 / 3.0),
                FaultEvent(kind=PAGE_RETIRE, t_s=0.05, pages=17),
                FaultEvent(kind=TENANT_STALL, t_s=0.2,
                           duration_s=0.01, stream_index=3),
            ),
            seed=17,
        )
        rebuilt = FaultSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt == spec
        assert rebuilt.to_dict() == spec.to_dict()

    def test_registry_schedules_round_trip(self):
        for name in fault_schedule_names():
            spec = get_fault_schedule(name)
            assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_unsupported_version_rejected(self):
        data = FaultSpec().to_dict()
        data["fault_schema_version"] = 99
        with pytest.raises(WorkloadError, match="unsupported fault"):
            FaultSpec.from_dict(data)

    def test_unknown_spec_field_rejected(self):
        data = FaultSpec().to_dict()
        data["intensity"] = 1.0
        with pytest.raises(WorkloadError, match="unknown fault-spec"):
            FaultSpec.from_dict(data)

    def test_scaled_stretches_timeline(self):
        spec = FaultSpec(events=(
            FaultEvent(kind=CORE_OFFLINE, t_s=0.1, duration_s=0.2,
                       cores=2),
            FaultEvent(kind=PAGE_RETIRE, t_s=0.3, pages=4),
        ))
        half = spec.scaled(0.5)
        assert half.events[0].t_s == pytest.approx(0.05)
        assert half.events[0].duration_s == pytest.approx(0.1)
        assert half.events[1].t_s == pytest.approx(0.15)
        assert half.events[1].duration_s is None
        assert spec.scaled(1.0) is spec

    def test_registry_lookup_error(self):
        with pytest.raises(WorkloadError, match="unknown fault schedule"):
            get_fault_schedule("no-such-schedule")

    def test_register_and_snapshot(self):
        spec = register_fault_schedule(
            "test-tmp-schedule", FaultSpec(), "test entry"
        )
        try:
            assert get_fault_schedule("test-tmp-schedule") is spec
            assert "test-tmp-schedule" in fault_schedule_registry()
        finally:
            from repro.sim import faults

            faults._REGISTRY.pop("test-tmp-schedule", None)


class TestFaultRuntime:
    def test_actions_ordered_and_popped(self):
        spec = FaultSpec(events=(
            FaultEvent(kind=TENANT_STALL, t_s=0.2, duration_s=0.1),
            FaultEvent(kind=PAGE_RETIRE, t_s=0.1, pages=1),
        ))
        runtime = FaultRuntime(spec)
        assert runtime.next_s() == pytest.approx(0.1)
        assert runtime.pop_due(0.05) == []
        due = runtime.pop_due(0.1)
        assert [(seq, phase) for seq, phase, _ in due] == [(1, ONSET)]
        assert runtime.next_s() == pytest.approx(0.2)
        due = runtime.pop_due(0.35)
        assert [(seq, phase) for seq, phase, _ in due] == [
            (0, ONSET), (0, EXPIRY)
        ]
        assert runtime.exhausted
        assert runtime.next_s() == float("inf")


class TestEmptySpecByteIdentity:
    """An empty (or absent) FaultSpec must be invisible in the metrics:
    the fault plumbing may not perturb a single float."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scenario", ("steady-quad", "churn-eight"))
    def test_empty_spec_metric_summary_identical(self, policy, scenario):
        spec = get_scenario(scenario).scaled(0.15)
        clean = run_scenario(spec, policy=policy)
        empty = run_scenario(spec, policy=policy,
                             config=RunConfig(faults=FaultSpec()))
        named = run_scenario(spec, policy=policy,
                             config=RunConfig(faults="none"))
        a = json.dumps(clean.metric_summary(), sort_keys=True)
        b = json.dumps(empty.metric_summary(), sort_keys=True)
        c = json.dumps(named.metric_summary(), sort_keys=True)
        assert a == b == c
        assert clean.events_processed == empty.events_processed


class _InvariantProbe(CaMDNFullScheduler):
    """camdn-full checking full-system invariants at every fault-adjacent
    hook (page retirement, capacity change, tenant retire)."""

    def __init__(self):
        super().__init__()
        self.checks = 0

    def _sweep(self):
        self.system.check_invariants()
        self.checks += 1

    def on_pages_retired(self, count, rng_key, now):
        retired = super().on_pages_retired(count, rng_key, now)
        self._sweep()
        return retired

    def on_capacity_change(self, num_cores, now):
        super().on_capacity_change(num_cores, now)
        self._sweep()

    def on_tenant_retire(self, stream_id, now):
        super().on_tenant_retire(stream_id, now)
        self._sweep()


class TestFaultSemantics:
    def test_tenant_stall_offers_fewer_arrivals(self):
        spec = get_scenario("steady-quad").scaled(0.5)
        stall = FaultSpec(events=(
            FaultEvent(kind=TENANT_STALL, t_s=0.05, duration_s=0.08),
        ))
        clean = run_scenario(spec, policy="baseline")
        stalled = run_scenario(spec, policy="baseline",
                               config=RunConfig(faults=stall))
        assert stalled.offered_inferences < clean.offered_inferences
        assert _conserved(stalled)

    def test_core_offline_preempts_and_recovers(self):
        spec = get_scenario("steady-quad").scaled(0.5)
        soc = SoCConfig()
        outage = FaultSpec(events=(
            FaultEvent(kind=CORE_OFFLINE, t_s=0.05, duration_s=0.05,
                       cores=soc.num_npu_cores - 1),
        ))
        probe = _InvariantProbe()
        result = run_scenario(spec, soc, probe,
                              config=RunConfig(faults=outage))
        # 4 streams, 1 core left: 3 in-flight inferences preempted.
        assert result.cancelled_inferences == 3
        assert _conserved(result)
        assert probe.checks >= 2  # offline + online capacity changes
        probe.system.check_invariants()
        # The outage ends mid-run: tenants keep completing afterwards.
        clean = run_scenario(spec, soc, policy="camdn-full")
        assert result.completed_inferences < \
            clean.completed_inferences
        assert result.completed_inferences > 0

    def test_dram_degrade_slows_and_recovers(self):
        spec = get_scenario("steady-quad").scaled(0.5)
        throttle = FaultSpec(events=(
            FaultEvent(kind=DRAM_DEGRADE, t_s=0.04, duration_s=0.1,
                       bw_factor=0.25),
        ))
        clean = run_scenario(spec, policy="baseline")
        hot = run_scenario(spec, policy="baseline",
                           config=RunConfig(faults=throttle))
        assert hot.completed_inferences < clean.completed_inferences
        assert _conserved(hot)

    def test_page_retire_counts_surface_in_stats(self):
        spec = get_scenario("steady-quad").scaled(0.5)
        storm = FaultSpec(events=(
            FaultEvent(kind=PAGE_RETIRE, t_s=0.03, pages=16),
            FaultEvent(kind=PAGE_RETIRE, t_s=0.06, pages=8),
        ))
        probe = _InvariantProbe()
        result = run_scenario(spec, SoCConfig(), probe,
                              config=RunConfig(faults=storm))
        assert result.scheduler_stats["pages_retired"] == 24.0
        allocator = probe.system.regions.allocator
        assert allocator.retired_pages == 24
        assert _conserved(result)

    def test_fault_events_recorded_in_trace(self):
        spec = get_scenario("steady-quad").scaled(0.25)
        result = run_scenario(
            spec, policy="baseline",
            config=RunConfig(faults="thermal-throttle", capture_trace=True),
        )
        faults = result.event_trace.events_of("fault")
        # Two windows -> two onsets + two expiries, in time order.
        assert [e.instance for e in faults] == [
            "onset", "expiry", "onset", "expiry"
        ]
        assert all(e.stream.startswith("dram-degrade@") for e in faults)


class TestWatchdog:
    def _engine(self, **kwargs):
        spec = get_scenario("steady-quad").scaled(0.25)
        return MultiTenantEngine(
            SoCConfig(), make_scheduler("baseline"),
            ScenarioWorkload(spec), **kwargs,
        )

    def test_max_events_raises_with_snapshot(self):
        engine = self._engine()
        with pytest.raises(SimulationError, match="event cap") as info:
            engine.run(max_events=50)
        snapshot = info.value.snapshot
        assert snapshot["events_processed"] <= 50
        assert snapshot["now"] >= 0.0
        assert "active_ids" in snapshot

    def test_max_wall_raises(self):
        engine = self._engine()
        with pytest.raises(SimulationError, match="wall-clock"):
            engine.run(max_wall_s=0.0)

    def test_env_event_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_EVENTS", "50")
        engine = self._engine()
        with pytest.raises(SimulationError, match="event cap"):
            engine.run()

    def test_generous_budget_is_invisible(self):
        free = self._engine().run()
        budgeted = self._engine().run(max_events=10_000_000,
                                      max_wall_s=600.0)
        assert free.metric_summary() == budgeted.metric_summary()
