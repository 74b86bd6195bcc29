"""Tests for the versioned event-trace capture/replay format."""

import json

import pytest

from repro.config import SoCConfig
from repro.errors import WorkloadError
from repro.experiments.common import run_scenario
from repro.runconfig import RunConfig
from repro.sim.scenario import (
    ArrivalProcess,
    ScenarioSpec,
    StreamSpec,
    scenario_registry,
)
from repro.sim.trace import (
    ARRIVAL,
    COMPLETION,
    TRACE_SCHEMA_VERSION,
    EventTrace,
    EventTraceRecorder,
    TraceEvent,
)

POLICIES = ("baseline", "moca", "aurora", "camdn-hw", "camdn-full")

_SPEC = ScenarioSpec(
    streams=(
        StreamSpec(model="MB.",
                   arrival=ArrivalProcess.poisson(rate_hz=150.0)),
        StreamSpec(model="EF.",
                   arrival=ArrivalProcess.periodic(period_s=0.01),
                   join_s=0.01, leave_s=0.04),
    ),
    duration_s=0.05,
)


def _capture(spec, policy):
    return run_scenario(spec, SoCConfig(), policy,
                        config=RunConfig(capture_trace=True))


class TestTraceEvent:
    def test_roundtrip(self):
        event = TraceEvent(kind=ARRIVAL, t=0.125, stream="MB.@0",
                           instance="MB.@0#3")
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(WorkloadError, match="unknown trace-event"):
            TraceEvent(kind="teleport", t=0.0, stream="MB.@0")

    def test_unknown_field_rejected(self):
        data = TraceEvent(kind=ARRIVAL, t=0.0, stream="MB.@0").to_dict()
        data["severity"] = "high"
        with pytest.raises(WorkloadError, match="unknown trace-event"):
            TraceEvent.from_dict(data)


class TestEventTraceFormat:
    def test_dict_roundtrip_is_exact(self):
        trace = _capture(_SPEC, "camdn-full").event_trace
        data = trace.to_dict()
        assert data["trace_schema_version"] == TRACE_SCHEMA_VERSION
        restored = EventTrace.from_dict(data)
        assert restored == trace
        assert restored.to_dict() == data

    def test_content_hash_detects_tampering(self):
        trace = _capture(_SPEC, "baseline").event_trace
        data = trace.to_dict()
        data["events"][0]["t"] += 1e-9
        with pytest.raises(WorkloadError, match="content hash"):
            EventTrace.from_dict(data)

    def test_version_mismatch_rejected(self):
        data = _capture(_SPEC, "baseline").event_trace.to_dict()
        data["trace_schema_version"] = 99
        with pytest.raises(WorkloadError, match="trace schema"):
            EventTrace.from_dict(data)

    def test_save_load_roundtrip(self, tmp_path):
        trace = _capture(_SPEC, "camdn-hw").event_trace
        path = trace.save(tmp_path / "run.trace.json")
        loaded = EventTrace.load(path)
        assert loaded == trace
        assert loaded.content_hash == trace.content_hash

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.trace.json"
        path.write_text("{not json")
        with pytest.raises(WorkloadError):
            EventTrace.load(path)

    def test_recorder_finish_freezes_events(self):
        recorder = EventTraceRecorder()
        recorder.record(ARRIVAL, 0.0, "MB.@0")
        recorder.record(COMPLETION, 0.01, "MB.@0", "MB.@0#0")
        trace = recorder.finish(_SPEC, "baseline")
        assert trace.count(ARRIVAL) == 1
        assert trace.count(COMPLETION) == 1
        assert trace.events_of(COMPLETION)[0].instance == "MB.@0#0"

    def test_capture_is_pure_observation(self):
        """Recording must not perturb the simulation."""
        captured = _capture(_SPEC, "camdn-full")
        plain = run_scenario(_SPEC, SoCConfig(), "camdn-full")
        assert json.dumps(captured.metric_summary(), sort_keys=True) == \
            json.dumps(plain.metric_summary(), sort_keys=True)


class TestCaptureReplayRegistry:
    """Acceptance bar: any builtin-registry run replays byte-identically
    under every policy."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(scenario_registry()))
    def test_replay_reproduces_metric_summary(self, name, policy):
        spec = scenario_registry()[name][0].scaled(0.25)
        source = _capture(spec, policy)
        trace = source.event_trace
        replay_spec = trace.replay_scenario()
        # The replay spec swaps every open-loop arrival for the recorded
        # instants; closed-loop streams keep their completion coupling.
        for orig, rep in zip(spec.streams, replay_spec.streams):
            if orig.arrival.is_open_loop:
                assert rep.arrival.kind == "replay"
            assert rep.arrival.is_open_loop == orig.arrival.is_open_loop
        replayed = run_scenario(replay_spec, SoCConfig(), policy)
        assert json.dumps(replayed.metric_summary(), sort_keys=True) == \
            json.dumps(source.metric_summary(), sort_keys=True)
        # The trace's event counts mirror the result's accounting.
        assert trace.count("arrival") == source.offered_inferences
        assert trace.count("completion") == source.completed_inferences
        assert trace.count("cancel") == source.cancelled_inferences
        assert trace.count("drop") == source.dropped_inferences
