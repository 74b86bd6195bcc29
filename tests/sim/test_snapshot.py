"""Engine checkpoint/restore: byte-identical resume.

The tentpole property: an :class:`~repro.sim.snapshot.EngineSnapshot`
captured at any batch boundary, serialized through its JSON envelope,
reloaded and resumed to completion produces a ``metric_summary()``
byte-identical to the uninterrupted run — for every builtin scenario,
all five policies, with and without fault schedules.  The envelope
itself is versioned and content-hashed: unknown schema versions,
corrupt payloads and malformed persistent ids are rejected with
:class:`~repro.errors.SnapshotError` before any state is trusted.

The grid runs the builtin scenarios at ``scale=0.25``: byte-identity is
scale-independent (the full-scale grid holds too, it is just slower),
and the scaled windows keep the exhaustive sweep inside the suite's
time budget.
"""

import io
import json
import pickle

import pytest

from repro.config import SoCConfig
from repro.errors import SnapshotError
from repro.experiments.common import run_scenario
from repro.runconfig import RunConfig
from repro.sim.engine import MultiTenantEngine
from repro.sim.faults import get_fault_schedule
from repro.sim.scenario import (
    ArrivalProcess,
    ScenarioSpec,
    StreamSpec,
    get_scenario,
    scenario_names,
)
from repro.sim.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    EngineSnapshot,
    _dumps,
    _loads,
)

POLICIES = ("baseline", "moca", "aurora", "camdn-hw", "camdn-full")

GRID_SCALE = 0.25


def _summary(result) -> str:
    return json.dumps(result.metric_summary(), sort_keys=True)


def _round_trip(spec, policy, faults=None):
    """Run clean; re-run snapshotting at the midpoint; serialize the
    snapshot through its JSON envelope; resume; compare summaries."""
    soc = SoCConfig()
    clean = run_scenario(spec, soc, policy, config=RunConfig(faults=faults))
    half = clean.events_processed // 2
    snapped = run_scenario(
        spec, soc, policy,
        config=RunConfig(faults=faults, snapshot_at_events=half),
    )
    assert _summary(snapped) == _summary(clean), \
        "snapshot capture perturbed the run it observed"
    snap = snapped.last_snapshot
    assert snap is not None, "snapshot hook never fired"
    assert snap.events_processed >= half
    assert snap.policy == policy
    reloaded = EngineSnapshot.from_json(snap.to_json())
    assert reloaded.payload == snap.payload
    engine = reloaded.resume()
    resumed = engine.resume_run()
    assert _summary(resumed) == _summary(clean), (
        f"resume diverged from the uninterrupted run "
        f"(policy={policy}, snapshot at event {snap.events_processed})"
    )
    assert resumed.events_processed == clean.events_processed
    assert resumed.sim_time_s == clean.sim_time_s
    return clean


@pytest.mark.slow
class TestSnapshotRoundTripGrid:
    """Every builtin scenario x every policy resumes byte-identically."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scenario", scenario_names())
    def test_builtin_scenario_resumes_identically(self, scenario,
                                                  policy):
        _round_trip(get_scenario(scenario).scaled(GRID_SCALE), policy)


@pytest.mark.slow
class TestSnapshotUnderFaults:
    """Snapshots taken mid-fault-schedule (active throttle windows,
    offline cores, pending retirement cursors) resume byte-identically
    too."""

    @pytest.mark.parametrize("policy", ("baseline", "camdn-full"))
    @pytest.mark.parametrize("fault", ("core-flap", "thermal-throttle"))
    @pytest.mark.parametrize("scenario", ("steady-quad", "churn-eight"))
    def test_faulted_run_resumes_identically(self, scenario, fault,
                                             policy):
        _round_trip(
            get_scenario(scenario).scaled(GRID_SCALE), policy,
            faults=get_fault_schedule(fault).scaled(GRID_SCALE),
        )


def _qos_spec(churn: bool = False) -> ScenarioSpec:
    """Finite-deadline tenants so the slack-kernel policies run the
    fused slack path (mode 2/3) when the snapshot hook fires."""
    streams = [
        StreamSpec(model="RS.", qos_scale=1.0, inferences=3,
                   arrival=ArrivalProcess.closed_loop()),
        StreamSpec(model="MB.", qos_scale=1.2, inferences=3,
                   arrival=ArrivalProcess.closed_loop()),
        StreamSpec(model="EF.", qos_scale=1.0, inferences=4,
                   arrival=ArrivalProcess.closed_loop()),
    ]
    if churn:
        streams.append(
            StreamSpec(model="VT.", qos_scale=1.0, inferences=4,
                       arrival=ArrivalProcess.closed_loop(),
                       join_s=0.003, leave_s=0.02)
        )
    return ScenarioSpec(streams=tuple(streams))


class TestSnapshotSlackKernels:
    """Snapshots taken mid-fused-slack-batch resume byte-identically.

    AuRORA and CaMDN-QoS always run the slack-weighted fused kernel;
    MoCA with finite deadlines runs the slack-throttled one.  The
    midpoint snapshot lands while the kernel's slack SoA arrays
    (arrival / qos target / est-isolated-latency / progress) are live,
    so this pins their capture + restore — including across tenant
    churn, which resizes the arrays on both sides of the snapshot.
    """

    @pytest.mark.parametrize("policy", ("aurora", "camdn-qos", "moca"))
    def test_qos_run_resumes_identically(self, policy):
        _round_trip(_qos_spec(), policy)

    @pytest.mark.parametrize("policy", ("aurora", "camdn-qos", "moca"))
    def test_qos_churn_run_resumes_identically(self, policy):
        _round_trip(_qos_spec(churn=True), policy)

    @pytest.mark.parametrize("policy", ("aurora", "camdn-qos"))
    def test_resume_without_native_stays_identical(self, policy):
        """A slack-mode snapshot resumed onto the Python path (native
        disabled) completes byte-identically to the clean
        native run."""
        spec = _qos_spec()
        clean = run_scenario(spec, policy=policy)
        snapped = run_scenario(
            spec, policy=policy,
            config=RunConfig(
                snapshot_at_events=clean.events_processed // 2
            ),
        )
        engine = snapped.last_snapshot.resume(use_native=False)
        assert _summary(engine.resume_run()) == _summary(clean)


class TestEngineSnapshotAPI:
    """The engine-level convenience hooks mirror the snapshot module."""

    def test_engine_resume_classmethod(self):
        spec = get_scenario("steady-quad").scaled(GRID_SCALE)
        clean = run_scenario(spec, policy="camdn-full")
        snapped = run_scenario(
            spec, policy="camdn-full",
            config=RunConfig(
                snapshot_at_events=clean.events_processed // 2
            ),
        )
        engine = MultiTenantEngine.resume(snapped.last_snapshot)
        assert _summary(engine.resume_run()) == _summary(clean)

    def test_resume_forces_python_kernel_identically(self):
        """Step-path selection at resume time never changes results (the
        native and Python paths are bit-identical by contract)."""
        spec = get_scenario("steady-quad").scaled(GRID_SCALE)
        clean = run_scenario(spec, policy="baseline")
        snapped = run_scenario(
            spec, policy="baseline",
            config=RunConfig(
                snapshot_at_events=clean.events_processed // 2
            ),
        )
        engine = snapped.last_snapshot.resume(use_native=False)
        assert _summary(engine.resume_run()) == _summary(clean)


class TestSnapshotEnvelope:
    def _snapshot(self):
        spec = get_scenario("steady-quad").scaled(GRID_SCALE)
        result = run_scenario(spec, policy="baseline",
                              config=RunConfig(snapshot_at_events=1))
        return result.last_snapshot

    def test_envelope_fields(self):
        snap = self._snapshot()
        data = json.loads(snap.to_json())
        assert data["snapshot_schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert data["policy"] == "baseline"
        assert data["events_processed"] == snap.events_processed
        assert data["sim_time_s"] == snap.sim_time_s

    def test_save_load_file_round_trip(self, tmp_path):
        snap = self._snapshot()
        path = tmp_path / "nested" / "snap.json"
        assert snap.save(path) == path
        again = EngineSnapshot.load(path)
        assert again.payload == snap.payload
        assert again.policy == snap.policy
        assert again.events_processed == snap.events_processed
        # No stray temp files left behind by the atomic write.
        assert list(path.parent.iterdir()) == [path]

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_unknown_schema_version_rejected(self, delta):
        """Past versions (whose payloads no longer unpickle into this
        code's state) and future ones are both rejected up front."""
        data = json.loads(self._snapshot().to_json())
        data["snapshot_schema_version"] = SNAPSHOT_SCHEMA_VERSION + delta
        with pytest.raises(SnapshotError, match="schema"):
            EngineSnapshot.from_json(json.dumps(data))

    def test_version_checked_before_payload(self):
        """A future-version envelope is rejected on its version alone —
        the (possibly reshaped) payload is never inspected."""
        data = json.loads(self._snapshot().to_json())
        data["snapshot_schema_version"] = SNAPSHOT_SCHEMA_VERSION + 1
        data["payload"] = "!!! not even base64 !!!"
        with pytest.raises(SnapshotError, match="schema"):
            EngineSnapshot.from_json(json.dumps(data))

    def test_corrupt_payload_hash_rejected(self):
        snap = self._snapshot()
        data = json.loads(snap.to_json())
        tampered = bytearray(snap.payload)
        tampered[len(tampered) // 2] ^= 0xFF
        import base64

        data["payload"] = base64.b64encode(bytes(tampered)).decode()
        with pytest.raises(SnapshotError, match="hash mismatch"):
            EngineSnapshot.from_json(json.dumps(data))

    def test_non_json_rejected(self):
        with pytest.raises(SnapshotError, match="not valid JSON"):
            EngineSnapshot.from_json("definitely not json{")

    def test_non_object_rejected(self):
        with pytest.raises(SnapshotError):
            EngineSnapshot.from_json("[1, 2, 3]")

    def test_missing_payload_rejected(self):
        data = json.loads(self._snapshot().to_json())
        del data["payload"]
        with pytest.raises(SnapshotError, match="unreadable"):
            EngineSnapshot.from_json(json.dumps(data))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            EngineSnapshot.load(tmp_path / "no-such-snapshot.json")

    def test_garbage_payload_rejected_on_resume(self):
        snap = EngineSnapshot(policy="baseline",
                              payload=_dumps({"junk": 1}))
        with pytest.raises(SnapshotError, match="deserialize"):
            snap.resume()


class _AlienPickler(pickle.Pickler):
    """Emits persistent ids the snapshot unpickler must reject."""

    def __init__(self, file, pid):
        super().__init__(file, protocol=4)
        self._pid = pid

    def persistent_id(self, obj):
        if obj == "marker":
            return self._pid
        return None


def _alien_payload(pid) -> bytes:
    buf = io.BytesIO()
    _AlienPickler(buf, pid).dump(["marker"])
    return buf.getvalue()


class TestPersistentIdValidation:
    def test_unknown_pid_kind_rejected(self):
        with pytest.raises(SnapshotError, match="unknown persistent id"):
            _loads(_alien_payload(("alien", "x")))

    def test_malformed_pid_rejected(self):
        with pytest.raises(SnapshotError, match="malformed"):
            _loads(_alien_payload(("model", "RS.", "extra")))

    def test_interned_graphs_resolve_to_zoo_identity(self):
        from repro.models.zoo import build_model

        graph = build_model("RS.")
        (again,) = _loads(_dumps([graph]))
        assert again is graph


class TestRollingCheckpoints:
    def test_checkpoint_every_s_requires_dir(self):
        """A cadence with nowhere to write is a WorkloadError at
        RunConfig construction, before any simulation."""
        from repro.errors import WorkloadError

        spec = get_scenario("steady-quad").scaled(GRID_SCALE)
        with pytest.raises(WorkloadError, match="checkpoint_dir"):
            run_scenario(spec, policy="baseline",
                         config=RunConfig(checkpoint_every_s=1.0))

    def test_rolling_checkpoint_written_and_resumable(self, tmp_path):
        """``checkpoint_every_s=0`` forces a checkpoint at every batch
        boundary; the rolling file is a valid snapshot whose resumed
        completion matches the uninterrupted run byte-identically."""
        spec = get_scenario("steady-quad").scaled(GRID_SCALE)
        clean = run_scenario(spec, policy="camdn-full")
        checked = run_scenario(spec, policy="camdn-full",
                               config=RunConfig(
                                   checkpoint_every_s=0.0,
                                   checkpoint_dir=str(tmp_path),
                               ))
        assert _summary(checked) == _summary(clean), \
            "rolling checkpoints perturbed the run"
        path = tmp_path / "checkpoint.json"
        assert path.exists()
        # Only the committed checkpoint is visible — no temp files.
        assert list(tmp_path.iterdir()) == [path]
        engine = EngineSnapshot.load(path).resume()
        assert _summary(engine.resume_run()) == _summary(clean)
