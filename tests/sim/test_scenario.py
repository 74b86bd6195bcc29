"""Tests for the declarative scenario model (specs, registry, lowering,
serialization and arrival-time generation)."""

import json
import math

import pytest

from repro.core.serialize import (
    scenario_spec_from_dict,
    scenario_spec_to_dict,
)
from repro.errors import WorkloadError
from repro.sim.scenario import (
    ArrivalProcess,
    ScenarioSpec,
    StreamSpec,
    get_scenario,
    register_scenario,
    scenario_names,
    scenario_registry,
)


class TestArrivalProcess:
    def test_closed_loop_default(self):
        arrival = ArrivalProcess()
        assert not arrival.is_open_loop
        assert list(arrival.arrival_times(0, 0.0, 1.0)) == []

    def test_periodic_times(self):
        arrival = ArrivalProcess.periodic(period_s=0.25, phase_s=0.1)
        times = list(arrival.arrival_times(0, 1.0, 2.0))
        assert times == pytest.approx([1.1, 1.35, 1.6, 1.85])

    def test_poisson_is_deterministic_per_seed_and_stream(self):
        arrival = ArrivalProcess.poisson(rate_hz=100.0, seed=7)
        a = list(arrival.arrival_times(0, 0.0, 0.5))
        b = list(arrival.arrival_times(0, 0.0, 0.5))
        other_stream = list(arrival.arrival_times(1, 0.0, 0.5))
        assert a == b
        assert a != other_stream
        assert all(0.0 <= t < 0.5 for t in a)

    def test_poisson_rate_is_roughly_honored(self):
        arrival = ArrivalProcess.poisson(rate_hz=1000.0, seed=3)
        times = list(arrival.arrival_times(0, 0.0, 2.0))
        assert len(times) == pytest.approx(2000, rel=0.1)

    def test_bursty_respects_off_windows(self):
        arrival = ArrivalProcess.bursty(period_s=0.1, on_s=0.5, off_s=0.5)
        times = list(arrival.arrival_times(0, 0.0, 2.0))
        assert times
        for t in times:
            assert (t % 1.0) < 0.5 + 1e-9

    def test_bursty_boundary_alignment_terminates(self):
        """Fuzzer-found regression: when the off-window skip lands
        within an ulp of the cycle boundary, the float increment used
        to round to zero and the generator spun forever."""
        arrival = ArrivalProcess.bursty(
            period_s=0.015625, on_s=0.015625,
            off_s=0.012319255088835187,
        )
        times = list(arrival.arrival_times(0, 0.0, 1.0))
        assert len(times) == 36
        assert times == sorted(times)
        assert all(0.0 <= t < 1.0 for t in times)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ArrivalProcess(kind="fractal")
        with pytest.raises(WorkloadError):
            ArrivalProcess.periodic(period_s=0.0)
        with pytest.raises(WorkloadError):
            ArrivalProcess.poisson(rate_hz=-1.0)
        with pytest.raises(WorkloadError):
            ArrivalProcess.bursty(period_s=0.1, on_s=0.0, off_s=0.1)


class TestMMPPArrivals:
    def test_deterministic_per_seed_and_stream(self):
        arrival = ArrivalProcess.mmpp(
            rates_hz=(50.0, 500.0), sojourn_s=(0.05, 0.02), seed=11
        )
        a = list(arrival.arrival_times(0, 0.0, 0.5))
        b = list(arrival.arrival_times(0, 0.0, 0.5))
        assert a == b
        assert a != list(arrival.arrival_times(1, 0.0, 0.5))
        assert all(0.0 <= t < 0.5 for t in a)
        assert a == sorted(a)

    def test_burstier_than_mean_rate_poisson(self):
        """Modulation shows up as higher inter-arrival variance than a
        Poisson process at the same mean rate."""
        arrival = ArrivalProcess.mmpp(
            rates_hz=(10.0, 1000.0), sojourn_s=(0.1, 0.1), seed=5
        )
        times = list(arrival.arrival_times(0, 0.0, 4.0))
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        # Exponential gaps have var == mean^2; modulation inflates it.
        assert var > 1.5 * mean * mean

    def test_zero_rate_state_produces_gaps(self):
        arrival = ArrivalProcess.mmpp(
            rates_hz=(0.0, 800.0), sojourn_s=(0.05, 0.05), seed=3
        )
        times = list(arrival.arrival_times(0, 0.0, 1.0))
        assert times  # the hot state still fires

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ArrivalProcess.mmpp(rates_hz=(), sojourn_s=())
        with pytest.raises(WorkloadError):
            ArrivalProcess.mmpp(rates_hz=(1.0, 2.0), sojourn_s=(0.1,))
        with pytest.raises(WorkloadError):
            ArrivalProcess.mmpp(rates_hz=(-1.0, 2.0),
                                sojourn_s=(0.1, 0.1))
        with pytest.raises(WorkloadError):
            ArrivalProcess.mmpp(rates_hz=(1.0, 2.0),
                                sojourn_s=(0.0, 0.1))


class TestDiurnalArrivals:
    def test_deterministic_per_seed_and_stream(self):
        arrival = ArrivalProcess.diurnal(
            rate_hz=200.0, period_s=0.2, amplitude=0.8, seed=9
        )
        a = list(arrival.arrival_times(0, 0.0, 0.5))
        assert a == list(arrival.arrival_times(0, 0.0, 0.5))
        assert a != list(arrival.arrival_times(1, 0.0, 0.5))
        assert a == sorted(a)

    def test_rate_concentrates_at_peaks(self):
        """With full modulation, arrivals cluster in the sinusoid's
        high-rate half-period."""
        arrival = ArrivalProcess.diurnal(
            rate_hz=400.0, period_s=1.0, amplitude=1.0, seed=2
        )
        times = list(arrival.arrival_times(0, 0.0, 1.0))
        # Peak half-period is [0, 0.5) (sin positive), trough [0.5, 1).
        peak = sum(1 for t in times if t < 0.5)
        assert peak > 0.75 * len(times)

    def test_flash_crowd_boosts_windows(self):
        boosted = ArrivalProcess.diurnal(
            rate_hz=100.0, period_s=10.0, amplitude=0.0,
            flash_every_s=0.5, flash_width_s=0.1, flash_boost=8.0,
            seed=4,
        )
        times = list(boosted.arrival_times(0, 0.0, 5.0))
        in_flash = sum(1 for t in times if (t % 0.5) < 0.1)
        # Flash windows cover 20 % of time but a boosted share of load.
        assert in_flash > 0.45 * len(times)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ArrivalProcess.diurnal(rate_hz=0.0, period_s=1.0)
        with pytest.raises(WorkloadError):
            ArrivalProcess.diurnal(rate_hz=1.0, period_s=0.0)
        with pytest.raises(WorkloadError):
            ArrivalProcess.diurnal(rate_hz=1.0, period_s=1.0,
                                   amplitude=1.5)
        with pytest.raises(WorkloadError):
            ArrivalProcess.diurnal(rate_hz=1.0, period_s=1.0,
                                   flash_every_s=0.1)  # width missing
        with pytest.raises(WorkloadError):
            ArrivalProcess.diurnal(rate_hz=1.0, period_s=1.0,
                                   flash_every_s=0.1, flash_width_s=0.2,
                                   flash_boost=0.5)


class TestReplayArrivals:
    def test_replays_exact_times_within_window(self):
        arrival = ArrivalProcess.replay((0.1, 0.2, 0.7))
        assert arrival.is_open_loop
        assert list(arrival.arrival_times(0, 0.0, 0.5)) == [0.1, 0.2]
        assert list(arrival.arrival_times(3, 0.0, 1.0)) == \
            [0.1, 0.2, 0.7]  # stream index is irrelevant on replay

    def test_closed_loop_replay(self):
        arrival = ArrivalProcess.replay(None)
        assert not arrival.is_open_loop
        assert list(arrival.arrival_times(0, 0.0, 1.0)) == []

    def test_empty_replay_is_open_loop(self):
        arrival = ArrivalProcess.replay(())
        assert arrival.is_open_loop
        assert list(arrival.arrival_times(0, 0.0, 1.0)) == []

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ArrivalProcess.replay((0.2, 0.1))  # not sorted
        with pytest.raises(WorkloadError):
            ArrivalProcess.replay((-0.1,))


class TestSpecs:
    def test_stream_validation(self):
        with pytest.raises(WorkloadError):
            StreamSpec(model="")
        with pytest.raises(WorkloadError):
            StreamSpec(model="MB.", join_s=-1.0)
        with pytest.raises(WorkloadError):
            StreamSpec(model="MB.", join_s=0.2, leave_s=0.1)
        with pytest.raises(WorkloadError):
            StreamSpec(model="MB.", inferences=0)

    def test_scenario_validation(self):
        with pytest.raises(WorkloadError):
            ScenarioSpec(streams=())
        with pytest.raises(WorkloadError):
            ScenarioSpec(
                streams=(StreamSpec(model="MB."),),  # no quota
            )
        with pytest.raises(WorkloadError):
            ScenarioSpec(
                streams=(StreamSpec(model="MB.", inferences=1),),
                duration_s=0.1,
                warmup_s=0.2,
            )
        with pytest.raises(WorkloadError):
            # Joining after the window ends is meaningless.
            ScenarioSpec(
                streams=(StreamSpec(model="MB.", join_s=1.0),),
                duration_s=0.5,
            )

    def test_quota(self):
        stream = StreamSpec(model="MB.", inferences=3,
                            warmup_inferences=2)
        assert stream.quota == 5
        assert StreamSpec(model="MB.").quota is None

    def test_has_dynamics(self):
        static = ScenarioSpec.closed_loop(["MB."], duration_s=0.1)
        assert not static.has_dynamics
        churn = ScenarioSpec(
            streams=(
                StreamSpec(model="MB."),
                StreamSpec(model="RS.", join_s=0.05),
            ),
            duration_s=0.1,
        )
        assert churn.has_dynamics

    def test_scaled(self):
        spec = ScenarioSpec(
            streams=(
                StreamSpec(model="MB.", join_s=0.1, leave_s=0.3),
            ),
            duration_s=0.4,
            warmup_s=0.08,
        )
        half = spec.scaled(0.5)
        assert half.duration_s == pytest.approx(0.2)
        assert half.warmup_s == pytest.approx(0.04)
        assert half.streams[0].join_s == pytest.approx(0.05)
        assert half.streams[0].leave_s == pytest.approx(0.15)
        assert spec.scaled(1.0) is spec


class TestClosedLoopShape:
    def test_count_mode_fields(self):
        scenario = ScenarioSpec.closed_loop(["RS.", "MB."], inferences=4,
                                            warmup_inferences=2,
                                            qos_scale=0.8)
        assert scenario.duration_s is None
        assert scenario.model_keys == ("RS.", "MB.")
        for stream in scenario.streams:
            assert stream.inferences == 4
            assert stream.warmup_inferences == 2
            assert stream.qos_scale == 0.8
            assert not stream.arrival.is_open_loop
            assert stream.join_s == 0.0 and stream.leave_s is None

    def test_steady_state_drops_quota(self):
        scenario = ScenarioSpec.closed_loop(["RS."], duration_s=0.2,
                                            warmup_s=0.05,
                                            warmup_inferences=1)
        assert scenario.duration_s == 0.2
        assert scenario.warmup_s == 0.05
        assert scenario.streams[0].inferences is None
        assert scenario.streams[0].warmup_inferences == 0


class TestSerialization:
    def _roundtrip(self, spec: ScenarioSpec) -> ScenarioSpec:
        payload = json.loads(json.dumps(scenario_spec_to_dict(spec)))
        return scenario_spec_from_dict(payload)

    def test_exact_roundtrip_with_dynamics(self):
        spec = ScenarioSpec(
            streams=(
                StreamSpec(model="RS.", qos_scale=math.inf),
                StreamSpec(
                    model="MB.",
                    arrival=ArrivalProcess.poisson(rate_hz=123.456,
                                                   seed=99),
                    qos_scale=0.8,
                    join_s=0.0125,
                    leave_s=0.34375,
                ),
                StreamSpec(
                    model="BE.",
                    arrival=ArrivalProcess.bursty(
                        period_s=1e-3, on_s=0.02, off_s=0.03,
                        phase_s=1e-4,
                    ),
                ),
            ),
            duration_s=0.4,
            warmup_s=0.08,
        )
        assert self._roundtrip(spec) == spec

    def test_roundtrip_count_mode(self):
        spec = ScenarioSpec.closed_loop(["RS.", "MB."],
                                        warmup_inferences=1)
        assert self._roundtrip(spec) == spec

    def test_registry_specs_roundtrip(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert self._roundtrip(spec) == spec

    def test_schema_version_enforced(self):
        payload = scenario_spec_to_dict(
            ScenarioSpec.closed_loop(["RS."])
        )
        payload["scenario_schema_version"] = 99
        with pytest.raises(WorkloadError):
            scenario_spec_from_dict(payload)

    def test_roundtrip_new_arrival_kinds(self):
        spec = ScenarioSpec(
            streams=(
                StreamSpec(model="RS.",
                           arrival=ArrivalProcess.mmpp(
                               rates_hz=(30.0, 240.0),
                               sojourn_s=(0.06, 0.02), seed=17)),
                StreamSpec(model="MB.",
                           arrival=ArrivalProcess.diurnal(
                               rate_hz=70.0, period_s=0.2,
                               amplitude=0.6, flash_every_s=0.13,
                               flash_width_s=0.02, flash_boost=3.0)),
                StreamSpec(model="EF.",
                           arrival=ArrivalProcess.replay(
                               (0.0125, 0.34375, 0.5))),
                StreamSpec(model="BE.",
                           arrival=ArrivalProcess.replay(None)),
            ),
            duration_s=0.4,
        )
        assert self._roundtrip(spec) == spec

    def test_unknown_arrival_kind_rejected(self):
        """A typo'd or future arrival kind must fail loudly with a
        WorkloadError, not a KeyError (regression: from_dict used to
        index a dispatch table directly)."""
        payload = scenario_spec_to_dict(
            ScenarioSpec.closed_loop(["RS."])
        )
        payload["streams"][0]["arrival"]["kind"] = "fractal"
        with pytest.raises(WorkloadError, match="unknown arrival kind"):
            scenario_spec_from_dict(payload)

    def test_unknown_arrival_field_rejected(self):
        payload = scenario_spec_to_dict(
            ScenarioSpec.closed_loop(["RS."])
        )
        payload["streams"][0]["arrival"]["jitter_s"] = 0.1
        with pytest.raises(WorkloadError):
            scenario_spec_from_dict(payload)

    def test_missing_arrival_rejected(self):
        payload = scenario_spec_to_dict(
            ScenarioSpec.closed_loop(["RS."])
        )
        del payload["streams"][0]["arrival"]
        with pytest.raises(WorkloadError):
            scenario_spec_from_dict(payload)


class TestRegistry:
    def test_builtin_scenarios_present(self):
        names = scenario_names()
        for expected in ("steady-quad", "poisson-eight", "churn-eight",
                         "churn-heavy", "periodic-eight", "bursty-quad"):
            assert expected in names

    def test_unknown_name_raises(self):
        with pytest.raises(WorkloadError):
            get_scenario("does-not-exist")

    def test_register_and_describe(self):
        spec = ScenarioSpec.closed_loop(["MB."], duration_s=0.1)
        register_scenario("test-tmp-scenario", spec, "temporary")
        try:
            assert get_scenario("test-tmp-scenario") is spec
            assert scenario_registry()["test-tmp-scenario"][1] == \
                "temporary"
        finally:
            del __import__(
                "repro.sim.scenario", fromlist=["_REGISTRY"]
            )._REGISTRY["test-tmp-scenario"]
