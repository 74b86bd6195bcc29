"""RunConfig: the consolidated run-control surface of run_scenario.

PR 10 collapsed run_scenario's dozen run-control keywords into one
frozen :class:`RunConfig`.  The contract, stated as tests: the new
``config=`` form is byte-identical to the legacy keyword form, legacy
keywords still work but warn :class:`DeprecationWarning`, invalid
combinations fail at construction (not mid-simulation), and mixing
both forms is an error.
"""

import dataclasses
import json

import pytest

from repro.errors import WorkloadError
from repro.experiments.common import run_scenario
from repro.runconfig import RUN_CONFIG_KEYS, RunConfig

SCENARIO = "steady-quad"


def summary_bytes(result) -> str:
    return json.dumps(result.metric_summary(), sort_keys=True)


class TestConstruction:
    def test_frozen(self):
        config = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.qos_mode = True

    def test_replace(self):
        config = RunConfig().replace(qos_mode=True)
        assert config.qos_mode is True
        assert RunConfig().qos_mode is False

    def test_keys_match_fields(self):
        """The legacy-shim key set and the dataclass fields must never
        drift apart."""
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert fields == set(RUN_CONFIG_KEYS)

    def test_checkpoint_cadence_requires_dir(self):
        """The satellite fix: a checkpoint cadence with nowhere to
        write is a WorkloadError at construction, not a silent no-op
        or a mid-run ValueError."""
        with pytest.raises(WorkloadError, match="checkpoint_dir"):
            RunConfig(checkpoint_every_s=1.0)

    def test_checkpoint_cadence_not_negative(self):
        # 0.0 is the legacy "checkpoint at every batch boundary" form
        # and stays valid; only negative cadences are rejected.
        with pytest.raises(WorkloadError, match="negative"):
            RunConfig(checkpoint_every_s=-1.0, checkpoint_dir="/tmp/x")
        RunConfig(checkpoint_every_s=0.0, checkpoint_dir="/tmp/x")

    def test_max_events_positive(self):
        with pytest.raises(WorkloadError, match="max_events"):
            RunConfig(max_events=0)

    def test_max_wall_nonnegative(self):
        with pytest.raises(WorkloadError, match="max_wall_s"):
            RunConfig(max_wall_s=-1.0)

    def test_replace_revalidates(self):
        with pytest.raises(WorkloadError, match="checkpoint_dir"):
            RunConfig().replace(checkpoint_every_s=1.0)


class TestRemovedOptions:
    """Options removed outright (no deprecation shim): passing one must
    fail, never warn-and-continue or be silently ignored."""

    REMOVED = ("kernel_backend",)

    @pytest.mark.parametrize("name", REMOVED)
    def test_run_config_rejects(self, name):
        with pytest.raises(TypeError, match=name):
            RunConfig(**{name: "list"})

    @pytest.mark.parametrize("name", REMOVED)
    def test_legacy_keyword_rejects(self, name, recwarn):
        with pytest.raises(TypeError, match=name):
            run_scenario(SCENARIO, policy="baseline", **{name: "list"})
        assert name not in RUN_CONFIG_KEYS
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestShim:
    def test_config_form_matches_legacy_byte_identically(self):
        reference = run_scenario(SCENARIO, policy="camdn-full",
                                 config=RunConfig(qos_mode=True))
        with pytest.warns(DeprecationWarning, match="qos_mode"):
            legacy = run_scenario(SCENARIO, policy="camdn-full",
                                  qos_mode=True)
        assert summary_bytes(legacy) == summary_bytes(reference)

    def test_legacy_keywords_warn(self):
        with pytest.warns(DeprecationWarning,
                          match="config=RunConfig"):
            run_scenario(SCENARIO, policy="baseline", max_wall_s=600.0)

    def test_config_form_does_not_warn(self, recwarn):
        run_scenario(SCENARIO, policy="baseline",
                     config=RunConfig(max_wall_s=600.0))
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_mixing_forms_rejected(self):
        with pytest.raises(ValueError, match="not both"), \
                pytest.warns(DeprecationWarning):
            run_scenario(SCENARIO, policy="baseline",
                         config=RunConfig(), max_events=50)

    def test_legacy_checkpoint_validation_still_fires(self):
        """The lowered legacy keywords go through RunConfig validation
        too."""
        with pytest.raises(WorkloadError, match="checkpoint_dir"), \
                pytest.warns(DeprecationWarning):
            run_scenario(SCENARIO, policy="baseline",
                         checkpoint_every_s=1.0)

    def test_config_qos_mode_reaches_the_scheduler(self):
        """``config.qos_mode`` selects the QoS integration exactly like
        the legacy keyword did (the scheduler reports its own row
        name)."""
        result = run_scenario(SCENARIO, policy="camdn-full",
                              config=RunConfig(qos_mode=True))
        assert result.scheduler_name == "camdn-qos"

    def test_qos_mode_is_redundant_not_fatal_on_camdn_qos(self):
        """``qos_mode=True`` alongside ``policy="camdn-qos"`` (which
        already pins the flag in the factory) must not blow up with a
        duplicate-keyword TypeError."""
        result = run_scenario(SCENARIO, policy="camdn-qos",
                              config=RunConfig(qos_mode=True))
        assert result.scheduler_name == "camdn-qos"


class TestConfigControls:
    def test_max_events_arms_the_watchdog(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="event cap"):
            run_scenario(SCENARIO, policy="baseline",
                         config=RunConfig(max_events=100))

    def test_snapshot_at_events(self):
        result = run_scenario(
            SCENARIO, policy="baseline",
            config=RunConfig(snapshot_at_events=50),
        )
        assert result.last_snapshot is not None
        assert result.last_snapshot.events_processed >= 50

    def test_checkpoint_dir_writes_checkpoints(self, tmp_path):
        run_scenario(
            SCENARIO, policy="baseline",
            config=RunConfig(checkpoint_every_s=0.0001,
                             checkpoint_dir=str(tmp_path)),
        )
        assert (tmp_path / "checkpoint.json").exists()
