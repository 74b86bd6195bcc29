"""Native fused-step equivalence and loader behaviour.

The batch loop's two step paths — the native C fused step and the
Python pair of the policy's share rule (:func:`repro.memory.bwalloc.
shares`, rates installed as ``_recompute_rates`` does) and
:meth:`RunningKernel.step` — must be bit-identical across every rate
spec (demand-proportional, slack-weighted, slack-throttled); the
committed reference suite pins the default path and these tests pin the
cross-path agreement, including MoCA's mid-run rate epoch transitions,
QoS tenant churn and fuzzed fault schedules.

For every shipped policy the native call also runs the completion
chain across events: a per-kind lookup of the next layer (CaMDN's
end-of-layer update, selection and grant; the transparent-cache
policies' work-table entry) and one shared install of its work.  Its
Python twin is the ``REPRO_NATIVE=0`` path: every exit reason of the
native loop is driven here, for both chain kinds, and compared with
that twin on ``metric_summary()``, ``scheduler.stats()`` and a mid-run
snapshot.
"""

import contextlib
import dataclasses
import json
import math
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings

from fuzz_faults import dump_falsifying_fault_case, fault_specs
from fuzz_scenarios import (
    count_mode_scenario_specs,
    dump_falsifying_spec,
    scenario_specs,
)
from repro.config import MiB, SoCConfig
from repro.core.serialize import simulation_result_to_dict
from repro.errors import SimulationError
from repro.memory import bwalloc
from repro.schedulers import (
    AuRORAScheduler,
    MoCAScheduler,
    make_scheduler,
)
from repro.schedulers.camdn_full import CaMDNFullScheduler
from repro.schedulers.shared_baseline import SharedCacheBaseline
from repro.sim import native
from repro.sim.engine import MultiTenantEngine
from repro.sim.kernel import RunningKernel
from repro.sim.scenario import (
    ArrivalProcess,
    ScenarioSpec,
    StreamSpec,
    get_scenario,
)
from repro.sim.trace import TraceRecorder
from repro.sim.workload import ScenarioWorkload

POLICIES = ("baseline", "moca", "aurora", "camdn-hw", "camdn-full",
            "camdn-qos")

#: The policies whose native calls run the completion chain: every
#: shipped one (CaMDN's kind and the shared-cache kind).
CHAIN_POLICIES = POLICIES

_fuzz_settings = settings(
    max_examples=int(os.environ.get("REPRO_FUZZ_EXAMPLES", "10")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large],
)

NATIVE = native.fused_step()

needs_native = pytest.mark.skipif(
    NATIVE is None,
    reason=f"native fused step unavailable: {native.native_status()}",
)


def _metrics_json(result) -> str:
    return json.dumps(result.metric_summary(), sort_keys=True)


def _python_step(kernel, spec, wait_dt, freq, bw, eff, now=0.0):
    """One Python-path event: the spec's shares, the engine's clamped
    rate install, then the kernel step."""
    shares = bwalloc.shares(spec, kernel, freq, now)
    kernel.set_rates(
        [freq] * len(shares),
        [r if (r := bw * s * eff) > 1e-6 else 1e-6 for s in shares],
    )
    return kernel.step(wait_dt)


def _native_event(rem_c, rem_d, rate_c, rate_d, wait_dt, mode, freq,
                  bw, eff, floor, slack=((), (), (), ()), now=0.0,
                  urgency=0.0):
    """One event through the native batch entry (no completion chain,
    an event budget of one): ``(dt, finished)`` like
    :meth:`RunningKernel.step`, or None when the call bails.

    The entry takes the boundary as an instant, so the wait clamp it
    applies is ``(now + wait_dt) - now`` — see :func:`_clamp`."""
    res = NATIVE(rem_c, rem_d, rate_c, rate_d, *map(list, slack), mode,
                 freq, bw, eff, floor, urgency, now, now + wait_dt, 1,
                 False, [None] * len(rem_c), None, native.new_counters())
    if res is None:
        return None
    _, _, _, finished, dt = res
    return dt, finished


def _clamp(wait_dt, now):
    """The wait clamp :func:`_native_event` applies for ``wait_dt``."""
    return max((now + wait_dt) - now, 0.0)


def _run(policy_name, *, use_native=None,
         keys=("RS.", "MB.", "EF.", "BE."), qos_scale=float("inf"),
         inferences=2):
    spec = ScenarioSpec.closed_loop(
        keys, inferences=inferences, qos_scale=qos_scale
    )
    engine = MultiTenantEngine(
        SoCConfig(),
        make_scheduler(policy_name),
        ScenarioWorkload(spec),
        use_native=use_native,
    )
    return engine.run()


class TestLoader:
    def test_status_reports_outcome(self):
        status = native.native_status()
        assert status
        if NATIVE is not None:
            assert status.startswith("loaded")

    def test_env_kill_switch(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset_for_tests()
        try:
            assert native.fused_step() is None
            assert "REPRO_NATIVE" in native.native_status()
        finally:
            monkeypatch.delenv("REPRO_NATIVE")
            native.reset_for_tests()
            native.fused_step()

    def test_engine_runs_without_native(self):
        result = _run("camdn-full", use_native=False)
        assert result.metrics.num_inferences == 8

    @needs_native
    def test_corrupt_cached_binary_rebuilds(self, tmp_path):
        """A truncated/garbage cached .so is invalidated and rebuilt
        once instead of degrading to the Python path.

        Runs in subprocesses: the recovery path is a *fresh* process
        finding corrupt bytes on disk — overwriting a shared object
        that is already dlopen'ed into this process would be undefined
        behaviour, not the scenario under test.
        """
        import subprocess
        import sys
        from pathlib import Path

        src = Path(native.__file__).parents[2]
        env = dict(os.environ)
        env["REPRO_NATIVE_CACHE"] = str(tmp_path)
        env["PYTHONPATH"] = str(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        code = (
            "from repro.sim import native; "
            "native.fused_step(); print(native.native_status())"
        )

        def status():
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.strip()

        assert status().startswith("loaded")
        (so_path,) = tmp_path.glob("*.so")
        so_path.write_bytes(b"this is not a shared object")
        assert status().startswith("loaded")
        # The cache entry was rebuilt into a loadable binary.
        assert so_path.read_bytes()[:4] != b"this"


@needs_native
class TestFusedStepBitIdentity:
    """The C demand-proportional step against the Python rule + step."""

    def _kernel_with(self, rem_c, rem_d):
        kernel = RunningKernel()
        # Install the fluid state directly: the demand rule only reads
        # the rem arrays (compute rate == freq by contract).
        kernel.rem_c = list(rem_c)
        kernel.rem_d = list(rem_d)
        kernel.insts = [None] * len(rem_c)
        return kernel

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_state_agrees(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            n = rng.choice((0, 1, 2, 3, 8, 24, 100))
            rem_c = [rng.uniform(0.0, 5e4) for _ in range(n)]
            rem_d = [rng.uniform(0.0, 1e5) for _ in range(n)]
            wait_dt = rng.choice(
                (math.inf, rng.uniform(0.0, 1e-4), 0.0)
            )
            freq, bw = 1e9, 102.4e9
            eff = rng.choice((0.92, 0.775))
            floor = 0.02
            c_rem_c, c_rem_d = list(rem_c), list(rem_d)
            res_c = _native_event(c_rem_c, c_rem_d, [], [], wait_dt, 1,
                                  freq, bw, eff, floor)
            kernel = self._kernel_with(rem_c, rem_d)
            dt_py, fin_py = _python_step(kernel, ("demand_prop", floor),
                                         wait_dt, freq, bw, eff)
            assert res_c is not None
            dt_c, fin_c = res_c
            assert repr(dt_c) == repr(dt_py)
            assert (fin_c or None) == (fin_py or None)
            assert [x.hex() for x in c_rem_c] == \
                [x.hex() for x in kernel.rem_c]
            assert [x.hex() for x in c_rem_d] == \
                [x.hex() for x in kernel.rem_d]

    def test_static_mode_matches_kernel_step(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.choice((1, 2, 8, 30))
            rem_c = [rng.uniform(0.0, 5e4) for _ in range(n)]
            rem_d = [rng.uniform(0.0, 1e5) for _ in range(n)]
            rate_c = [1e9] * n
            rate_d = [max(rng.uniform(0.0, 2e10), 1e-6)
                      for _ in range(n)]
            wait_dt = rng.choice((math.inf, rng.uniform(0.0, 1e-4)))
            c_rem_c, c_rem_d = list(rem_c), list(rem_d)
            res_c = _native_event(c_rem_c, c_rem_d, rate_c, rate_d,
                                  wait_dt, 0, 1e9, 102.4e9, 1.0, 0.0)
            kernel = RunningKernel()
            kernel.rem_c = list(rem_c)
            kernel.rem_d = list(rem_d)
            kernel.rate_c = list(rate_c)
            kernel.rate_d = list(rate_d)
            kernel.insts = [None] * n
            dt_py, fin_py = kernel.step(wait_dt)
            dt_c, fin_c = res_c
            assert repr(dt_c) == repr(dt_py)
            assert (fin_c or []) == fin_py
            if not math.isinf(dt_c):
                assert [x.hex() for x in c_rem_c] == \
                    [x.hex() for x in kernel.rem_c]
                assert [x.hex() for x in c_rem_d] == \
                    [x.hex() for x in kernel.rem_d]

    def test_non_float_items_fall_back(self):
        assert _native_event([1, 2.0], [2.0, 3.0], [], [], math.inf, 1,
                             1e9, 1e9, 0.9, 0.02) is None


@needs_native
class TestFusedSlackBitIdentity:
    """The C slack modes against the Python rule + step.

    Modes 2 (slack-weighted, AuRORA/CaMDN-QoS) and 3 (slack-throttled,
    MoCA with finite deadlines) over randomized fluid state and slack
    inputs — mixed finite/infinite deadlines, arbitrary progress, the
    ±20 clamp edges — asserting bit-identical dt, finished sets and
    in-place remaining-work updates.
    """

    MODES = (2, 3)

    def _kernel_with(self, rem_c, rem_d, arrival, qos, est, progress):
        kernel = RunningKernel()
        kernel.rem_c = list(rem_c)
        kernel.rem_d = list(rem_d)
        kernel.sl_arrival = list(arrival)
        kernel.sl_qos = list(qos)
        kernel.sl_est = list(est)
        kernel.sl_progress = list(progress)
        kernel.insts = [None] * len(rem_c)
        return kernel

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_state_agrees(self, mode, seed):
        rng = random.Random(1000 * mode + seed)
        for _ in range(200):
            n = rng.choice((0, 1, 2, 3, 8, 24, 100))
            rem_c = [rng.uniform(0.0, 5e4) for _ in range(n)]
            rem_d = [rng.uniform(0.0, 1e5) for _ in range(n)]
            now = rng.uniform(0.0, 0.1)
            arrival = [rng.uniform(0.0, now) for _ in range(n)]
            qos = [rng.choice((math.inf,
                               rng.uniform(1e-5, 2e-2),
                               # Tiny targets push slack past the ±20
                               # clamp the weighted mode applies.
                               rng.uniform(1e-9, 1e-6)))
                   for _ in range(n)]
            est = [rng.uniform(1e-6, 5e-2) for _ in range(n)]
            progress = [rng.uniform(0.0, 1.0) for _ in range(n)]
            wait_dt = rng.choice(
                (math.inf, rng.uniform(0.0, 1e-4), 0.0)
            )
            freq, bw = 1e9, 102.4e9
            eff = rng.choice((0.92, 0.775))
            floor = rng.choice((0.02, 0.0))
            urgency = 3.0 if mode == 2 else 0.0
            c_rem_c, c_rem_d = list(rem_c), list(rem_d)
            res_c = _native_event(c_rem_c, c_rem_d, [], [], wait_dt,
                                  mode, freq, bw, eff, floor,
                                  (arrival, qos, est, progress), now,
                                  urgency)
            kernel = self._kernel_with(rem_c, rem_d, arrival, qos, est,
                                       progress)
            spec = ("slack_weighted", urgency, floor) if mode == 2 \
                else ("slack_throttled", floor)
            dt_py, fin_py = _python_step(kernel, spec,
                                         _clamp(wait_dt, now), freq, bw,
                                         eff, now)
            assert res_c is not None
            dt_c, fin_c = res_c
            assert repr(dt_c) == repr(dt_py)
            assert (fin_c or None) == (fin_py or None)
            assert [x.hex() for x in c_rem_c] == \
                [x.hex() for x in kernel.rem_c]
            assert [x.hex() for x in c_rem_d] == \
                [x.hex() for x in kernel.rem_d]

    def test_non_float_slack_items_fall_back(self):
        args = ([2.0], [3.0], [], [], math.inf, 2, 1e9, 1e9, 0.9, 0.02)
        good = ([0.0], [1.0], [0.01], [0.5])
        assert _native_event(*args, good, 0.0, 3.0) is not None
        for pos in range(4):
            bad = list(good)
            bad[pos] = [1]  # int, not float
            assert _native_event(*args, bad, 0.0, 3.0) is None

    def test_mismatched_slack_lengths_fall_back(self):
        assert _native_event([2.0], [3.0], [], [], math.inf, 2,
                             1e9, 1e9, 0.9, 0.02,
                             ([0.0, 0.0], [1.0], [0.01], [0.5]),
                             0.0, 3.0) is None

    def test_slack_mode_requires_slack_inputs(self):
        # A slack mode without slack inputs bails.
        assert _native_event([2.0], [3.0], [], [], math.inf, 2,
                             1e9, 1e9, 0.9, 0.02) is None


class TestEngineCrossPathIdentity:
    """Engine runs must agree across the native and Python paths."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_native_vs_python(self, policy):
        with_native = _run(policy, use_native=None)
        without = _run(policy, use_native=False)
        assert _metrics_json(with_native) == _metrics_json(without)
        assert with_native.events_processed == without.events_processed

    @pytest.mark.parametrize(
        "policy", ("moca", "camdn-full", "aurora", "camdn-qos"))
    def test_qos_workload_agrees(self, policy):
        # Finite deadlines: MoCA's slack throttle wakes up
        # (rate_kernel flips to ("slack_throttled", floor)), aurora /
        # camdn-qos run the slack-weighted fused kernel, and aurora
        # multi-core grants engage.
        with_native = _run(policy, use_native=None, qos_scale=1.0)
        without = _run(policy, use_native=False, qos_scale=1.0)
        assert _metrics_json(with_native) == _metrics_json(without)

    @pytest.mark.parametrize("policy", ("aurora", "camdn-qos"))
    def test_slack_tenant_join_leave(self, policy):
        # QoS tenants joining and leaving mid-run resize the kernel's
        # slack SoA arrays inside active fused batches; both step paths
        # must stay in lockstep across the churn.
        spec = ScenarioSpec(
            streams=(
                StreamSpec(model="RS.", qos_scale=1.0, inferences=3,
                           arrival=ArrivalProcess.closed_loop()),
                StreamSpec(model="MB.", qos_scale=1.2, inferences=2,
                           arrival=ArrivalProcess.closed_loop(),
                           join_s=0.004),
                StreamSpec(model="EF.", qos_scale=1.0, inferences=6,
                           arrival=ArrivalProcess.closed_loop(),
                           join_s=0.002, leave_s=0.012),
            ),
        )

        def run(use_native=None):
            engine = MultiTenantEngine(
                SoCConfig(), make_scheduler(policy),
                ScenarioWorkload(spec), use_native=use_native,
            )
            return engine.run()

        with_native = run()
        without = run(use_native=False)
        assert _metrics_json(with_native) == _metrics_json(without)
        assert with_native.events_processed == without.events_processed

    def test_moca_mid_run_epoch_transition(self):
        # One deadline-carrying stream finishes early, flipping MoCA's
        # rule back to plain demand-proportional mid-run: the fused
        # batch must resume exactly where the Python path would.
        spec = ScenarioSpec(
            streams=(
                StreamSpec(model="RS.", qos_scale=1.0, inferences=1,
                           arrival=ArrivalProcess.closed_loop()),
                StreamSpec(model="MB.", inferences=4,
                           arrival=ArrivalProcess.closed_loop()),
                StreamSpec(model="EF.", inferences=4,
                           arrival=ArrivalProcess.closed_loop()),
            ),
        )

        def run(use_native):
            scheduler = make_scheduler("moca")
            engine = MultiTenantEngine(
                SoCConfig(), scheduler, ScenarioWorkload(spec),
                use_native=use_native,
            )
            result = engine.run()
            # The rule changed twice: deadline task started, then ended.
            assert scheduler.rate_epoch == 2
            return result

        with_native = run(None)
        without = run(False)
        assert _metrics_json(with_native) == _metrics_json(without)
        assert with_native.events_processed == without.events_processed


class TestFuzzedCrossPathIdentity:
    """Cross-path agreement on fuzzed scenarios.

    The curated cases above pin known-tricky transitions; this drives
    both step paths over open-loop backlogs that drain past the window
    (``test_scenario_fuzz`` covers arbitrary specs).  Budget scales with
    ``REPRO_FUZZ_EXAMPLES`` (strategies live in :mod:`fuzz_scenarios`).
    """

    def _run_spec(self, spec, policy, *, use_native=None):
        engine = MultiTenantEngine(
            SoCConfig(),
            make_scheduler(policy),
            ScenarioWorkload(spec),
            use_native=use_native,
        )
        return engine.run()

    @_fuzz_settings
    @given(spec=count_mode_scenario_specs())
    @pytest.mark.parametrize("policy", CHAIN_POLICIES)
    def test_fuzzed_backlog_drain_native_vs_python(self, spec, policy):
        # Count-mode quotas force open-loop backlogs to drain fully
        # across whichever step path is active.
        with_native = self._run_spec(spec, policy, use_native=None)
        python = self._run_spec(spec, policy, use_native=False)
        assert with_native.offered_inferences == \
            python.offered_inferences
        assert _metrics_json(with_native) == _metrics_json(python), \
            dump_falsifying_spec(spec, policy, "backlog-native-vs-python")


class TestFaultedSlackCrossPath:
    """Slack-kernel policies under fuzzed fault schedules.

    Fault actions (DRAM throttles, core outages, tenant stalls) cut
    fused batches at arbitrary instants and change the efficiency /
    capacity inputs between them; the slack-weighted native path must
    resume each batch exactly where the Python path would.
    Fuzzed specs mix finite and infinite deadlines, so the same run
    crosses trivial (slack == 1.0) and active slack regimes.
    """

    @_fuzz_settings
    @given(spec=scenario_specs(), faults=fault_specs())
    @pytest.mark.parametrize("policy", ("aurora", "camdn-qos"))
    def test_faulted_native_vs_python(self, spec, faults, policy):
        def run(use_native):
            engine = MultiTenantEngine(
                SoCConfig(), make_scheduler(policy),
                ScenarioWorkload(spec), faults=faults,
                use_native=use_native,
            )
            return engine.run(max_events=2_000_000)

        with_native = run(None)
        without = run(False)
        assert with_native.events_processed == without.events_processed
        if with_native.metrics.records:
            assert _metrics_json(with_native) == _metrics_json(without), \
                dump_falsifying_fault_case(spec, faults, policy,
                                           "slack-native-vs-python")
        else:
            assert not without.metrics.records


# ----------------------------------------------------------------------
# The native completion chain
# ----------------------------------------------------------------------


@contextlib.contextmanager
def _pure_python():
    """``REPRO_NATIVE=0`` for the block: neither the engine's stepper
    nor the schedulers' ``camdn_advance`` helper is loaded, so runs
    take the Python twin of every native path."""
    saved = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    native.reset_for_tests()
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = saved
        native.reset_for_tests()
        native.fused_step()


def _observe(policy, spec, soc=None, *, snapshot_at=None,
             max_events=None):
    """One run's (``policy``: a shipped name or a scheduler factory)
    byte-identity surfaces: ``metric_summary()``,
    ``scheduler.stats()`` and a snapshot (the ``snapshot_at_events``
    one, or — when the event budget stops the run — the engine's state
    at the boundary where the watchdog fired)."""
    scheduler = policy() if callable(policy) else make_scheduler(policy)
    engine = MultiTenantEngine(soc or SoCConfig(), scheduler,
                               ScenarioWorkload(spec))
    try:
        result = engine.run(snapshot_at_events=snapshot_at,
                            max_events=max_events)
    except SimulationError as err:
        return {
            "error": str(err),
            "stats": scheduler.stats(),
            "snapshot": engine.snapshot().to_json(),
        }, None
    snap = result.last_snapshot
    return {
        "metrics": _metrics_json(result),
        "stats": scheduler.stats(),
        "events": result.events_processed,
        "snapshot": None if snap is None else snap.to_json(),
    }, result


def _quad(inferences=2, qos_scale=float("inf")):
    return ScenarioSpec.closed_loop(("RS.", "MB.", "EF.", "BE."),
                                    inferences=inferences,
                                    qos_scale=qos_scale)


class BeginLayerProbe(AuRORAScheduler):
    """aurora with an overridden ``begin_layer`` (counts its calls)."""

    def __init__(self):
        super().__init__()
        self.begins = 0

    def begin_layer(self, instance, now):
        self.begins += 1
        return super().begin_layer(instance, now)


class LayerEndProbe(MoCAScheduler):
    """moca with an overridden ``on_layer_end`` (counts its calls)."""

    def __init__(self):
        super().__init__()
        self.ends = 0

    def on_layer_end(self, instance, now):
        self.ends += 1
        super().on_layer_end(instance, now)


#: One run per (native exit reason, chain kind): reason -> {case:
#: (policy, spec, soc, max_events)}.  ``advance_bail`` needs region
#: resizes (a page-constrained 2 MiB cache); ``waiting_set`` needs
#: grants denied (a 1 MiB cache shared by eight streams) — both are
#: CaMDN-only, as the shared-cache kind never resizes or denies.
#: ``memo_miss`` is a work table not built yet (a decision table for
#: CaMDN); ``boundary`` needs timeline instants (periodic arrivals);
#: ``event_budget`` stops the run at the watchdog; ``no_tables`` is a
#: custom policy whose overridden hook keeps the chain off.  Deadlines
#: (``qos_scale`` 1.0) put MoCA's throttle and AuRORA's second core on
#: the chain's path.
EXIT_CASES = {
    "inference_end": {
        "camdn-hw": ("camdn-hw", lambda: _quad(), None, None),
        "aurora": ("aurora", lambda: _quad(qos_scale=1.0), None, None),
        "moca": ("moca", lambda: _quad(qos_scale=1.0), None, None),
        "baseline": ("baseline", lambda: _quad(), None, None),
    },
    "advance_bail": {
        "camdn-full": ("camdn-full", lambda: _quad(),
                       SoCConfig().with_cache_bytes(2 * MiB), None),
    },
    "memo_miss": {
        "camdn-qos": ("camdn-qos", lambda: _quad(qos_scale=1.0), None,
                      None),
        "aurora": ("aurora", lambda: _quad(qos_scale=1.0), None, None),
        "moca": ("moca", lambda: _quad(), None, None),
        "baseline": ("baseline", lambda: _quad(qos_scale=1.0), None,
                     None),
    },
    "waiting_set": {
        "camdn-full": (
            "camdn-full",
            lambda: ScenarioSpec.closed_loop(
                ("RS.", "MB.", "EF.", "BE.") * 2, inferences=2),
            SoCConfig().with_cache_bytes(1 * MiB), None,
        ),
    },
    "boundary": {
        name: (name, lambda: get_scenario("periodic-eight"), None, None)
        for name in ("camdn-full", "aurora", "moca", "baseline")
    },
    "event_budget": {
        name: (name, lambda: _quad(), None, 500)
        for name in ("camdn-full", "aurora", "moca", "baseline")
    },
    "no_tables": {
        "begin-layer-probe": (BeginLayerProbe, lambda: _quad(), None,
                              None),
    },
}


@needs_native
class TestCompletionChainExits:
    """Every exit of the native loop against the ``REPRO_NATIVE=0``
    twin: the run must leave the loop for that reason at least once,
    and agree byte for byte on the metrics, the scheduler counters and
    a snapshot taken mid-run."""

    @pytest.mark.parametrize("reason,case", [
        (reason, case) for reason in sorted(EXIT_CASES)
        for case in sorted(EXIT_CASES[reason])
    ])
    def test_exit_reason_matches_python_twin(self, reason, case):
        policy, spec_fn, soc, max_events = EXIT_CASES[reason][case]
        spec = spec_fn()
        first, result = _observe(policy, spec, soc, max_events=max_events)
        if result is None:
            at = max_events // 2
        else:
            at = result.events_processed // 2
            assert result.run_stats["native_exits"][reason] > 0
        native_obs, native_result = _observe(
            policy, spec, soc, snapshot_at=at, max_events=max_events)
        with _pure_python():
            python_obs, python_result = _observe(
                policy, spec, soc, snapshot_at=at, max_events=max_events)
        assert native_obs["snapshot"] is not None
        assert native_obs == python_obs
        if native_result is not None:
            assert python_result.run_stats["events_native"] == 0
            assert python_result.run_stats["completions_c"] == 0
        else:
            assert "event cap exceeded" in native_obs["error"]

    def test_event_budget_exit_is_counted(self):
        scheduler = make_scheduler("camdn-full")
        engine = MultiTenantEngine(SoCConfig(), scheduler,
                                   ScenarioWorkload(_quad()))
        with pytest.raises(SimulationError, match="event cap"):
            engine.run(max_events=500)
        stats = native.run_stats(native.pack_run_counts(
            engine._counters, engine._py_events, engine._py_completions))
        assert stats["native_exits"]["event_budget"] == 1
        assert stats["events_native"] + stats["events_python"] == 500


@needs_native
class TestCompletionChainBails:
    """A chain bail is detected before the completion it concerns is
    touched: the allocator's predictor lists, every task's LBM block,
    the shared-cache work tables, the finished instances and the kernel
    arrays are exactly what a chain-less native event leaves behind."""

    def _engine_pair(self, policy="camdn-full"):
        # Two engines in the same state at the first batch boundary.
        scheduler = make_scheduler(policy)
        engine = MultiTenantEngine(SoCConfig(), scheduler,
                                   ScenarioWorkload(_quad()))
        result = engine.run(snapshot_at_events=0)
        snap = result.last_snapshot
        assert snap is not None
        pair = snap.resume(), snap.resume()
        for resumed in pair:
            # What resume_run does before its first batch (and, for a
            # static rate rule, the batch loop before its first native
            # call).
            resumed._resolve_rate_mode()
            if not resumed._fused_mode:
                resumed._recompute_rates()
        return pair

    def _event(self, engine, chain):
        kernel = engine._kernel
        counters = native.new_counters()
        res = NATIVE(
            kernel.rem_c, kernel.rem_d, kernel.rate_c, kernel.rate_d,
            kernel.sl_arrival, kernel.sl_qos, kernel.sl_est,
            kernel.sl_progress, engine._fused_mode, engine._freq,
            engine._total_bw, engine._dram_efficiency(len(kernel.insts)),
            engine._mode_floor, engine._mode_urgency, engine.now,
            math.inf, 1, False, kernel.insts, chain, counters,
        )
        return res, counters

    def _state(self, engine):
        scheduler = engine.scheduler
        kernel = engine._kernel
        state = {
            "insts": [(i.instance_id, i.layer_index, i.work,
                       i.dram_bytes_total, i.hit_bytes_total,
                       i.access_bytes_total, i.layers_executed,
                       i.sched_scratch, i.wake_time)
                      for i in kernel.insts],
            "rem_c": [x.hex() for x in kernel.rem_c],
            "rem_d": [x.hex() for x in kernel.rem_d],
            "progress": [x.hex() for x in kernel.sl_progress],
            "stats": scheduler.stats(),
        }
        if isinstance(scheduler, SharedCacheBaseline):
            state["tables"] = {
                factor: dict(tables)
                for factor, tables in scheduler._work_tables.items()
            }
        else:
            alloc = scheduler._alloc
            state.update(
                tnext=[x.hex() for x in alloc._tnext],
                pnext=list(alloc._pnext),
                palloc=list(alloc._palloc),
                palloc_sum=alloc._palloc_sum,
                lbm=[s.lbm_block for s in alloc._states],
            )
        return state

    def _assert_untouched(self, reason, policy="camdn-full", poison=None):
        engine, twin = self._engine_pair(policy)
        chain = engine.scheduler.native_chain()
        assert chain is not None
        if poison is not None:
            poison(engine)
        before = self._state(engine)
        res, counters = self._event(engine, chain)
        plain, _ = self._event(twin, None)
        code, now, events, finished, dt = res
        assert native.EXIT_REASONS[code] == reason
        assert events == 1
        # Every finished position is handed back, in insertion order,
        # exactly as the chain-less call reports them.
        assert finished == plain[3] and finished
        assert (now, dt) == (plain[1], plain[4])
        state = self._state(engine)
        twin_state = self._state(twin)
        # The twin never built chain tables; everything else matches.
        for key in state.keys() - {"tables"}:
            assert state[key] == twin_state[key], key
        # Only the fluid drain of the stepped event moved.
        for key in state.keys() - {"rem_c", "rem_d"}:
            assert state[key] == before[key], key
        stats = native.run_stats(native.pack_run_counts(counters, 0, 0))
        assert stats["native_exits"][reason] == 1
        assert stats["completions_c"] == 0
        assert stats["python_completions"][reason] == len(finished)

    def test_memo_miss_mutates_nothing(self):
        self._assert_untouched("memo_miss")

    def test_advance_bail_mutates_nothing(self):
        def poison(engine):
            # Tables exist, but no row is one the C selection accepts.
            for inst in engine._kernel.insts:
                ft = engine.scheduler._build_fast_file(
                    inst.sched_ctx[0].mapping_file)
                ft[1][:] = [("bad",)] * len(ft[1])

        self._assert_untouched("advance_bail", poison=poison)

    @pytest.mark.parametrize("policy", ("aurora", "moca", "baseline"))
    def test_shared_cache_memo_miss_mutates_nothing(self, policy):
        # No work table is built yet after a resume (a pure memo).
        self._assert_untouched("memo_miss", policy)

    @pytest.mark.parametrize("policy", ("aurora", "baseline"))
    def test_short_work_table_mutates_nothing(self, policy):
        def poison(engine):
            # Tables exist, but one layer short of every running model.
            scheduler = engine.scheduler
            factor = scheduler.contention_factor(None)
            tables = scheduler._factor_tables(factor)
            for inst in engine._kernel.insts:
                table = scheduler._build_work_table(
                    tables, factor, inst.graph, inst.cores)
                tables[(inst.graph.name, inst.cores)] = table[:-1]

        self._assert_untouched("memo_miss", policy, poison)

    def test_camdn_advance_bail_mutates_nothing(self):
        # The per-completion helper: a selection whose footprint is not
        # the task's current region needs a resize, so it bails.
        engine, _ = self._engine_pair()
        scheduler = engine.scheduler
        alloc = scheduler._alloc
        inst = engine._kernel.insts[0]
        state, region = inst.sched_ctx
        ft = scheduler._build_fast_file(state.mapping_file)
        before = (list(alloc._tnext), list(alloc._pnext),
                  list(alloc._palloc), state.lbm_block)
        fast = native.camdn_advance()
        res = fast(
            alloc._tnext, alloc._pnext, alloc._palloc, state._slot,
            engine.now, alloc.total_pages, alloc._palloc_sum, -1, -1,
            inst.layer_index, len(region.pcpns) + 1,
            ft[1][inst.layer_index + 1], 0, scheduler.system._share,
        )
        assert res is None
        assert (list(alloc._tnext), list(alloc._pnext),
                list(alloc._palloc), state.lbm_block) == before

    def test_step_bail_reports_unapplied_step(self):
        # Nothing running and no boundary: the step would be infinite,
        # so the call reports it without stepping (the engine raises).
        counters = native.new_counters()
        res = NATIVE([], [], [], [], [], [], [], [], 1, 1e9, 1e9, 0.9,
                     0.02, 0.0, 0.5, math.inf, 10, False, [], None,
                     counters)
        code, now, events, finished, dt = res
        assert native.EXIT_REASONS[code] == "step_bail"
        assert (now, events, finished) == (0.5, 0, None)
        assert math.isinf(dt)
        stats = native.run_stats(native.pack_run_counts(counters, 0, 0))
        assert stats["native_exits"]["step_bail"] == 1


def _bench_engine():
    """``benchmarks/bench_engine.py`` (not a package) as a module."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parents[2] / "benchmarks" / "bench_engine.py"
    spec = importlib.util.spec_from_file_location("bench_engine", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class CountingAdvance(CaMDNFullScheduler):
    """camdn-full with an overridden per-completion hook."""

    def __init__(self):
        super().__init__()
        self.advances = 0

    def advance_layer(self, instance, now):
        self.advances += 1
        return super().advance_layer(instance, now)


class TestCompletionChainEngagement:
    """A chain replaces hook calls — ``advance_layer`` for CaMDN;
    ``begin_layer``, ``on_layer_end`` and ``contention_factor`` for the
    shared-cache policies — so it must stay off whenever something
    wants to see them."""

    def _run_with(self, scheduler, trace=None):
        engine = MultiTenantEngine(SoCConfig(), scheduler,
                                   ScenarioWorkload(_quad()),
                                   trace=trace)
        return engine.run()

    def _completions(self, result):
        stats = result.run_stats
        return stats["completions_c"] + stats["completions_python"]

    def test_overridden_advance_layer_sees_every_completion(self):
        plain = self._run_with(make_scheduler("camdn-full"))
        probe = CountingAdvance()
        result = self._run_with(probe)
        assert result.run_stats["completions_c"] == 0
        assert _metrics_json(result) == _metrics_json(plain)
        # One call per completion that has a next layer; the last layer
        # of each inference goes through on_layer_end instead.
        assert probe.advances == \
            self._completions(plain) - plain.completed_inferences
        assert self._completions(result) == self._completions(plain)

    def test_wrapped_advance_layer_sees_every_completion(self):
        plain = self._run_with(make_scheduler("camdn-full"))
        scheduler = make_scheduler("camdn-full")
        calls = []
        inner = scheduler.advance_layer

        def wrapper(instance, now):
            calls.append(instance.instance_id)
            return inner(instance, now)

        scheduler.advance_layer = wrapper
        result = self._run_with(scheduler)
        assert result.run_stats["completions_c"] == 0
        assert len(calls) == \
            self._completions(plain) - plain.completed_inferences
        assert _metrics_json(result) == _metrics_json(plain)

    @pytest.mark.parametrize("policy", ("camdn-full", "aurora"))
    def test_trace_recorder_disengages_chain(self, policy):
        plain = self._run_with(make_scheduler(policy))
        trace = TraceRecorder()
        result = self._run_with(make_scheduler(policy), trace)
        assert result.run_stats["completions_c"] == 0
        layer_spans = [s for s in trace.spans if s.kind.name == "LAYER"]
        assert len(layer_spans) == self._completions(plain)
        assert _metrics_json(result) == _metrics_json(plain)

    def test_overridden_begin_layer_sees_every_completion(self):
        plain = self._run_with(make_scheduler("aurora"))
        probe = BeginLayerProbe()
        result = self._run_with(probe)
        assert result.run_stats["completions_c"] == 0
        assert _metrics_json(result) == _metrics_json(plain)
        # One call per dispatch plus one per completion with a next
        # layer: one per layer executed.
        assert probe.begins == self._completions(plain)

    def test_overridden_on_layer_end_sees_every_completion(self):
        plain = self._run_with(make_scheduler("moca"))
        probe = LayerEndProbe()
        result = self._run_with(probe)
        assert result.run_stats["completions_c"] == 0
        assert _metrics_json(result) == _metrics_json(plain)
        assert probe.ends == self._completions(plain)

    @pytest.mark.parametrize("hook", ("begin_layer", "on_layer_end",
                                      "contention_factor"))
    def test_wrapped_shared_cache_hook_sees_every_call(self, hook):
        # perfbench's spans.wrap_instance pattern: a traced instance
        # attribute shadows the bound method.
        plain = self._run_with(make_scheduler("aurora"))
        scheduler = make_scheduler("aurora")
        calls = []
        inner = getattr(scheduler, hook)

        def wrapper(*args):
            calls.append(args[0])
            return inner(*args)

        setattr(scheduler, hook, wrapper)
        result = self._run_with(scheduler)
        assert result.run_stats["completions_c"] == 0
        assert _metrics_json(result) == _metrics_json(plain)
        # Every hook runs once per layer executed (contention_factor
        # inside each begin_layer).
        assert len(calls) == self._completions(plain)

    @needs_native
    @pytest.mark.parametrize("policy", ("synthetic-static",
                                        "synthetic-dynamic"))
    def test_custom_policies_exit_through_no_tables(self, policy):
        bench_engine = _bench_engine()
        result = bench_engine._run_once(policy,
                                        bench_engine.synthetic_graph())
        stats = result.run_stats
        assert stats["native_exits"]["no_tables"] > 0
        assert stats["completions_c"] == 0


class TestRunStats:
    """``SimulationResult.run_stats``: deterministic, complete, and kept
    off every byte-identity and serialization surface."""

    @needs_native
    def test_counts_repeat_exactly(self):
        a = _run("camdn-full").run_stats
        b = _run("camdn-full").run_stats
        assert a == b

    @needs_native
    @pytest.mark.parametrize("policy", CHAIN_POLICIES)
    def test_steady_quad_completions_run_in_c(self, policy):
        scheduler = make_scheduler(policy)
        engine = MultiTenantEngine(SoCConfig(), scheduler,
                                   ScenarioWorkload(
                                       get_scenario("steady-quad")))
        stats = engine.run().run_stats
        total = stats["completions_c"] + stats["completions_python"]
        assert stats["completions_c"] >= 0.9 * total
        # Every shipped policy has a chain.
        assert stats["native_exits"]["no_tables"] == 0
        # Every Python-handled completion is attributed to a reason.
        assert sum(stats["python_completions"].values()) == \
            stats["completions_python"]
        assert stats["python_completions"]["python_step"] == 0
        assert stats["events_python"] == 0

    @needs_native
    @pytest.mark.parametrize("policy", ("aurora", "moca"))
    def test_deadline_poisson_completions_run_in_c(self, policy):
        # Open-loop arrivals with deadlines: MoCA's throttle wakes up,
        # AuRORA grants second cores, and every arrival is a boundary.
        spec = get_scenario("poisson-eight")
        spec = dataclasses.replace(spec, streams=tuple(
            dataclasses.replace(s, qos_scale=1.0) for s in spec.streams))
        engine = MultiTenantEngine(SoCConfig(), make_scheduler(policy),
                                   ScenarioWorkload(spec))
        stats = engine.run().run_stats
        total = stats["completions_c"] + stats["completions_python"]
        assert stats["completions_c"] >= 0.95 * total
        assert stats["native_exits"]["no_tables"] == 0
        assert stats["native_exits"]["boundary"] > 0

    def test_python_path_counts_every_event(self):
        result = _run("camdn-full", use_native=False)
        stats = result.run_stats
        assert stats["events_python"] == result.events_processed
        assert stats["events_native"] == 0
        assert stats["completions_c"] == 0
        assert stats["completions_python"] == \
            stats["python_completions"]["python_step"] > 0

    def test_kept_off_identity_surfaces(self):
        result = _run("camdn-full")
        assert result.run_stats
        for surface in (result.metric_summary(), result.summary(),
                        simulation_result_to_dict(result)):
            assert "run_stats" not in surface
            assert "run_counts" not in surface
            assert not set(surface) & set(result.run_stats)

    def test_counts_travel_with_the_result(self):
        # Pool workers pickle results back: the packed counts ride
        # along (a few hundred bytes) and decode to the same stats.
        import pickle

        result = _run("camdn-full")
        copy = pickle.loads(pickle.dumps(result))
        assert copy.run_stats == result.run_stats
        assert len(result.run_counts) <= 256
