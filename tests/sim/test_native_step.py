"""Native fused-step equivalence and loader behaviour.

The batch loop's two step paths — the native C fused step and the
Python pair of the policy's share rule (:func:`repro.memory.bwalloc.
shares`, rates installed as ``_recompute_rates`` does) and
:meth:`RunningKernel.step` — must be bit-identical across every rate
spec (demand-proportional, slack-weighted, slack-throttled); the
committed reference suite pins the default path and these tests pin the
cross-path agreement, including MoCA's mid-run rate epoch transitions,
QoS tenant churn and fuzzed fault schedules.
"""

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
from repro.config import SoCConfig
from repro.memory import bwalloc
from repro.schedulers import make_scheduler
from repro.sim import native
from repro.sim.engine import MultiTenantEngine
from repro.sim.kernel import RunningKernel
from repro.sim.scenario import ArrivalProcess, ScenarioSpec, StreamSpec
from repro.sim.workload import ScenarioWorkload

POLICIES = ("baseline", "moca", "aurora", "camdn-hw", "camdn-full",
            "camdn-qos")

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
            res_c = NATIVE(c_rem_c, c_rem_d, [], [], wait_dt, 1,
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
            res_c = NATIVE(c_rem_c, c_rem_d, rate_c, rate_d, wait_dt,
                           0, 1e9, 102.4e9, 1.0, 0.0)
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
        assert NATIVE([1, 2.0], [2.0, 3.0], [], [], math.inf, 1,
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
            res_c = NATIVE(c_rem_c, c_rem_d, [], [], wait_dt, mode,
                           freq, bw, eff, floor, list(arrival),
                           list(qos), list(est), list(progress), now,
                           urgency)
            kernel = self._kernel_with(rem_c, rem_d, arrival, qos, est,
                                       progress)
            spec = ("slack_weighted", urgency, floor) if mode == 2 \
                else ("slack_throttled", floor)
            dt_py, fin_py = _python_step(kernel, spec, wait_dt, freq, bw,
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
        good = ([0.0], [1.0], [0.01], [0.5], 0.0, 3.0)
        assert NATIVE(*args, *good) is not None
        for pos in range(4):
            bad = list(good)
            bad[pos] = [1]  # int, not float
            assert NATIVE(*args, *bad) is None

    def test_mismatched_slack_lengths_fall_back(self):
        assert NATIVE([2.0], [3.0], [], [], math.inf, 2,
                      1e9, 1e9, 0.9, 0.02,
                      [0.0, 0.0], [1.0], [0.01], [0.5], 0.0, 3.0) is None

    def test_slack_mode_requires_16_args(self):
        assert NATIVE([2.0], [3.0], [], [], math.inf, 2,
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
    @pytest.mark.parametrize("policy", ("camdn-full", "aurora"))
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
