"""Tests of the benchmark itself: span arithmetic, failure counting and
that the metric names it prints match ``BENCHMARK.json``.

The ``slow`` tests run real simulations, two of them the whole
benchmark command on ``fig7-closed``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import ROOT, Tracer  # noqa: E402
from workloads import Run, attempt  # noqa: E402


def _benchmark_json() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    root = tracer.open("engine.run")           # 0 .. 100
    clock.now = 10
    hook = tracer.open("sched.advance_layer")  # 10 .. 40
    clock.now = 15
    alloc = tracer.open("alloc.select")        # 15 .. 35
    clock.now = 35
    tracer.close(alloc)
    clock.now = 40
    tracer.close(hook)
    clock.now = 50
    second = tracer.open("sched.advance_layer")  # 50 .. 60
    clock.now = 60
    tracer.close(second)
    clock.now = 100
    tracer.close(root)

    assert list(tracer.parent) == [ROOT, 0, 1, 0]
    assert tracer.self_times_ns() == [60, 10, 20, 10]
    totals = tracer.totals()
    assert totals["engine.run"] == (1, 100, 60)
    assert totals["sched.advance_layer"] == (2, 40, 20)
    assert totals["alloc.select"] == (1, 20, 20)


def test_wrapped_calls_nest_and_survive_exceptions():
    tracer = Tracer()

    def inner():
        raise ValueError("boom")

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(lambda: traced_inner(), "outer")
    with pytest.raises(ValueError):
        traced_outer()
    assert tracer.names == ["inner", "outer"]
    assert list(tracer.parent) == [ROOT, 0]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    # The stack unwound: a new span is a root again.
    traced_inner_ok = tracer.wrap(lambda: 1, "ok")
    assert traced_inner_ok() == 1
    assert tracer.parent[-1] == ROOT


def _ok_run(name, key, summary):
    return Run(name, key, summary=summary)


def test_failed_runs_are_counted_not_retried():
    reference = {"k1": {"summary": {"x": 1.0}}}
    checker = run.Checker(reference)

    def explode():
        raise RuntimeError("injected failure")

    failing = attempt("bad", "k0", explode, lambda r: {}, lambda r: [])
    assert failing.error == "RuntimeError: injected failure"
    checker.check(failing)
    checker.check(_ok_run("good", "k1", {"x": 1.0}))
    checker.check(_ok_run("good", "k1", {"x": 2.0}))  # reference mismatch
    checker.check(_ok_run("fresh", "k2", {"y": 1}))
    checker.check(_ok_run("fresh", "k2", {"y": 2}))   # nondeterministic
    assert (checker.attempted, checker.failed) == (5, 3)
    assert checker.unreferenced() == ["bad", "fresh"]

    checker.check_python({
        "fresh": {"summary": {"y": 1}, "error": None, "engine_s": 1.0},
    })
    checker.check_python({
        "fresh": {"summary": {"y": 3}, "error": None, "engine_s": 1.0},
    })
    assert (checker.attempted, checker.failed) == (7, 4)


def test_only_first_successes_are_kept():
    checker = run.Checker({})
    first = Run("a", "k", result="r1", summary={"v": 1})
    later = Run("a", "k", result="r2", summary={"v": 1})
    checker.check_all([first, Run("b", "kb", error="boom")])
    checker.check_all([later, Run("b", "kb", error="boom")])
    assert later.result is None
    with pytest.raises(run.NoResult, match="'b'"):
        checker.successes()
    checker.check(Run("b", "kb", result="rb", summary={}))
    assert [r.result for r in checker.successes()] == ["r1", "rb"]
    assert (checker.attempted, checker.failed) == (5, 2)


@pytest.mark.slow
def test_known_zero_inference_fleet_cell_counts_as_failed():
    """Cell 437 of a 1024-device fleet (the bench_fleet.py mix at scale
    0.05, seed 2025) measures no inference, so folding it into the
    fleet raises: the benchmark must count that run as failed."""
    from repro import MiB, RunConfig
    from repro.fleet import (DeviceClass, FleetAccumulator, FleetSpec,
                             ScenarioDraw)
    import repro

    spec = FleetSpec(
        devices=1024, policy="camdn-full",
        device_classes=(
            DeviceClass(name="table2", weight=3.0),
            DeviceClass(name="budget", weight=1.0, cache_bytes=2 * MiB),
        ),
        scenario_draws=(
            ScenarioDraw(scenario="steady-quad", weight=2.0),
            ScenarioDraw(scenario="poisson-eight", weight=1.0,
                         arrival_scale=0.5),
        ),
        scale=0.05, seed=2025,
    )
    cell = spec.expand()[437]
    soc = repro.SoCConfig()
    if cell.cache_bytes is not None:
        soc = soc.with_cache_bytes(cell.cache_bytes)

    def fleet_of_one():
        result = repro.run(cell.resolve_scenario(), soc,
                           policy=cell.policy,
                           config=RunConfig(faults=cell.resolve_faults()))
        FleetAccumulator().fold_results([result])
        return result

    outcome = attempt("fleet", "k", fleet_of_one,
                      lambda r: r.metric_summary(), lambda r: [r])
    assert "no measured inferences" in outcome.error
    checker = run.Checker({})
    checker.check(outcome)
    assert (checker.attempted, checker.failed) == (1, 1)


def test_benchmark_json_matches_the_metric_tables():
    import layers

    bench = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == [tuple(m) for m in
                                               run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == [m[:3] for m in
                                             layers.LAYER_METRICS]
    assert [w["name"] for w in bench["workloads"]] == \
        ["fig7-closed", "open-churn", "fleet-journal"]


def _command(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    bench = _benchmark_json()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, *bench["command"][1:], *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").symlink_to(BENCH)
    proc = _command(tmp_path, "--workload", "fig7-closed", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.slow
@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_benchmark_metric(tmp_path, trace):
    (tmp_path / "src").symlink_to(REPO / "src")
    (tmp_path / "perfbench").symlink_to(BENCH)
    proc = _command(tmp_path, "--workload", "fig7-closed", "--seed",
                    "2025", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {(m["name"], m["unit"]) for m in _benchmark_json()[kind]}
    assert {(name, m["unit"]) for name, m in
            result["metrics"].items()} == expected
