"""Benchmark of the CaMDN multi-tenant NPU simulator.

Run from the repository root::

    python3 perfbench/run.py --workload fig7-closed --seed 2025 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics: host set-up time (cold
mapping disk cache, native library already built), host run time,
peak memory, the share of runs that passed, host events per second and
the simulated (``sim_*``) outcomes.  ``--trace 1`` prints the per-layer
metrics of a separate traced run.  Either way every run's simulated
summary is checked: against the committed reference when one exists for
its inputs, otherwise against a pure-Python (``REPRO_NATIVE=0``) rerun.
The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).

Everything the benchmark writes stays under ``.bench_build/perfbench``
in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_frac", "ratio", "higher", 0.02),
    ("events_per_s", "1/s", "higher", 0.25),
    ("sim_speedup_vs_aurora", "x", "higher", 0.1),
    ("sim_dram_reduction_pct", "%", "higher", 0.25),
    ("sim_dram_mb_per_inf", "MB", "lower", 0.15),
    ("sim_p99_latency_ms", "sim_ms", "lower", 0.1),
    ("sim_qos_met_rate", "ratio", "higher", 0.15),
]

#: Cold set-ups per run, run side by side (setup_s is their median),
#: and the fewest timed repetitions a run makes whatever ``--seconds``
#: says.
SETUPS = 2
MIN_REPS = 3

HERE = Path(__file__).resolve().parent


def bench_env(work: Path) -> Dict[str, str]:
    """Environment that keeps every cache and temporary file under
    ``work`` (the native library cache persists across runs)."""
    return {
        "REPRO_NATIVE": "1",
        "REPRO_NATIVE_CACHE": str(work / "native"),
        "REPRO_SWEEP_CACHE_DIR": "",
        "XDG_CACHE_HOME": str(work / "xdg"),
        "TMPDIR": str(work / "tmp"),
    }


def canonical(summary) -> str:
    return json.dumps(summary, sort_keys=True)


def load_reference() -> Dict[str, dict]:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["runs"]


# ----------------------------------------------------------------------
# Child processes: cold set-up and the pure-Python pass
# ----------------------------------------------------------------------

def _child(args: List[str], env: Dict[str, str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        env=env, stdout=subprocess.PIPE, text=True,
    )


def _last_json(proc: subprocess.Popen, what: str):
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{what} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int, env: Dict[str, str],
                  maps: Path) -> List[float]:
    """Seconds from process start to prepared inputs, one per cold
    child (each with an empty mapping disk cache), two at a time on a
    multi-core host."""
    parallel = min(2, os.cpu_count() or 1)
    times: List[float] = []
    while len(times) < SETUPS:
        batch = []
        for _ in range(min(parallel, SETUPS - len(times))):
            cache = maps / f"setup-{len(times) + len(batch)}"
            child_env = dict(env, REPRO_MAPPING_CACHE_DIR=str(cache))
            batch.append(_child(
                ["setup", workload, str(seed), repr(time.time())],
                child_env,
            ))
        times.extend(_last_json(p, "set-up child")["setup_s"]
                     for p in batch)
    return times


def python_pass(workload: str, seed: int, env: Dict[str, str],
                only: Optional[List[str]]) -> Dict[str, dict]:
    """The workload's runs in a ``REPRO_NATIVE=0`` child process."""
    args = ["pypass", workload, str(seed)]
    if only is not None:
        args.append(",".join(only))
    child_env = dict(env, REPRO_NATIVE="0", REPRO_MAPPING_CACHE_DIR=
                     os.environ["REPRO_MAPPING_CACHE_DIR"])
    return _last_json(_child(args, child_env), "pure-Python pass")


class ChildPeak:
    """Samples the resident high-water mark of this process's children
    (the fleet's pool workers) while the block runs."""

    def __init__(self, period_s: float = 0.02) -> None:
        self.period_s = period_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    @staticmethod
    def _children() -> List[str]:
        pids: List[str] = []
        for task in Path("/proc/self/task").iterdir():
            try:
                pids += (task / "children").read_text().split()
            except OSError:
                pass
        return pids

    def _poll(self) -> None:
        while not self._stop.wait(self.period_s):
            for pid in self._children():
                try:
                    status = Path(f"/proc/{pid}/status").read_text()
                except OSError:
                    continue
                for line in status.splitlines():
                    if line.startswith("VmHWM:"):
                        self.peak_kb = max(self.peak_kb,
                                           int(line.split()[1]))

    def __enter__(self) -> "ChildPeak":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


# ----------------------------------------------------------------------
# Correctness accounting
# ----------------------------------------------------------------------

class NoResult(Exception):
    """A run raised in every repetition, so the metrics that need its
    result cannot be computed."""


class Checker:
    """Counts attempted and failed runs and keeps the result of each
    run's first outcome without an error (later results are dropped, so
    memory does not grow with the number of repetitions).

    A run fails when it raised or tripped a watchdog (``Run.error``),
    when its summary differs from the committed reference for its
    inputs, from the first repetition of the same run, or from the
    pure-Python pass.  A failed run is never retried.
    """

    def __init__(self, reference: Dict[str, dict]) -> None:
        self.reference = reference
        self.first: Dict[str, str] = {}
        #: run name -> key of the run's inputs.
        self.keys: Dict[str, str] = {}
        #: run name -> the run's first successful outcome.
        self.ok: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def _fail(self, name: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{name}: {why}")

    def check(self, run) -> None:
        self.attempted += 1
        self.keys.setdefault(run.name, run.key)
        if run.error is not None:
            self._fail(run.name, run.error)
            return
        got = canonical(run.summary)
        ref = self.reference.get(run.key)
        if ref is not None and got != canonical(ref["summary"]):
            self._fail(run.name, "summary differs from the reference")
        elif self.first.setdefault(run.name, got) != got:
            self._fail(run.name, "summary differs between repetitions")
        if run.name in self.ok:
            run.result = None
        else:
            self.ok[run.name] = run

    def check_all(self, runs) -> None:
        for run in runs:
            self.check(run)

    def successes(self) -> list:
        """The first outcome without an error of every run seen."""
        missing = sorted(self.keys.keys() - self.ok.keys())
        if missing:
            raise NoResult(f"no successful repetition of {missing}")
        return list(self.ok.values())

    def unreferenced(self) -> List[str]:
        """Names of runs whose inputs have no committed reference."""
        return sorted(name for name, key in self.keys.items()
                      if key not in self.reference)

    def check_python(self, pure: Dict[str, dict]) -> None:
        for name, out in pure.items():
            self.attempted += 1
            if out["error"] is not None:
                self._fail(f"{name} (REPRO_NATIVE=0)", out["error"])
            elif canonical(out["summary"]) != self.first.get(name):
                self._fail(name, "native and pure-Python summaries "
                                 "differ")


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------

def repeat(wl, work: Path, checker: Checker, seconds: float,
           min_reps: int):
    """Repeat the workload for ``seconds`` (at least ``min_reps``
    times), checking every run; returns each repetition's host time
    and runs."""
    times: List[float] = []
    reps = []
    deadline = time.perf_counter() + seconds
    while len(times) < min_reps or time.perf_counter() < deadline:
        start = time.perf_counter()
        runs = wl.repetition(work)
        times.append(time.perf_counter() - start)
        checker.check_all(runs)
        reps.append(runs)
    return times, reps


def end_to_end(wl, args, env, work: Path, checker: Checker) -> dict:
    setup = measure_setup(args.workload, args.seed, env, work / "maps")
    os.environ["REPRO_MAPPING_CACHE_DIR"] = str(work / "maps" / "setup-0")
    wl.prepare()

    with ChildPeak() as children:
        times, _ = repeat(wl, work, checker, args.seconds, MIN_REPS)
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    runs0 = checker.successes()
    missing = checker.unreferenced()
    if missing:
        checker.check_python(
            python_pass(args.workload, args.seed, env, missing))
    # The mean, not the median: the host alternates between fast and
    # slow phases lasting seconds; the mean averages them where the
    # median of a few repetitions flips between them.
    run_s = statistics.fmean(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "peak_rss_mb": max(own_kb, children.peak_kb) / 1024,
        "ok_frac": 1.0 - checker.failed / checker.attempted,
        "events_per_s": sum(r.events for r in runs0) / run_s,
    }
    metrics.update(wl.sim_metrics(runs0))
    return metrics


def traced(wl, args, env, work: Path, checker: Checker) -> dict:
    import layers
    from repro import prepared_cache_info, clear_prepared_caches
    from spans import Tracer

    fleet = args.workload == "fleet-journal"
    os.environ["REPRO_MAPPING_CACHE_DIR"] = str(work / "maps" / "trace")
    start = time.perf_counter()
    wl.prepare()
    cold_s = time.perf_counter() - start
    models_mapped = prepared_cache_info()["models"].size
    clear_prepared_caches()
    start = time.perf_counter()
    wl.prepare()
    warm_s = time.perf_counter() - start

    # Untraced repetitions: the base of trace.overhead_pct and the
    # engine's host time per event.
    untraced, reps = repeat(wl, work, checker, args.seconds / 2, 2)
    runs0 = checker.successes()

    tracer = Tracer()
    extra: Dict[str, float] = {}
    if fleet:
        start = time.perf_counter()
        serial = wl.repetition(work, workers=1)
        base_s = time.perf_counter() - start
        start = time.perf_counter()
        traced_runs = layers.traced_fleet(wl, tracer, work)
        traced_s = time.perf_counter() - start
        fleet_run = next(r for r in runs0 if r.name == "fleet")
        cells = len(fleet_run.result.results)
        serial_fleet_s = next(r.wall_s for r in serial
                              if r.name == "fleet")
        pool_fleet_s = statistics.median(
            r.wall_s for runs in reps for r in runs
            if r.name == "fleet" and r.error is None)
        serial_engine_s = next(r.engine_s for r in serial
                               if r.name == "fleet")
        extra.update({
            "sweep.cells": cells,
            "sweep.pool_speedup": serial_fleet_s / pool_fleet_s,
            "sweep.dispatch_ms_per_cell": 1e3 * (
                pool_fleet_s * wl.workers - serial_engine_s) / cells,
            "fleet.resume_s":
                next(r.wall_s for r in runs0 if r.name == "resume"),
            "fleet.result_kb_per_cell":
                len(pickle.dumps(fleet_run.result.results)) / cells / 1024,
            "fleet.parent_peak_mb": layers.fleet_parent_peak_mb(wl, work),
        })
        checker.check_all(serial)
    else:
        base_s = statistics.median(untraced)
        start = time.perf_counter()
        traced_runs = layers.traced_scenarios(wl, tracer)
        traced_s = time.perf_counter() - start
    checker.check_all(traced_runs)
    tracer.write(work.parent / f"spans-{args.workload}-{args.seed}.json")

    pure = python_pass(args.workload, args.seed, env, None)
    checker.check_python(pure)
    native_engine_s = sum(r.engine_s for r in runs0)
    events = sum(r.events for r in traced_runs)
    metrics = {name: 0.0 for name, *_ in layers.LAYER_METRICS}
    metrics.update(layers.layer_metrics(tracer, events))
    metrics.update(extra)
    metrics.update({
        "mapper.cold_s": cold_s,
        "mapper.warm_s": warm_s,
        "mapper.models_mapped": models_mapped,
        "engine.us_per_event":
            1e6 * native_engine_s / sum(r.events for r in runs0),
        "engine.native_speedup":
            sum(out["engine_s"] for out in pure.values())
            / native_engine_s,
        "trace.overhead_pct": 100.0 * (traced_s / base_s - 1.0),
    })
    return metrics


# ----------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig7-closed", "open-churn",
                                 "fleet-journal"))
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the root of a "
              "repository checkout", file=sys.stderr)
        return 2
    work = root / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    env = dict(os.environ, **bench_env(work.parent),
               PYTHONPATH=str(root / "src"))
    os.environ.update(env)
    for path in (work / "maps", Path(env["TMPDIR"])):
        path.mkdir(parents=True, exist_ok=True)
    sys.path[:0] = [str(root / "src")]
    try:
        from repro.sim import native
        from workloads import WORKLOADS

        if native.fused_step() is None:
            print(f"perfbench: native stepper unavailable "
                  f"({native.native_status()})", file=sys.stderr)
            return 1
        checker = Checker(load_reference())
        wl = WORKLOADS[args.workload](args.seed)
        measure = traced if args.trace else end_to_end
        metrics = measure(wl, args, env, work, checker)
    except NoResult as exc:
        for error in checker.errors:
            print(f"FAILED {error}", file=sys.stderr)
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import layers
    units = {name: unit for name, unit, *_ in
             (layers.LAYER_METRICS if args.trace else END_TO_END)}
    targets = {name: target for name, _, _, target in
               layers.LAYER_METRICS}
    for error in checker.errors:
        print(f"FAILED {error}")
    for name, unit in units.items():
        note = f"  -> {targets[name]}" if args.trace else ""
        print(f"{name:<34} {metrics[name]:>16.6g} {unit}{note}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
