"""The benchmark's three workloads: inputs from a seed, one repetition,
and the simulated (``sim_*``) metrics of a repetition.

Every workload is a list of *runs* (one engine simulation, or one fleet
operation).  A repetition executes each run once and records its
outcome as a :class:`Run`; the benchmark times repetitions, counts
failed runs and compares each run's simulated summary with the
committed reference (``reference.json``), keyed by a hash of the run's
inputs so that runs which do not depend on the seed share one entry.

* ``fig7-closed`` -- the paper's Figure 7 set-up: 16 closed-loop
  streams (the Table I models twice) under AuRORA, CaMDN(HW) and
  CaMDN(Full).  Nearly every event runs the per-completion chain and the
  native fused stepper; the timeline, fault and fleet layers stay idle.
  It has no random input, so the seed does not change it.
* ``open-churn`` -- open-loop and churning tenants with deadlines
  (``qos_scale`` 1.0) under CaMDN-QoS, AuRORA and MoCA: ``poisson-eight``
  thinned to 0.4 (Poisson seeds rewritten from the seed) and
  ``churn-heavy`` under the ``degraded-soc`` fault schedule.  It drives
  arrivals, admission and departure, region resize, page retirement and
  the slack-aware rate kernels.
* ``fleet-journal`` -- a journaled mixed-hardware ``camdn-full`` fleet
  (fleet seed from the seed) through ``repro.run_fleet``, then
  ``repro.resume_fleet`` on the completed journal.  Spec expansion, pool
  dispatch, result pickling, journal commits and digest folding do a
  large share of its work.
"""

from __future__ import annotations

import functools
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import repro
from repro import (
    DeviceClass,
    FleetSpec,
    MiB,
    RunConfig,
    ScenarioDraw,
    SoCConfig,
    get_fault_schedule,
    get_scenario,
    prepare_workload,
)
from repro.core.serialize import (
    fault_spec_to_dict,
    fleet_spec_to_dict,
    scenario_spec_to_dict,
    soc_config_to_dict,
    stable_content_hash,
)
from repro.experiments.fig7_speedup import SPEEDUP_POLICIES, SPEEDUP_WORKLOAD
from repro.experiments.sweep import SweepCell
from repro.fleet.spec import reseed_arrivals, scale_arrivals
from repro.sim.metrics import MetricsCollector

#: Wall-clock watchdog per engine run (a hung run fails, it never
#: stalls the benchmark).
WATCHDOG_S = 120.0

#: Figure 7 window scale (1.0 is the paper's full steady-state window).
FIG7_SCALE = 1.0
#: open-churn: Poisson thinning (``offered_load_ratio`` about 1.0, so
#: queues stay bounded) and the window scales of its two parts.
POISSON_THINNING = 0.4
POISSON_SCALE = 10.0
CHURN_SCALE = 1.0
OPEN_POLICIES = ("camdn-qos", "aurora", "moca")
#: fleet-journal population (small cells, many of them: the per-cell
#: layers matter here, not the engine).
FLEET_DEVICES = 96
FLEET_SCALE = 0.25


@dataclass
class Run:
    """Outcome of one run in one repetition.

    ``summary`` is the byte-identity surface (``metric_summary()``, or
    ``fleet_summary()`` for a fleet); ``error`` is set instead when the
    run raised, tripped a watchdog or lost cells.
    """

    name: str
    key: str
    result: object = None
    summary: Optional[dict] = None
    error: Optional[str] = None
    engine_s: float = 0.0
    events: int = 0
    wall_s: float = 0.0


def attempt(name: str, key: str, fn: Callable, summarize: Callable,
            results_of: Callable) -> Run:
    """Execute one run, capturing any failure as the run's error."""
    start = time.perf_counter()
    try:
        result = fn()
        wall = time.perf_counter() - start
        summary = summarize(result)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        return Run(name, key, error=f"{type(exc).__name__}: {exc}")
    engine_runs = [r for r in results_of(result) if r is not None]
    return Run(
        name, key, result=result, summary=summary,
        engine_s=sum(r.wall_time_s for r in engine_runs),
        events=sum(r.events_processed for r in engine_runs),
        wall_s=wall,
    )


def with_qos(spec):
    """The scenario with a deadline (``qos_scale`` 1.0) on every
    stream."""
    return replace(spec, streams=tuple(
        replace(s, qos_scale=1.0) for s in spec.streams
    ))


# ----------------------------------------------------------------------
# Scenario workloads (fig7-closed, open-churn)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One engine simulation of a scenario workload."""

    name: str
    policy: str
    scenario: object
    soc: SoCConfig
    faults: object = None

    @functools.cached_property
    def key(self) -> str:
        return stable_content_hash({
            "policy": self.policy,
            "scenario": scenario_spec_to_dict(self.scenario),
            "soc": soc_config_to_dict(self.soc),
            "faults": (fault_spec_to_dict(self.faults)
                       if self.faults is not None else None),
        })

    def run(self):
        return repro.run(
            self.scenario, self.soc, policy=self.policy,
            config=RunConfig(faults=self.faults, max_wall_s=WATCHDOG_S),
        )


class ScenarioSet:
    """A workload made of independent engine simulations."""

    name = ""
    jobs: List[Job]

    def prepare(self) -> None:
        for job in self.jobs:
            prepare_workload(job.policy, job.scenario.model_keys, job.soc)

    def repetition(self, workdir=None, only=None) -> List[Run]:
        return [
            attempt(job.name, job.key, job.run,
                    lambda r: r.metric_summary(), lambda r: [r])
            for job in self.jobs if only is None or job.name in only
        ]


def _ok(runs: List[Run]) -> Dict[str, object]:
    return {run.name: run.result for run in runs if run.error is None}


def _model_speedup(pairs) -> float:
    """Mean over (baseline, candidate) result pairs and their models of
    baseline latency divided by candidate latency."""
    ratios = []
    for base, cand in pairs:
        base_models = base.metrics.by_model()
        for abbr, summary in cand.metrics.by_model().items():
            ratios.append(base_models[abbr].avg_latency_s
                          / summary.avg_latency_s)
    return statistics.fmean(ratios)


def _met_rate(results) -> float:
    inferences = sum(r.metrics.num_inferences for r in results)
    violations = sum(r.metrics.qos_violation_count() for r in results)
    return 1.0 - violations / inferences


class Fig7Closed(ScenarioSet):
    name = "fig7-closed"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        soc = SoCConfig()
        self.jobs = [
            Job(policy, policy,
                SweepCell(policy=policy, model_keys=SPEEDUP_WORKLOAD,
                          scale=FIG7_SCALE).resolve_scenario(), soc)
            for policy in SPEEDUP_POLICIES
        ]

    def sim_metrics(self, runs: List[Run]) -> Dict[str, float]:
        ok = _ok(runs)
        aurora, full = ok["aurora"], ok["camdn-full"]
        full_sum = full.metric_summary()
        return {
            "sim_speedup_vs_aurora": _model_speedup([(aurora, full)]),
            "sim_dram_reduction_pct": 100.0 * (
                1.0 - full_sum["avg_dram_mb"]
                / aurora.metric_summary()["avg_dram_mb"]),
            "sim_dram_mb_per_inf": full_sum["avg_dram_mb"],
            "sim_p99_latency_ms": full_sum["p99_latency_ms"],
            "sim_qos_met_rate": _met_rate([full]),
        }


class OpenChurn(ScenarioSet):
    name = "open-churn"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        soc = SoCConfig()
        poisson = with_qos(reseed_arrivals(
            scale_arrivals(get_scenario("poisson-eight"),
                           POISSON_THINNING),
            seed, 0, 0,
        )).scaled(POISSON_SCALE)
        churn = with_qos(get_scenario("churn-heavy")).scaled(CHURN_SCALE)
        faults = get_fault_schedule("degraded-soc").scaled(CHURN_SCALE)
        self.jobs = [
            Job(f"poisson/{p}", p, poisson, soc) for p in OPEN_POLICIES
        ] + [
            Job(f"churn/{p}", p, churn, soc, faults)
            for p in OPEN_POLICIES
        ]

    def sim_metrics(self, runs: List[Run]) -> Dict[str, float]:
        ok = _ok(runs)
        parts = ("poisson", "churn")
        qos = [ok[f"{part}/camdn-qos"] for part in parts]
        aurora = [ok[f"{part}/aurora"] for part in parts]
        qos_dram = statistics.fmean(
            r.metric_summary()["avg_dram_mb"] for r in qos)
        aurora_dram = statistics.fmean(
            r.metric_summary()["avg_dram_mb"] for r in aurora)
        return {
            "sim_speedup_vs_aurora": _model_speedup(zip(aurora, qos)),
            "sim_dram_reduction_pct":
                100.0 * (1.0 - qos_dram / aurora_dram),
            "sim_dram_mb_per_inf": qos_dram,
            # The churn part: the Poisson tail is too seed-sensitive for
            # a bounded metric (see README.md).
            "sim_p99_latency_ms":
                ok["churn/camdn-qos"].metric_summary()["p99_latency_ms"],
            "sim_qos_met_rate": _met_rate(qos),
        }


# ----------------------------------------------------------------------
# fleet-journal
# ----------------------------------------------------------------------

def fleet_spec(seed: int, policy: str = "camdn-full") -> FleetSpec:
    return FleetSpec(
        devices=FLEET_DEVICES,
        policy=policy,
        device_classes=(
            DeviceClass(name="table2", weight=3.0),
            DeviceClass(name="budget", weight=1.0, cache_bytes=2 * MiB),
        ),
        scenario_draws=(
            ScenarioDraw(scenario="steady-quad", weight=2.0),
            ScenarioDraw(scenario="poisson-eight", weight=1.0,
                         arrival_scale=POISSON_THINNING),
            ScenarioDraw(scenario="steady-quad", weight=1.0,
                         faults="degraded-soc"),
        ),
        scale=FLEET_SCALE,
        seed=seed,
    )


def _fleet_checked(result):
    """A fleet whose campaign lost cells is a failed run."""
    if result.failures:
        first = result.failures[0]
        raise RuntimeError(
            f"{len(result.failures)} fleet cells failed "
            f"(first: cell {first['index']}: {first['error']})"
        )
    return result


class FleetJournal:
    name = "fleet-journal"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = fleet_spec(seed)
        self.workers = min(2, os.cpu_count() or 1)
        self._aurora = None
        self.keys = {
            name: stable_content_hash({
                "run": name, "fleet": fleet_spec_to_dict(self.spec),
            })
            for name in ("fleet", "resume")
        }

    def prepare(self) -> None:
        """Prepare every distinct (policy, models, SoC) of the fleet."""
        base = SoCConfig()
        seen = set()
        for cell in self.spec.expand():
            soc = base if cell.cache_bytes is None \
                else base.with_cache_bytes(cell.cache_bytes)
            key = (cell.policy, cell.scenario.model_keys, soc)
            if key not in seen:
                seen.add(key)
                prepare_workload(*key)

    def repetition(self, workdir, only=None,
                   workers: Optional[int] = None) -> List[Run]:
        """Run and resume the fleet (``workers`` overrides the pool
        size; the runs are atomic, so ``only`` is ignored)."""
        workers = workers or self.workers
        tmp = tempfile.mkdtemp(prefix="fleet-", dir=workdir)
        journal = os.path.join(tmp, "fleet.jsonl")
        try:
            runs = [attempt(
                "fleet", self.keys["fleet"],
                lambda: _fleet_checked(repro.run_fleet(
                    self.spec, journal_path=journal,
                    max_workers=workers, use_cache=False,
                    deadline_s=WATCHDOG_S)),
                lambda r: r.fleet_summary(), lambda r: r.results,
            )]
            if runs[0].error is None:
                runs.append(attempt(
                    "resume", self.keys["resume"],
                    lambda: _fleet_checked(repro.resume_fleet(
                        journal, max_workers=workers,
                        use_cache=False, deadline_s=WATCHDOG_S)),
                    lambda r: r.fleet_summary(), lambda r: [],
                ))
            return runs
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def aurora_fleet(self):
        """The same population under AuRORA (the sim_* baseline)."""
        if self._aurora is None:
            self._aurora = _fleet_checked(repro.run_fleet(
                fleet_spec(self.seed, "aurora"),
                max_workers=self.workers, use_cache=False,
            ))
        return self._aurora

    def sim_metrics(self, runs: List[Run]) -> Dict[str, float]:
        fleet = _ok(runs)["fleet"]
        aurora = self.aurora_fleet()
        pairs = list(zip(aurora.results, fleet.results))
        cand_dram = statistics.fmean(
            c.metric_summary()["avg_dram_mb"] for _, c in pairs)
        base_dram = statistics.fmean(
            b.metric_summary()["avg_dram_mb"] for b, _ in pairs)
        summary = fleet.fleet_summary()
        # The p99 over every measured inference of the population: the
        # digest's p99 of per-device means is set by the one or two
        # slowest devices a seed happens to draw.
        pooled = MetricsCollector(records=[
            rec for r in fleet.results for rec in r.metrics.records])
        return {
            "sim_speedup_vs_aurora": statistics.fmean(
                b.metrics.macro_avg_latency_s()
                / c.metrics.macro_avg_latency_s() for b, c in pairs),
            "sim_dram_reduction_pct":
                100.0 * (1.0 - cand_dram / base_dram),
            "sim_dram_mb_per_inf": cand_dram,
            "sim_p99_latency_ms": pooled.p99_latency_s() * 1e3,
            "sim_qos_met_rate": 1.0 - summary["qos_violation_rate"],
        }


WORKLOADS = {
    cls.name: cls for cls in (Fig7Closed, OpenChurn, FleetJournal)
}
