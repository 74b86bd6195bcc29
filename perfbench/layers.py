"""The traced run: per-layer metrics measured from outside each layer.

The traced repetition of a scenario workload builds each engine itself
(the same steps as ``repro.experiments.common.run_scenario``) so that
it can wrap the scheduler and the scenario workload *per instance*; the
allocator, the result summaries, the engine, the campaign journal and
the fleet types are wrapped *per class* for the length of the traced
repetition.  Nothing under ``src/`` changes.

``LAYER_METRICS`` lists every per-layer metric with the end-to-end
metric, and the workload, that a change to its layer should move.
"""

from __future__ import annotations

import tracemalloc
from contextlib import ExitStack
from typing import Dict, List

from repro import make_scheduler, prepare_workload
from repro.core.allocator import DynamicCacheAllocator
from repro.experiments.sweep import CampaignJournal
from repro.fleet import FleetAccumulator, FleetSpec
from repro.sim.engine import MultiTenantEngine, SimulationResult
from repro.sim.workload import ScenarioWorkload

from spans import Tracer, wrap_class, wrap_instance
from workloads import WATCHDOG_S, Run, attempt

#: Scheduler hooks the engine calls (wrapped per scheduler instance).
SCHED_HOOKS = (
    "advance_layer", "begin_layer", "on_layer_end", "poll_layer",
    "on_task_start", "on_task_end", "on_tenant_admit",
    "on_tenant_retire", "on_capacity_change", "on_pages_retired",
)
SCENARIO_HOOKS = ("next_instance", "pop_due")

_ENGINE_RUNS = "fig7-closed and open-churn"

#: (name, unit, better, the end-to-end metric it should move).
LAYER_METRICS = [
    ("mapper.cold_s", "s", "lower", "setup_s on all workloads"),
    ("mapper.warm_s", "s", "lower", "setup_s on all workloads"),
    ("mapper.models_mapped", "count", "lower",
     "setup_s on all workloads"),
    ("scenario.next_instance_calls", "count", "lower",
     "run_s on open-churn"),
    ("scenario.next_instance_us", "us", "lower", "run_s on open-churn"),
    ("scenario.pop_due_calls", "count", "lower", "run_s on open-churn"),
    ("engine.events", "count", "lower", f"run_s on {_ENGINE_RUNS}"),
    ("engine.us_per_event", "us", "lower", f"run_s on {_ENGINE_RUNS}"),
    ("engine.self_us_per_event", "us", "lower",
     f"run_s on {_ENGINE_RUNS}"),
    ("engine.completions_per_event", "ratio", "lower",
     f"run_s on {_ENGINE_RUNS}"),
    ("engine.native_speedup", "x", "higher", f"run_s on {_ENGINE_RUNS}"),
] + [
    (f"sched.{hook}_{kind}", unit, "lower", "run_s on fig7-closed")
    for hook in SCHED_HOOKS
    for kind, unit in (("calls", "count"), ("us", "us"))
] + [
    ("sched.hook_share", "ratio", "lower", "run_s on fig7-closed"),
    ("alloc.py_select_calls", "count", "lower",
     "run_s on fig7-closed"),
    ("alloc.select_us", "us", "lower", "run_s on fig7-closed"),
    ("alloc.c_fastpath_ratio", "ratio", "higher",
     "run_s on fig7-closed (fallbacks: open-churn)"),
    ("metrics.summary_us", "us", "lower", "run_s on fleet-journal"),
    ("sweep.cells", "count", "lower", "run_s on fleet-journal"),
    ("sweep.commit_ms", "ms", "lower", "run_s on fleet-journal"),
    ("sweep.load_ms", "ms", "lower", "run_s on fleet-journal"),
    ("sweep.pool_speedup", "x", "higher", "run_s on fleet-journal"),
    ("sweep.dispatch_ms_per_cell", "ms", "lower",
     "run_s on fleet-journal"),
    ("fleet.expand_ms", "ms", "lower",
     "peak_rss_mb and run_s on fleet-journal"),
    ("fleet.fold_ms", "ms", "lower",
     "peak_rss_mb and run_s on fleet-journal"),
    ("fleet.resume_s", "s", "lower",
     "peak_rss_mb and run_s on fleet-journal"),
    ("fleet.result_kb_per_cell", "KB", "lower",
     "peak_rss_mb and run_s on fleet-journal"),
    ("fleet.parent_peak_mb", "MB", "lower",
     "peak_rss_mb and run_s on fleet-journal"),
    ("trace.overhead_pct", "%", "lower",
     "none: the cost of tracing, why end-to-end runs are untraced"),
]


# ----------------------------------------------------------------------
# Traced repetitions
# ----------------------------------------------------------------------

def _class_wraps(tracer: Tracer, fleet: bool) -> ExitStack:
    stack = ExitStack()
    stack.enter_context(wrap_class(
        tracer, DynamicCacheAllocator,
        ("select_prepared", "end_layer_prepared"), "alloc"))
    stack.enter_context(wrap_class(
        tracer, SimulationResult, ("metric_summary", "summary"),
        "metrics"))
    if fleet:
        stack.enter_context(wrap_class(
            tracer, MultiTenantEngine, ("run",), "engine"))
        stack.enter_context(wrap_class(
            tracer, CampaignJournal, ("record_done", "load_result"),
            "sweep"))
        stack.enter_context(wrap_class(
            tracer, FleetSpec, ("expand",), "fleet"))
        stack.enter_context(wrap_class(
            tracer, FleetAccumulator, ("fold_results",), "fleet"))
    return stack


def _traced_job(job, tracer: Tracer):
    """``Job.run`` with its scheduler and workload wrapped per instance
    (the engine construction of ``run_scenario``)."""
    scheduler = make_scheduler(job.policy)
    wrap_instance(tracer, scheduler, SCHED_HOOKS, "sched")
    prepare_workload(job.policy, job.scenario.model_keys, job.soc)
    workload = ScenarioWorkload(job.scenario)
    wrap_instance(tracer, workload, SCENARIO_HOOKS, "scenario")
    engine = MultiTenantEngine(job.soc, scheduler, workload,
                               faults=job.faults)
    with tracer.span("engine.run"):
        return engine.run(max_wall_s=WATCHDOG_S)


def traced_scenarios(wl, tracer: Tracer) -> List[Run]:
    with _class_wraps(tracer, fleet=False):
        return [
            attempt(job.name, job.key,
                    lambda job=job: _traced_job(job, tracer),
                    lambda r: r.metric_summary(), lambda r: [r])
            for job in wl.jobs
        ]


def traced_fleet(wl, tracer: Tracer, workdir) -> List[Run]:
    """One serial journaled fleet repetition with class-level spans."""
    with _class_wraps(tracer, fleet=True):
        return wl.repetition(workdir, workers=1)


def fleet_parent_peak_mb(wl, workdir) -> float:
    """Peak Python heap of the parent over one pool repetition."""
    tracemalloc.start()
    try:
        wl.repetition(workdir)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# Span arithmetic -> per-layer metrics
# ----------------------------------------------------------------------

def top_level(tracer: Tracer, names, under=None):
    """``(calls, inclusive ns)`` of spans named in ``names`` whose
    parent is not itself one of ``names`` (``under``: and whose parent
    is named ``under``)."""
    ids = {i for i, n in enumerate(tracer.names) if n in names}
    under_id = tracer.names.index(under) \
        if under in tracer.names else None
    calls = total = 0
    for sid, nid in enumerate(tracer.name):
        if nid not in ids:
            continue
        parent = tracer.parent[sid]
        pnid = tracer.name[parent] if parent >= 0 else None
        if pnid in ids or (under is not None and pnid != under_id):
            continue
        calls += 1
        total += tracer.end[sid] - tracer.start[sid]
    return calls, total


def _mean(total_ns: int, calls: int, scale: float) -> float:
    return total_ns / calls / scale if calls else 0.0


def layer_metrics(tracer: Tracer, events: int) -> Dict[str, float]:
    """Per-layer metrics computable from the spans alone."""
    totals = tracer.totals()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0, 0))[0]

    def mean_us(name: str) -> float:
        n, incl, _ = totals.get(name, (0, 0, 0))
        return _mean(incl, n, 1e3)

    def mean_ms(name: str) -> float:
        return mean_us(name) / 1e3

    out: Dict[str, float] = {
        "scenario.next_instance_calls":
            calls("scenario.next_instance"),
        "scenario.next_instance_us": mean_us("scenario.next_instance"),
        "scenario.pop_due_calls": calls("scenario.pop_due"),
        "engine.events": events,
    }
    _, run_ns, run_self_ns = totals.get("engine.run", (0, 0, 0))
    out["engine.self_us_per_event"] = _mean(run_self_ns, events, 1e3)
    advances = calls("sched.advance_layer")
    out["engine.completions_per_event"] = (
        (advances + calls("sched.on_layer_end")) / events
        if events else 0.0)
    for hook in SCHED_HOOKS:
        out[f"sched.{hook}_calls"] = calls(f"sched.{hook}")
        out[f"sched.{hook}_us"] = mean_us(f"sched.{hook}")
    _, hook_ns = top_level(
        tracer, {f"sched.{h}" for h in SCHED_HOOKS}, under="engine.run")
    out["sched.hook_share"] = hook_ns / run_ns if run_ns else 0.0
    out["alloc.py_select_calls"] = calls("alloc.select_prepared")
    out["alloc.select_us"] = mean_us("alloc.select_prepared")
    fallbacks, _ = top_level(tracer, {"alloc.end_layer_prepared"},
                             under="sched.advance_layer")
    out["alloc.c_fastpath_ratio"] = (
        1.0 - fallbacks / advances if advances else 0.0)
    n, ns = top_level(tracer, {"metrics.summary", "metrics.metric_summary"})
    out["metrics.summary_us"] = _mean(ns, n, 1e3)
    out["sweep.commit_ms"] = mean_ms("sweep.record_done")
    out["sweep.load_ms"] = mean_ms("sweep.load_result")
    out["fleet.expand_ms"] = mean_ms("fleet.expand")
    out["fleet.fold_ms"] = mean_ms("fleet.fold_results")
    return out

