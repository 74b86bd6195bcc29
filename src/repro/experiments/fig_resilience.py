"""Fault-injection resilience experiment (beyond the paper's figures).

The paper evaluates fault-free hardware; this harness measures how
gracefully each policy degrades when the SoC does not cooperate.  A
single steady four-tenant scenario (QoS-M deadlines) runs across all
five policies at increasing *fault intensity*: each intensity level maps
to one deterministic :class:`~repro.sim.faults.FaultSpec` composing a
DRAM-bandwidth degradation window, an ECC page-retirement storm, a
multi-core outage, and (at high intensity) a tenant stall — the same
fault kinds the chaos-fuzz tier drives randomly, here on a fixed grid so
policies are comparable point by point.

Intensity 0.0 is the fault-free control (an empty ``FaultSpec``, which
is byte-identical to no fault injection at all); 1.0 leaves one NPU core
online through the outage window, retires a quarter of the cache's
pages, and halves effective DRAM bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..sim.faults import (
    CORE_OFFLINE,
    DRAM_DEGRADE,
    PAGE_RETIRE,
    TENANT_STALL,
    FaultEvent,
    FaultSpec,
)
from ..sim.scenario import ScenarioSpec, get_scenario
from .sweep import SweepCell, run_sweep

#: Policies compared, in presentation order.
RESILIENCE_POLICIES: Tuple[str, ...] = (
    "baseline", "moca", "aurora", "camdn-hw", "camdn-full"
)

#: Registry scenario driving the comparison.
RESILIENCE_SCENARIO_NAME = "steady-quad"

#: Fault-intensity grid (0.0 = fault-free control).
INTENSITY_LEVELS: Tuple[float, ...] = (0.0, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class ResilienceRow:
    """One (policy, fault intensity) cell."""

    policy: str
    intensity: float
    inferences: int
    avg_latency_ms: float
    p99_latency_ms: float
    qos_violations: int
    cancelled_inferences: int
    pages_retired: int
    throughput_ratio: float  # completed vs the policy's fault-free run


def fault_schedule_for(intensity: float) -> FaultSpec:
    """The deterministic fault schedule at one intensity level.

    Fault instants sit inside the scenario's 0.4 s measurement window;
    magnitudes scale linearly with ``intensity``.
    """
    if intensity <= 0.0:
        return FaultSpec()
    events = [
        FaultEvent(kind=DRAM_DEGRADE, t_s=0.10, duration_s=0.12,
                   bw_factor=1.0 - 0.5 * intensity),
        FaultEvent(kind=PAGE_RETIRE, t_s=0.12,
                   pages=max(1, int(round(128 * intensity)))),
        FaultEvent(kind=CORE_OFFLINE, t_s=0.14, duration_s=0.08,
                   cores=max(1, int(round(15 * intensity)))),
    ]
    if intensity >= 0.75:
        events.append(
            FaultEvent(kind=TENANT_STALL, t_s=0.24, duration_s=0.06,
                       stream_index=0)
        )
    return FaultSpec(events=tuple(events))


def resilience_scenario(scale: float = 1.0) -> ScenarioSpec:
    """The steady scenario at the requested window scale, with QoS-M
    deadlines on every stream."""
    spec = get_scenario(RESILIENCE_SCENARIO_NAME).scaled(scale)
    return ScenarioSpec(
        streams=tuple(replace(s, qos_scale=1.0) for s in spec.streams),
        duration_s=spec.duration_s,
        warmup_s=spec.warmup_s,
    )


def run_resilience(
    scale: float = 1.0,
    policies: Sequence[str] = RESILIENCE_POLICIES,
    intensities: Sequence[float] = INTENSITY_LEVELS,
    jobs: Optional[int] = None,
    use_cache: bool = True,
) -> List[ResilienceRow]:
    """Run the (policy x intensity) grid; rows in grid order.

    The fault specs are built at scale 1.0 and handed to the sweep cells
    unscaled — :meth:`SweepCell.resolve_faults` scales fault instants
    alongside the scenario window, keeping every fault inside the
    (possibly shrunken) measurement window.
    """
    spec = resilience_scenario(1.0)
    cells = [
        SweepCell.from_scenario(
            policy, spec, qos_mode=True, scale=scale,
            faults=fault_schedule_for(intensity),
        )
        for intensity in intensities
        for policy in policies
    ]
    results = run_sweep(cells, max_workers=jobs, use_cache=use_cache)
    rows: List[ResilienceRow] = []
    baseline_completed = {}
    grid = [
        (intensity, policy)
        for intensity in intensities
        for policy in policies
    ]
    for (intensity, policy), result in zip(grid, results):
        if result is None:  # cell failed every retry (see run_sweep)
            continue
        summary = result.summary()
        completed = result.completed_inferences
        if intensity == 0.0:
            baseline_completed[policy] = completed
        control = baseline_completed.get(policy, completed)
        rows.append(
            ResilienceRow(
                policy=policy,
                intensity=intensity,
                inferences=int(summary["inferences"]),
                avg_latency_ms=summary["avg_latency_ms"],
                p99_latency_ms=summary["p99_latency_ms"],
                qos_violations=int(summary["qos_violations"]),
                cancelled_inferences=int(
                    summary["cancelled_inferences"]
                ),
                pages_retired=int(
                    result.scheduler_stats.get("pages_retired", 0)
                ),
                throughput_ratio=(
                    completed / control if control else 0.0
                ),
            )
        )
    return rows


def format_resilience(rows: Sequence[ResilienceRow]) -> str:
    lines = [
        "Resilience — QoS degradation vs fault intensity "
        "(DRAM + cores + ECC pages + tenant stall, QoS-M deadlines)",
        f"  {'intensity':<10}{'policy':<12}{'inf':>5}{'avg ms':>8}"
        f"{'p99 ms':>8}{'QoS viol':>9}{'cancel':>7}{'pages':>6}"
        f"{'tput':>6}",
    ]
    last_intensity = None
    for row in rows:
        label = (
            f"{row.intensity:.2f}" if row.intensity != last_intensity
            else ""
        )
        last_intensity = row.intensity
        lines.append(
            f"  {label:<10}{row.policy:<12}{row.inferences:>5}"
            f"{row.avg_latency_ms:>8.2f}{row.p99_latency_ms:>8.2f}"
            f"{row.qos_violations:>9}{row.cancelled_inferences:>7}"
            f"{row.pages_retired:>6}{row.throughput_ratio:>6.2f}"
        )
    by_cell = {(r.policy, r.intensity): r for r in rows}
    full = by_cell.get(("camdn-full", 1.0))
    base = by_cell.get(("baseline", 1.0))
    if full and base:
        lines.append(
            f"  at intensity 1.0: camdn-full keeps "
            f"{full.throughput_ratio:.0%} of fault-free throughput "
            f"(baseline {base.throughput_ratio:.0%}), "
            f"{full.pages_retired} pages retired in service"
        )
    return "\n".join(lines)
