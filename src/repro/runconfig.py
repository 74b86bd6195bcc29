"""The consolidated per-run configuration of the public API.

Every run-control axis of
:func:`repro.experiments.common.run_scenario` — QoS integration, trace
capture, fault injection, watchdog budgets, rolling checkpoints,
snapshot hooks — lives on one frozen, reusable :class:`RunConfig`
passed as ``config=``; it is the only way to set them::

    from repro import RunConfig, run

    config = RunConfig(faults="degraded-soc", max_wall_s=120.0)
    result = run("poisson-eight", policy="camdn-full", config=config)

This module is a leaf (it imports only the error hierarchy), so the
package root, the experiment layer and the fleet subsystem can all
share the class without import cycles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional

from .errors import WorkloadError


@dataclass(frozen=True)
class RunConfig:
    """Everything about *how* one scenario runs (not *what* runs).

    The scenario, SoC and policy stay positional on
    :func:`~repro.experiments.common.run_scenario`; every orthogonal
    run-control axis lives here.  The object is frozen, so one config
    can be shared across a grid of runs (the fleet layer does exactly
    that).

    Attributes:
        qos_mode: enable the AuRORA-style QoS integration on CaMDN
            policies (ignored on other policy names, matching the
            Figure 9 setup; rejected when the policy is an instance).
        faults: optional :class:`~repro.sim.faults.FaultSpec` (or the
            name of a registered fault schedule) injecting hardware and
            tenant faults into the run.  ``None`` or an empty spec is
            byte-identical to a fault-free run.
        capture_trace: record every scenario/engine event and attach
            the finished :class:`~repro.sim.trace.EventTrace` to the
            result (``result.event_trace``); pure observation, so
            metrics are unchanged.
        trace: optional live :class:`~repro.sim.trace.TraceRecorder`
            (execution-timeline capture; excluded from equality so
            configs differing only in an attached recorder compare
            equal).
        max_events: engine watchdog event budget (see
            :meth:`~repro.sim.engine.MultiTenantEngine.run`).
        max_wall_s: engine watchdog wall-clock budget in seconds; the
            campaign runner's per-cell ``deadline_s`` rides this.
        checkpoint_every_s: write a rolling on-disk engine checkpoint
            at this wall-clock cadence.  Requires ``checkpoint_dir`` —
            a cadence with nowhere to write is rejected with
            :class:`~repro.errors.WorkloadError` at construction, not
            silently dropped.
        checkpoint_dir: directory for the rolling checkpoint.
        snapshot_at_events: capture one in-memory engine snapshot at
            the first batch boundary past this event count, attached
            to ``result.last_snapshot`` (test hook).
    """

    qos_mode: bool = False
    faults: Any = None
    capture_trace: bool = False
    trace: Optional[Any] = field(default=None, compare=False,
                                 repr=False)
    max_events: Optional[int] = None
    max_wall_s: Optional[float] = None
    checkpoint_every_s: Optional[float] = None
    checkpoint_dir: Optional[str] = None
    snapshot_at_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.checkpoint_every_s is not None:
            if self.checkpoint_every_s < 0:
                # 0.0 is valid: checkpoint at every batch boundary.
                raise WorkloadError(
                    "checkpoint_every_s cannot be negative"
                )
            if self.checkpoint_dir is None:
                raise WorkloadError(
                    "checkpoint_every_s requires checkpoint_dir: a "
                    "checkpoint cadence with nowhere to write would "
                    "be silently ignored"
                )
        if self.max_events is not None and self.max_events <= 0:
            raise WorkloadError("max_events must be positive")
        if self.max_wall_s is not None and self.max_wall_s < 0:
            raise WorkloadError("max_wall_s cannot be negative")

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)
