"""MoCA baseline (Kim et al., HPCA 2023).

MoCA is memory-centric: it dynamically partitions DRAM bandwidth among
co-located DNNs "according to their memory access requirements" while
leaving the shared cache unmanaged.  Our behavioural re-implementation
keeps the transparent-cache traffic model of the unmanaged baseline and
replaces the equal bandwidth split with a demand-proportional allocation
boosted by QoS slack (MoCA throttles tenants that are comfortably ahead of
their targets).
"""

from __future__ import annotations

import math

from ..sim.task import TaskInstance
from .shared_baseline import SharedCacheBaseline

#: Bandwidth partitioning restores part of the row locality (each tenant
#: gets contiguous service windows at the memory controller).
_MOCA_EFF_FLOOR = 0.70
_MOCA_EFF_LOCALITY_BONUS = 0.15


class MoCAScheduler(SharedCacheBaseline):
    """Demand-proportional bandwidth partitioning over a transparent
    cache."""

    name = "moca"

    def __init__(self, floor: float = 0.02) -> None:
        super().__init__()
        #: Share every tenant is guaranteed (see repro.memory.bwalloc).
        self._floor = floor
        # Active tasks with a finite deadline; when zero, the slack
        # throttle degenerates to halving every demand, which cancels
        # out of the proportional allocation (see rate_kernel).
        self._finite_qos_active = 0
        # Admitted tenants whose model carries a latency target.
        self._deadline_tenants = 0

    def attach(self, soc) -> None:
        super().attach(soc)
        self._finite_qos_active = 0
        self._deadline_tenants = 0

    # ------------------------------------------------------------------
    # Tenant lifecycle: MoCA's slack throttle only matters for tenants
    # whose models carry a latency target, so track that census alongside
    # the baseline's prepared-artifact warm-up.
    # ------------------------------------------------------------------

    def on_tenant_admit(self, stream_id: str, graph, now: float) -> None:
        super().on_tenant_admit(stream_id, graph, now)
        if graph.qos_target_ms:
            self._deadline_tenants += 1

    def on_tenant_retire(self, stream_id: str, now: float) -> None:
        graph = self._tenants.get(stream_id)
        super().on_tenant_retire(stream_id, now)
        if graph is not None and graph.qos_target_ms:
            self._deadline_tenants -= 1

    def stats(self):
        stats = super().stats()
        stats["deadline_tenants"] = float(self._deadline_tenants)
        return stats

    def snapshot_state(self) -> dict:
        # The floor is constructor config, which a default-constructed
        # scheduler would not know — ship it too.
        state = super().snapshot_state()
        state.update(
            floor=self._floor,
            finite_qos_active=self._finite_qos_active,
            deadline_tenants=self._deadline_tenants,
        )
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._floor = state["floor"]
        self._finite_qos_active = state["finite_qos_active"]
        self._deadline_tenants = state["deadline_tenants"]

    def on_task_start(self, instance: TaskInstance, now: float) -> None:
        super().on_task_start(instance, now)
        if not math.isinf(instance.qos_target_s):
            self._finite_qos_active += 1
            if self._finite_qos_active == 1:
                # The slack throttle just woke up: the share rule is no
                # longer plain demand-proportional.
                self.bump_rate_epoch()

    def on_task_end(self, instance: TaskInstance, now: float) -> None:
        super().on_task_end(instance, now)
        if not math.isinf(instance.qos_target_s):
            self._finite_qos_active -= 1
            if self._finite_qos_active == 0:
                self.bump_rate_epoch()

    def dram_efficiency(self, num_running: int) -> float:
        return _MOCA_EFF_FLOOR + _MOCA_EFF_LOCALITY_BONUS / max(
            num_running, 1
        )

    # ------------------------------------------------------------------

    def rate_kernel(self):
        """Demand-proportional partitioning that throttles tenants with
        generous slack: with a finite-deadline task active, the
        slack-throttled spec (demands halved when slack > 0.5).  With
        none, every slack is the no-deadline 1.0, so every demand is
        halved — which scales the proportional total by exactly 0.5
        (a power of two, no rounding) and leaves every share
        bit-identical to plain demand-proportional.  The epoch bumps in
        the task hooks re-resolve the spec at each transition."""
        if self._finite_qos_active:
            return ("slack_throttled", self._floor)
        return ("demand_prop", self._floor)
