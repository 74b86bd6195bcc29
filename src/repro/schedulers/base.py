"""Scheduler policy interface.

A policy answers four questions for the fluid engine:

1. how many cores an arriving inference gets (``cores_for``);
2. what executing one layer costs (``begin_layer`` — compute cycles and
   DRAM bytes, possibly after waiting for cache pages);
3. how the DRAM bandwidth splits across running tasks (``rate_kernel``,
   a spec from the closed family in :mod:`repro.memory.bwalloc`);
4. what bookkeeping happens at layer/inference boundaries
   (``on_layer_end`` / ``on_task_end``).

``begin_layer`` may return ``(None, timeout)`` meaning the task must wait
for cache pages; the engine then calls ``poll_layer`` whenever pages might
have been freed and ``timeout_layer`` when the wait budget expires
(the downgrade path of Figure 6).
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Tuple

from ..config import SoCConfig
from ..core.prepared import PreparedModel, prepare_model
from ..models.graph import ModelGraph
from ..npu.systolic import SystolicModel
from ..sim.task import LayerWork, TaskInstance

#: Added speedup per extra core when a model spans multiple NPUs
#: (sub-linear, matching AuRORA's reported fission efficiency).
PARALLEL_EFFICIENCY = 0.85


class SchedulerPolicy(abc.ABC):
    """Base class for all scheduling policies."""

    #: Paper-facing policy name (overridden by subclasses).
    name = "abstract"

    #: Monotone counter bumped (via :meth:`bump_rate_epoch`) whenever
    #: the *rule* that produces this policy's shares changes shape —
    #: e.g. MoCA's slack throttle waking up when the first
    #: finite-deadline task arrives.  The engine re-consults
    #: :meth:`rate_kernel` on every epoch change, so fused batches span
    #: exactly the events between rule changes.
    rate_epoch = 0

    def __init__(self) -> None:
        self.soc: Optional[SoCConfig] = None
        self.systolic: Optional[SystolicModel] = None
        self._prepared: Dict[str, PreparedModel] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self, soc: SoCConfig) -> None:
        """Bind the policy to an SoC before a simulation run."""
        self.soc = soc
        self.systolic = SystolicModel(soc.npu)
        self._prepared = {}

    def snapshot_state(self) -> dict:
        """Picklable mid-run state for engine checkpoints.

        Subclasses extend the returned dict with every piece of state a
        resumed run needs to continue byte-identically.  Pure memos
        (prepared models, layer-work caches) are excluded by contract —
        they rebuild lazily with identical values.  The blob is pickled
        as part of one engine-wide payload, so object identities shared
        with engine state (task instances, scheduler contexts) survive
        the round trip.
        """
        return {"rate_epoch": self.rate_epoch}

    def restore_state(self, state: dict) -> None:
        """Install :meth:`snapshot_state` output after :meth:`attach`.

        The call order is fixed: construct the policy, ``attach`` it to
        the snapshot's SoC (rebuilding the pure run-scoped helpers),
        then ``restore_state`` to overwrite the mutable run state.
        """
        self.rate_epoch = state["rate_epoch"]

    def prepared_for(self, graph: ModelGraph) -> PreparedModel:
        """The graph's prepared artifacts on the attached SoC.

        The process-wide prepared cache is fronted by a per-policy dict
        keyed on the graph name so the hot path costs one string hash
        instead of re-hashing the SoC config on every call.
        """
        prepared = self._prepared.get(graph.name)
        if prepared is None or prepared.graph is not graph:
            prepared = prepare_model(graph, self.soc)
            self._prepared[graph.name] = prepared
        return prepared

    def on_tenant_admit(self, stream_id: str, graph: ModelGraph,
                        now: float) -> None:
        """A tenant (stream) joined the scenario.

        Fired once per stream before its first inference dispatches —
        at engine start for the initial tenant set, and mid-run for
        tenants with a ``join_s`` in dynamic-tenancy scenarios.  The
        default is a no-op; policies use it to warm per-model state
        (prepared artifacts, mapping files) off the inference hot path.
        """

    def on_tenant_retire(self, stream_id: str, now: float) -> None:
        """A tenant left the scenario (scheduled departure or natural
        exhaustion).  Any in-flight inference has already been ended or
        cancelled through the per-task hooks, so per-task resources
        (cache pages, regions) are released before this fires.  The
        default is a no-op."""

    def cores_for(self, instance: TaskInstance, free_cores: int) -> int:
        """Cores granted to an arriving inference (default: one)."""
        return 1

    def on_capacity_change(self, num_cores: int, now: float) -> None:
        """The schedulable NPU core set changed size (fault injection:
        cores went offline or came back).

        The engine has already preempted any instance whose cores
        vanished (through :meth:`on_task_end`, like a departing tenant)
        and invalidates every cached rate, so share-based policies
        degrade gracefully with no action here.  The default is a
        no-op; policies override it to track capacity-dependent state.
        """

    def on_pages_retired(self, count: int, rng_key: str,
                         now: float) -> Tuple[int, ...]:
        """``count`` SPM pages suffered an ECC fault (fault injection).

        ``rng_key`` seeds victim selection — a pure function of the
        fault spec, so every engine path retires the same pages.
        Policies that model the NPU cache (CaMDN) evacuate and
        permanently retire the victims, returning the retired pcpns;
        policies without a cache model ignore the fault (default: no
        pages retired).
        """
        return ()

    def on_task_start(self, instance: TaskInstance, now: float) -> None:
        """An inference acquired its core(s) and is about to map layers."""

    # ------------------------------------------------------------------
    # Layer protocol
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def begin_layer(self, instance: TaskInstance, now: float
                    ) -> Tuple[Optional[LayerWork], float]:
        """Cost of the instance's current layer, or ``(None, timeout)`` to
        wait for cache pages."""

    def poll_layer(self, instance: TaskInstance, now: float
                   ) -> Tuple[Optional[LayerWork], float]:
        """Re-attempt a waiting layer after pages may have been freed
        (no downgrade).  Default: re-run ``begin_layer``."""
        return self.begin_layer(instance, now)

    def timeout_layer(self, instance: TaskInstance, now: float
                      ) -> Tuple[Optional[LayerWork], float]:
        """The wait budget expired; policies with degradable requests
        downgrade here.  Default: retry as a poll."""
        return self.begin_layer(instance, now)

    def on_layer_end(self, instance: TaskInstance, now: float) -> None:
        """The instance finished its current layer."""

    def on_task_end(self, instance: TaskInstance, now: float) -> None:
        """The instance finished its last layer and releases its cores."""

    # ------------------------------------------------------------------
    # Native completion chain
    # ------------------------------------------------------------------

    def native_chain(self) -> Optional[tuple]:
        """Inputs of the native completion chain (the ``chain`` argument
        of :func:`repro.sim.native.fused_step`), or ``None`` when the
        chain must not engage (the default: every event with layer
        completions then returns to the engine's Python loop).

        A chain handles a completion in C instead of calling the
        policy's per-layer hooks, so a policy offers one only while
        :meth:`_hooks_unwrapped` holds for the hooks it replaces.  The
        engine reads this once per native call; the returned tables
        must stay valid until the call returns (no Python hook runs
        inside it).
        """
        return None

    def _hooks_unwrapped(self, owner: type, *names: str) -> bool:
        """Whether each hook in ``names`` is ``owner``'s own method:
        neither overridden by a subclass nor shadowed on the instance
        (a per-instance wrapper, such as a profiler's).  A native chain
        that replaces those hooks engages only while this holds, so
        anything that wants to see the calls still sees every one."""
        cls = type(self)
        for name in names:
            if getattr(cls, name) is not getattr(owner, name) or \
                    name in self.__dict__:
                return False
        return True

    # ------------------------------------------------------------------
    # Bandwidth
    # ------------------------------------------------------------------

    def dram_efficiency(self, num_running: int) -> float:
        """Fraction of the allocated DRAM bandwidth actually sustained
        with ``num_running`` instances on the running set.

        Real DRAM delivers its peak only to row-buffer-friendly streams.
        A transparent cache turns tenant traffic into scattered 64 B demand
        misses whose interleaving across tenants destroys row locality —
        the latency amplification the paper's DRAMsim3 backend exhibits and
        the reason latency reductions in Figure 8 (34-42 %) exceed traffic
        reductions (16-38 %).  Policies override this with their achievable
        efficiency; the default is ideal (1.0).  The engine memoizes it per
        width, so it must be a pure function of ``num_running``.
        """
        return 1.0

    def bump_rate_epoch(self) -> None:
        """Advance :attr:`rate_epoch` (the share rule changed shape)."""
        self.rate_epoch += 1

    def rate_kernel(self) -> tuple:
        """The policy's bandwidth share rule, as one spec of the closed
        family :mod:`repro.memory.bwalloc` defines (and the native fused
        step transcribes):

        * ``("equal",)`` — an even split (the default);
        * ``("demand_prop", floor)`` — demand-proportional shares with
          a starvation floor;
        * ``("slack_weighted", urgency, floor)`` — AuRORA's rule:
          demand weighted by ``exp(-urgency * clamp(slack, ±20))``;
        * ``("slack_throttled", floor)`` — MoCA's finite-deadline rule:
          demands halved when ``slack > 0.5``, then demand-proportional.

        Every spec but ``("equal",)`` tracks the remaining layer work,
        so the engine recomputes its shares at every event; equal-split
        rates change only with the running-set membership.  The slack
        specs make the engine maintain per-instance slack inputs
        (arrival, deadline, :meth:`est_isolated_latency_s`, layer
        progress) in kernel SoA arrays.

        The returned spec must hold until the policy bumps
        :attr:`rate_epoch`.
        """
        return ("equal",)

    # ------------------------------------------------------------------
    # Helpers shared by concrete policies
    # ------------------------------------------------------------------

    def compute_cycles(self, instance: TaskInstance) -> float:
        """Cycles of the current layer on the instance's core group."""
        return self.layer_compute_cycles(
            instance.graph, instance.layer_index, instance.cores
        )

    def layer_compute_cycles(self, graph: ModelGraph, layer_index: int,
                             cores: int) -> float:
        """Cycles of ``graph``'s layer ``layer_index`` on ``cores``."""
        cycles = self.prepared_for(graph).layer_cycles[layer_index]
        if cores > 1:
            speedup = 1.0 + PARALLEL_EFFICIENCY * (cores - 1)
            cycles = cycles / speedup
        return float(cycles)

    def est_isolated_latency_s(self, instance: TaskInstance) -> float:
        """Single-tenant latency estimate for slack computations."""
        return self.prepared_for(instance.graph).isolated_latency_s

    def stats(self) -> Dict[str, float]:
        """Policy-specific counters for reports (default: none)."""
        return {}
