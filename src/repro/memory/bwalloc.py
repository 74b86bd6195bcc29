"""DRAM bandwidth share rules.

The baselines the paper compares against are bandwidth-centric schedulers:

* MoCA partitions bandwidth among co-located DNNs according to their memory
  access requirements (demand-proportional, throttling tenants that are
  comfortably ahead of their deadlines);
* AuRORA co-allocates bandwidth and NPU cores toward latency targets
  (slack-weighted).

A policy states its rule as one spec from a closed family
(:meth:`~repro.schedulers.base.SchedulerPolicy.rate_kernel`):

* ``("equal",)`` — an even split (the unmanaged baseline);
* ``("demand_prop", floor)`` — shares proportional to demand;
* ``("slack_weighted", urgency, floor)`` — AuRORA's exponential slack
  weighting of demand;
* ``("slack_throttled", floor)`` — MoCA's deadline rule: demands halved
  when slack exceeds 0.5, then demand-proportional.

Every spec derives ``demand = max(rem_dram, 1) / max(rem_compute / freq,
1e-9)`` from the running instance's remaining layer work and normalizes
``base + remaining * weight / total`` with ``floor`` guaranteed to every
instance whenever ``floor * n < 1``.  :func:`shares` is the one Python
definition of each rule.  The native fused step in ``sim/_batchstep.c``
transcribes the same IEEE-754 expressions in the same order (the demand
total accumulates left to right in insertion order), so the two are
bit-identical.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List

from ..errors import SimulationError

if TYPE_CHECKING:
    from ..sim.kernel import RunningKernel

#: Spec kind -> fused-step mode (the ``MODE_*`` constants of
#: ``_batchstep.c``; 0 is the native step over installed rates).
MODES = {
    "equal": 0,
    "demand_prop": 1,
    "slack_weighted": 2,
    "slack_throttled": 3,
}

#: Modes whose rule reads the kernel's slack arrays
#: (:meth:`~repro.sim.kernel.RunningKernel.configure_slack`).
SLACK_MODES = frozenset((2, 3))

_ARITY = {"equal": 1, "demand_prop": 2, "slack_weighted": 3,
          "slack_throttled": 2}


def mode_of(spec: tuple) -> int:
    """Validate a rate spec and return its fused-step mode.

    Raises:
        SimulationError: unknown kind, wrong arity, a floor outside
            ``[0, 1)`` or a non-positive urgency.
    """
    kind = spec[0] if spec else None
    if kind not in MODES or len(spec) != _ARITY[kind]:
        raise SimulationError(f"unknown rate spec {spec!r}")
    if kind != "equal" and not 0 <= spec[-1] < 1:
        raise SimulationError(f"{spec!r}: floor must be in [0, 1)")
    if kind == "slack_weighted" and not spec[1] > 0:
        raise SimulationError(f"{spec!r}: urgency must be positive")
    return MODES[kind]


def shares(spec: tuple, kernel: "RunningKernel", freq: float,
           now: float) -> List[float]:
    """Fractional DRAM bandwidth per running instance (sums to <= 1).

    Reads the remaining work (``kernel.rem_c`` / ``kernel.rem_d``) and,
    for the slack specs, the slack arrays the kernel maintains under
    :meth:`~repro.sim.kernel.RunningKernel.configure_slack`; the result
    is aligned with ``kernel.insts``.
    """
    rem_c, rem_d = kernel.rem_c, kernel.rem_d
    n = len(rem_c)
    if not n:
        return []
    kind = spec[0]
    if kind == "equal":
        return [1.0 / n] * n
    demands = [
        (d if d > 1.0 else 1.0)
        / (t if (t := c / freq) > 1e-9 else 1e-9)
        for c, d in zip(rem_c, rem_d)
    ]
    floor = spec[-1]
    floor_total = floor * n if floor * n < 1 else 0.0
    base = floor if floor_total else 0.0
    remaining = 1.0 - floor_total
    if kind == "demand_prop":
        total = _total(demands)
        return [base + remaining * (d / total) for d in demands]
    slacks = _slacks(kernel, now)
    if kind == "slack_throttled":
        # MoCA: halve the demand of tenants more than 50 % ahead of
        # their deadline.
        weights = [d * 0.5 if s > 0.5 else d
                   for d, s in zip(demands, slacks)]
        total = _total(weights)
        return [base + remaining * (w / total) for w in weights]
    # AuRORA: behind-deadline tenants get exponentially boosted weight;
    # the slack clamp keeps a hopeless task from overflowing exp().
    urgency = spec[1]
    exp = math.exp
    weights = []
    for d, s in zip(demands, slacks):
        s = s if s > -20.0 else -20.0
        s = s if s < 20.0 else 20.0
        weights.append((d if d > 1.0 else 1.0) * exp(-urgency * s))
    total = _total(weights)
    return [base + remaining * w / total for w in weights]


def _total(values: List[float]) -> float:
    """Left-to-right float sum, as the C twin accumulates it (``sum()``
    of floats is compensated from Python 3.12 on, which rounds
    differently)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _slacks(kernel: "RunningKernel", now: float) -> List[float]:
    """Normalized QoS slack per running instance (positive: ahead of the
    deadline; 1.0 for instances without one)."""
    out = []
    for a, q, est, progress in zip(kernel.sl_arrival, kernel.sl_qos,
                                   kernel.sl_est, kernel.sl_progress):
        if math.isinf(q):
            out.append(1.0)
        else:
            expected_finish = a + (est * (1.0 - progress)) + (now - a)
            out.append((a + q - expected_finish) / q)
    return out
