"""CPU co-run study (the paper's stated future work).

The conclusion names "scheduling methods that take both multi-tenant DNNs
and general-purpose programs into consideration" as future work.  This
harness provides the substrate for that study: synthetic CPU programs run
against the *functional* sliced cache's general-purpose subspace (the ways
the way mask leaves to the CPU), while the way split simultaneously sets
how many pages the NPU subspace offers CaMDN.

Sweeping the way partition therefore exposes the co-design tradeoff:

* more NPU ways -> more CaMDN pages -> lower DNN latency,
* fewer CPU ways -> smaller general-purpose subspace -> lower CPU hit
  rate for cache-friendly CPU programs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from ..cache.sliced_cache import SlicedSharedCache
from ..config import CacheConfig, SoCConfig
from ..memory.dram import MainMemory
from ..models.zoo import BENCHMARK_MODELS
from ..schedulers.camdn_full import CaMDNFullScheduler
from ..sim.engine import MultiTenantEngine
from ..sim.scenario import ScenarioSpec
from ..sim.workload import ScenarioWorkload
from .common import ExperimentScale


@dataclass(frozen=True)
class CPUProgram:
    """A synthetic CPU tenant: a working set walked with some locality.

    Attributes:
        name: program label.
        working_set_bytes: resident set the program cycles through.
        locality: probability that an access re-touches a recent line
            rather than striding onward (higher = cache-friendlier).
    """

    name: str
    working_set_bytes: int
    locality: float

    def __post_init__(self) -> None:
        if self.working_set_bytes <= 0:
            raise ValueError("working set must be positive")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError("locality must be in [0, 1]")


#: A small mix of cache-friendly and streaming CPU programs.
DEFAULT_CPU_MIX = (
    CPUProgram("pointer-chase", working_set_bytes=512 * 1024,
               locality=0.9),
    CPUProgram("stream-copy", working_set_bytes=16 * 1024 * 1024,
               locality=0.05),
    CPUProgram("kernel-build", working_set_bytes=2 * 1024 * 1024,
               locality=0.6),
)


def run_cpu_program(
    cache: SlicedSharedCache,
    program: CPUProgram,
    num_accesses: int,
    seed: int = 7,
    base_address: int = 0,
) -> float:
    """Drive one CPU program through the general-purpose subspace.

    Returns the program's hit rate over ``num_accesses`` accesses.
    """
    rng = random.Random(seed)
    line = cache.config.line_bytes
    lines_in_set = max(program.working_set_bytes // line, 1)
    recent: List[int] = []
    hits = 0
    cursor = 0
    for _ in range(num_accesses):
        if recent and rng.random() < program.locality:
            addr = rng.choice(recent)
        else:
            cursor = (cursor + 1) % lines_in_set
            addr = base_address + cursor * line
        if cache.cpu_access(addr, write=rng.random() < 0.3):
            hits += 1
        recent.append(addr)
        if len(recent) > 64:
            recent.pop(0)
    return hits / num_accesses


@dataclass(frozen=True)
class CoRunRow:
    """One way-partition point of the co-run study."""

    npu_ways: int
    cpu_ways: int
    dnn_latency_ms: float
    cpu_hit_rates: dict


def run_cpu_corun_study(
    npu_way_options: Sequence[int] = (8, 12, 14),
    cpu_programs: Sequence[CPUProgram] = DEFAULT_CPU_MIX,
    accesses_per_program: int = 20_000,
    scale: float = 0.3,
) -> List[CoRunRow]:
    """Sweep the way split; measure both sides of the tradeoff.

    The DNN side runs the 16-tenant CaMDN(Full) workload on the fluid
    simulator; the CPU side replays the synthetic programs against the
    functional cache with the same way mask.
    """
    rows: List[CoRunRow] = []
    experiment_scale = ExperimentScale(scale=scale)
    for npu_ways in npu_way_options:
        base = SoCConfig()
        soc = SoCConfig(
            npu=base.npu,
            num_npu_cores=base.num_npu_cores,
            cache=CacheConfig(npu_ways=npu_ways),
            dram=base.dram,
            dtype_bytes=base.dtype_bytes,
        )
        spec = ScenarioSpec.closed_loop(
            list(BENCHMARK_MODELS) * 2,
            duration_s=experiment_scale.duration_s,
            warmup_s=experiment_scale.warmup_s,
        )
        result = MultiTenantEngine(
            soc, CaMDNFullScheduler(), ScenarioWorkload(spec)
        ).run()

        cache = SlicedSharedCache(soc.cache, MainMemory())
        hit_rates = {}
        for i, program in enumerate(cpu_programs):
            hit_rates[program.name] = run_cpu_program(
                cache, program, accesses_per_program,
                base_address=i * (1 << 30),
            )
        rows.append(
            CoRunRow(
                npu_ways=npu_ways,
                cpu_ways=soc.cache.num_ways - npu_ways,
                dnn_latency_ms=result.metrics.macro_avg_latency_s() * 1e3,
                cpu_hit_rates=hit_rates,
            )
        )
    return rows


def format_corun(rows: Sequence[CoRunRow]) -> str:
    if not rows:
        return "(no co-run rows)"
    programs = list(rows[0].cpu_hit_rates)
    header = f"  {'ways (NPU/CPU)':<16}{'DNN ms':>8}" + "".join(
        f"{name:>16}" for name in programs
    )
    lines = ["CPU co-run study — way-partition tradeoff", header]
    for row in rows:
        cells = "".join(
            f"{row.cpu_hit_rates[name]:>16.1%}" for name in programs
        )
        lines.append(
            f"  {f'{row.npu_ways}/{row.cpu_ways}':<16}"
            f"{row.dnn_latency_ms:>8.2f}" + cells
        )
    return "\n".join(lines)
