"""CaMDN core: the paper's primary contribution.

Architecture (Section III-B): way-partitioned NPU subspace
(:mod:`~repro.core.way_mask`), page allocator (:mod:`~repro.core.pages`),
per-NPU cache page tables (:mod:`~repro.core.cpt`), NPU-exclusive
controllers (:mod:`~repro.core.nec`) and model-exclusive regions
(:mod:`~repro.core.region`).

Scheduling (Sections III-C/D): the cache-aware layer mapper
(:mod:`~repro.core.mapper`), mapping candidate tables
(:mod:`~repro.core.mct`) and the dynamic cache allocation algorithm
(:mod:`~repro.core.allocator`).

:mod:`~repro.core.camdn` ties everything into the
:class:`~repro.core.camdn.CaMDNSystem` facade, and
:mod:`~repro.core.area` reproduces the Table III area breakdown.
"""

from .way_mask import WayMask
from .pages import CachePageAllocator, PageRange
from .cpt import CachePageTable, PhysicalCacheAddress
from .nec import NEC, NECOp, NECRequest, NECStats
from .region import ModelRegion, RegionManager
from .mct import (
    CacheMapEntry,
    LoopLevel,
    MappingCandidate,
    MappingCandidateTable,
    ModelMappingFile,
)
from .allocator import AllocationDecision, DynamicCacheAllocator, TaskState
from .camdn import CaMDNSystem
from .prepared import (
    PreparedModel,
    PreparedWorkload,
    clear_prepared_caches,
    mapper_counters,
    prepare_model,
    prepare_workload,
    prepared_cache_info,
)
from .area import AreaModel, area_breakdown_table
from .isa import NPUInstr, NPUOp, generate_layer_program, program_stats
from .serialize import load_mapping_file, save_mapping_file

__all__ = [
    "WayMask",
    "CachePageAllocator",
    "PageRange",
    "CachePageTable",
    "PhysicalCacheAddress",
    "NEC",
    "NECOp",
    "NECRequest",
    "NECStats",
    "ModelRegion",
    "RegionManager",
    "CacheMapEntry",
    "LoopLevel",
    "MappingCandidate",
    "MappingCandidateTable",
    "ModelMappingFile",
    "AllocationDecision",
    "DynamicCacheAllocator",
    "TaskState",
    "CaMDNSystem",
    "PreparedModel",
    "PreparedWorkload",
    "prepare_model",
    "prepare_workload",
    "prepared_cache_info",
    "mapper_counters",
    "clear_prepared_caches",
    "AreaModel",
    "area_breakdown_table",
    "NPUInstr",
    "NPUOp",
    "generate_layer_program",
    "program_stats",
    "save_mapping_file",
    "load_mapping_file",
]
