"""Simulated SMP/multicore machines: caches, coherence, scheduling, costs."""

from .cache import Cache, CacheHierarchy, CacheStats, HierarchyStats
from .coherence import (
    SharingReport,
    StageSharing,
    analyze_sharing,
    count_false_sharing,
)
from .cost_model import (
    CostBreakdown,
    SyncProfile,
    estimate_cost,
    sync_cycles,
)
from .replay import ReplayResult, replay, residency_agrees_with_model
from .schedule import schedule_block, schedule_cyclic
from .topology import (
    COMPLEX_BYTES,
    CacheLevel,
    EXTENSION_MACHINES,
    MachineSpec,
    PAPER_MACHINES,
    all_machine_specs,
    cmp8,
    core_duo,
    machine,
    opteron,
    pentium_d,
    xeon_mp,
)

__all__ = [
    "COMPLEX_BYTES",
    "EXTENSION_MACHINES",
    "all_machine_specs",
    "cmp8",
    "Cache",
    "CacheHierarchy",
    "CacheLevel",
    "CacheStats",
    "CostBreakdown",
    "HierarchyStats",
    "MachineSpec",
    "PAPER_MACHINES",
    "ReplayResult",
    "replay",
    "residency_agrees_with_model",
    "SharingReport",
    "StageSharing",
    "SyncProfile",
    "analyze_sharing",
    "core_duo",
    "count_false_sharing",
    "estimate_cost",
    "machine",
    "opteron",
    "pentium_d",
    "schedule_block",
    "sync_cycles",
    "schedule_cyclic",
    "xeon_mp",
]
