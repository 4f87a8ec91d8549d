"""Shared-memory runtimes: thread pools, barriers, fork-join execution."""

from .barrier import SenseReversingBarrier
from .runtime import (
    ExecutionStats,
    FusedStages,
    OpenMPRuntime,
    PlanStage,
    PThreadsRuntime,
    Runtime,
    SequentialRuntime,
)

__all__ = [
    "ExecutionStats",
    "FusedStages",
    "OpenMPRuntime",
    "PThreadsRuntime",
    "PlanStage",
    "Runtime",
    "SenseReversingBarrier",
    "SequentialRuntime",
]
