"""Shared-memory runtimes: the sequential reference, the pooled thread
runtime and its barriers, and :func:`make_runtime`, which picks one by name."""

from .barrier import SenseReversingBarrier
from .runtime import (
    ExecutionStats,
    FusedStages,
    PlanStage,
    PThreadsRuntime,
    Runtime,
    SequentialRuntime,
    make_runtime,
)

__all__ = [
    "ExecutionStats",
    "FusedStages",
    "PThreadsRuntime",
    "PlanStage",
    "Runtime",
    "SenseReversingBarrier",
    "SequentialRuntime",
    "make_runtime",
]
