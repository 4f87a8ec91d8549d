"""Stage-list execution of a stacked ``(b, n)`` input: :func:`run_batched`.

The batched stage lists themselves come from the execution backends
(:mod:`repro.codegen.registry`; the NumPy one is the printed program of
:mod:`repro.codegen.python_backend`).  This is the entry point for callers
that hold bare stages rather than a plan record.
"""

from __future__ import annotations

import numpy as np

from ..smp.runtime import ExecutionStats, PlanStage, Runtime


def run_batched(
    stages: list[PlanStage],
    n: int,
    X: np.ndarray,
    runtime: Runtime,
) -> tuple[np.ndarray, ExecutionStats]:
    """Execute a ``(b, n)`` stack through bare batched stages on ``runtime``.

    The stage-list form of :meth:`Runtime.run` (same prologue, same walk) for
    callers that hold stages rather than a plan record.
    """
    return runtime.run_stages(stages, n, X)
