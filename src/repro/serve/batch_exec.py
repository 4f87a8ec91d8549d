"""Batched plan execution: one stacked ndarray through the SMP runtimes.

A :class:`~repro.codegen.python_backend.GeneratedProgram` compiles stage
functions for a single length-``n`` vector.  The serving layer coalesces
many requests for the same plan and wants to pay the Python interpreter
overhead *once per stage per batch*, not once per vector — so this module
re-interprets the plan's Σ-SPL loops with a leading batch axis:

* gathers become ``S[:, table]`` (shape ``(b, count, k)``),
* kernels apply along the last axis (butterfly, codelet matmul, library
  FFT — exactly the Python backend's emission policy),
* scatters become ``D[:, table] = t``.

The stage/processor structure, stage names, and barrier-elision flags of
the original schedule are preserved, so batched stages run unchanged on any
:mod:`repro.smp` runtime (sequential or the persistent pthreads pool).
Elision stays sound: each processor touches the same column-index sets in
every batch row, so per-processor access sets remain pairwise disjoint.

The batch size is *not* baked in: stage closures recover ``b`` from the
buffer size, so one batched stage list per plan serves every request batch.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..codegen.python_backend import GeneratedProgram, kernel_kind
from ..sigma.loops import BlockLoop, SigmaProgram
from ..smp.runtime import ExecutionStats, PlanStage, Runtime
from ..spl.expr import COMPLEX

#: kernels up to this size become dense codelet matrices (matches codegen)
CODELET_MAX = 32


def _kernel_fn(kernel, codelet_max: int) -> Optional[Callable]:
    """Batched kernel application along the last axis (emitter policy)."""
    kind = kernel_kind(kernel, codelet_max)
    if kind == "copy":
        return None
    if kind == "f2":
        def butterfly(t):
            return np.concatenate(
                (t[..., :1] + t[..., 1:], t[..., :1] - t[..., 1:]), axis=-1
            )

        return butterfly
    if kind == "matmul":
        mat = np.ascontiguousarray(kernel.to_matrix().T.astype(COMPLEX))
        return lambda t: t @ mat
    if kind == "fft":
        return lambda t: np.fft.fft(t, axis=-1)
    return kernel.apply  # expression kernel, batched over leading axes


def _loop_fn(loop: BlockLoop, codelet_max: int) -> Callable:
    gather, scatter = loop.gather, loop.scatter
    pre, post = loop.pre_scale, loop.post_scale
    kfn = _kernel_fn(loop.kernel, codelet_max)

    def run(S: np.ndarray, D: np.ndarray) -> None:
        t = S[:, gather]
        if pre is not None:
            t = t * pre
        if kfn is not None:
            t = kfn(t)
        if post is not None:
            t = t * post
        D[:, scatter] = t

    return run


def batched_stages(
    program: SigmaProgram, codelet_max: int = CODELET_MAX
) -> list[PlanStage]:
    """Batch-axis re-interpretation of a lowered program's stages.

    The returned :class:`PlanStage` list mirrors the per-vector plan
    (parallel flags, barrier elision, processor shares) but each stage
    views its buffers as ``(b, n)`` and vectorizes every loop over ``b``.
    """
    n = program.size
    out: list[PlanStage] = []
    for stage in program.stages:
        by_proc = {
            proc: [_loop_fn(lp, codelet_max) for _, lp in loops]
            for proc, loops in stage.shares()
        }

        # a non-parallel stage is one share (None) its caller runs whole
        def work(proc, src, dst, _by_proc=by_proc, _whole=by_proc.get(None)):
            S = src.reshape(-1, n)
            D = dst.reshape(-1, n)
            for fn in _by_proc.get(proc, ()) if _whole is None else _whole:
                fn(S, D)

        out.append(
            PlanStage(
                work=work,
                parallel=stage.parallel,
                needs_barrier=stage.needs_barrier,
                name=stage.name,
                nprocs=len(by_proc),
            )
        )
    return out


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


def batched_plan(gen: GeneratedProgram,
                 codelet_max: int = CODELET_MAX) -> list[PlanStage]:
    """Batched stages for a generated program (its lowered Σ-SPL form)."""
    return batched_stages(gen.program, codelet_max)
