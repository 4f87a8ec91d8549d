"""Python/NumPy code generator for Sigma-SPL programs — the NumPy backend.

Mirrors Spiral's implementation level: a lowered loop program is translated
into *source code* — one function per pipeline stage, with all index tables,
twiddle factors, and codelet matrices hoisted into a constant pool.  The
source is ``exec``-compiled and wrapped in :class:`GeneratedProgram`, whose
stages run on any :mod:`repro.smp` runtime (sequential or the persistent
pthreads pool) and on the :mod:`repro.mp` process pool.

The printed stages are **batched**: each ``stage(proc, src, dst)`` views its
flat double buffers as ``(b, n)`` (``b`` recovered from the buffer length,
never baked in), gathers to ``(b, count, k)`` blocks, applies the kernel
along the last axis and scatters back.  That is the one stage contract of
:mod:`repro.codegen.registry`, so this printer *is* the ``numpy`` backend
(``NumpyBackend.build_stages`` returns ``generate(...).stages``); there is
no second walk of the loop IR on the Python side.  Barrier elision stays
sound under batching: each processor touches the same column-index sets in
every batch row, so per-processor access sets remain pairwise disjoint.

Kernel emission policy (the codelet story):

* ``F_2`` and ``I_1`` are emitted as unrolled expressions;
* leaf kernels up to ``codelet_max`` become dense codelet matrices applied
  as one batched matrix product (the Python analogue of Spiral's unrolled
  straight-line codelets);
* larger unexpanded ``DFT`` leaves fall back to the library kernel
  (``np.fft``) and are flagged in the source — fully expanded formulas never
  need this.

Structured index tables are annotated: when a gather/scatter table is a
2-D strided grid the generated code says so, and contiguous grids become
slice views instead of index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..sigma.index_map import recover_affine
from ..sigma.loops import BlockLoop, SigmaProgram
from ..smp.runtime import PlanStage, Runtime, SequentialRuntime
from ..spl.expr import COMPLEX, Expr
from ..spl.matrices import DFT, F2, I
from ..trace import get_tracer


@dataclass
class GeneratedProgram:
    """A compiled transform program plus its source text."""

    size: int
    source: str
    consts: dict
    stages: list[PlanStage]
    program: SigmaProgram
    codelet_max: int = 32

    def run(
        self, x: np.ndarray, runtime: Optional[Runtime] = None
    ) -> np.ndarray:
        """Apply the transform to ``x`` — one ``(n,)`` vector or a ``(b, n)``
        stack — on ``runtime`` (sequential default)."""
        return self.run_with_stats(x, runtime or SequentialRuntime())[0]

    def run_with_stats(self, x: np.ndarray, runtime: Runtime):
        """Like :meth:`run` but returns ``(result, ExecutionStats)``."""
        Y, stats = runtime.run_stages(self.stages, self.size, x)
        return (Y[0] if np.ndim(x) == 1 else Y), stats

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.run(x)


class _Emitter:
    def __init__(self, codelet_max: int):
        self.codelet_max = codelet_max
        self.consts: dict = {}
        self.lines: list[str] = []
        self._kernel_ids: dict = {}

    def const(self, name: str, value) -> str:
        self.consts[name] = value
        return f"C[{name!r}]"

    def kernel_ref(self, kernel: Expr) -> tuple[str, str]:
        """Return (kind, ref) for a kernel expression: the emission policy
        of the module docstring (``copy`` / ``f2`` / ``matmul`` / ``fft`` /
        ``expr``) plus the constant-pool reference it needs, if any."""
        if isinstance(kernel, I) and kernel.n == 1:
            return "copy", ""
        if isinstance(kernel, F2):
            return "f2", ""
        if kernel.cols <= self.codelet_max:
            kind = "matmul"
        else:
            kind = "fft" if isinstance(kernel, DFT) else "expr"
        key = kernel._key()
        if key not in self._kernel_ids:
            kid = f"k{len(self._kernel_ids)}"
            self._kernel_ids[key] = kid
            if kind == "matmul":
                # dense codelet matrix, transposed for row-batched apply
                self.consts[kid] = np.ascontiguousarray(
                    kernel.to_matrix().T.astype(COMPLEX)
                )
            else:
                self.consts[kid] = kernel  # library/expression kernel
        return kind, f"C[{self._kernel_ids[key]!r}]"


def _table_access(em: _Emitter, name: str, table: np.ndarray):
    """How one ``(count, k)`` index table addresses the last axis of a
    ``(b, n)`` buffer -> ``(index source, is a slice, comment)``.

    A table that is one contiguous run becomes a basic slice (a view, no
    index array at all); anything else is hoisted into the constant pool,
    annotated as a strided grid when :func:`recover_affine` finds one of
    rank 2 (a single row digit).
    """
    grid = recover_affine(table)
    if grid is not None and len(grid.digits) > 1:
        grid = None
    rows, cols = table.shape
    row_stride = grid.digits[0][1] if grid else None
    if grid and grid.col_stride == 1 and row_stride == cols:
        lo = grid.base
        return f"{lo}:{lo + rows * cols}", True, "contiguous block"
    note = (
        f"grid base={grid.base} row_stride={row_stride} "
        f"col_stride={grid.col_stride}"
        if grid
        else "irregular (merged permutation)"
    )
    return em.const(name, np.ascontiguousarray(table)), False, note


def _emit_loop(em: _Emitter, loop: BlockLoop, sid: int, lid: int, indent: str):
    """Print one loop: gather -> scale -> kernel -> scale -> scatter, every
    step over a ``(b, count, k)`` block (batch rows lead, kernels apply
    along the last axis)."""
    out = em.lines
    base = f"{sid}_{lid}"
    count, k = loop.gather.shape
    index, sliced, gnote = _table_access(em, f"g{base}", loop.gather)
    kind, kref = em.kernel_ref(loop.kernel)
    out.append(f"{indent}# loop {lid}: {loop.count} x kernel "
               f"{type(loop.kernel).__name__}[{loop.kernel_size}]  "
               f"(gather: {gnote})")
    if sliced:
        out.append(f"{indent}t = S[:, {index}].reshape(-1, {count}, {k})")
    else:
        out.append(f"{indent}t = S.take({index}, axis=1)")
    if loop.pre_scale is not None:
        wref = em.const(f"w{base}", loop.pre_scale)
        out.append(f"{indent}t = t * {wref}  # merged twiddle/diagonal")
    if kind == "f2":
        out.append(
            f"{indent}t = np.concatenate("
            f"(t[..., :1] + t[..., 1:], t[..., :1] - t[..., 1:]), axis=-1)"
            f"  # F_2 butterfly"
        )
    elif kind == "matmul":
        out.append(f"{indent}t = t @ {kref}  # codelet")
    elif kind == "fft":
        out.append(f"{indent}t = np.fft.fft(t, axis=-1)  # library kernel")
    elif kind == "expr":
        out.append(f"{indent}t = {kref}.apply(t)  # expression kernel")
    # kind == "copy": nothing to do
    if loop.post_scale is not None:
        vref = em.const(f"v{base}", loop.post_scale)
        out.append(f"{indent}t = t * {vref}")
    index, sliced, snote = _table_access(em, f"s{base}", loop.scatter)
    value = f"t.reshape(-1, {count * k})" if sliced else "t"
    out.append(f"{indent}D[:, {index}] = {value}  # scatter: {snote}")


def generate(
    program: SigmaProgram,
    codelet_max: int = 32,
    name: str = "transform",
) -> GeneratedProgram:
    """Generate Python source for ``program`` and compile it.

    The stages obey the registry's batched :class:`PlanStage` contract
    (flat ``(b*n,)`` double buffers, batch size recovered from the buffer
    length), so ``.stages`` *is* the NumPy backend's stage list.
    """
    tr = get_tracer()
    with tr.span("codegen.python", "codegen", size=program.size,
                 stages=len(program.stages)):
        return _generate_impl(program, codelet_max, name)


def _generate_impl(
    program: SigmaProgram, codelet_max: int, name: str
) -> GeneratedProgram:
    em = _Emitter(codelet_max)
    n = program.size
    em.lines.append("# Generated by repro: Spiral shared-memory FFT backend")
    em.lines.append(f"# size={n}, stages={len(program.stages)}, "
                    f"barriers={program.barrier_count()}")
    em.lines.append("import numpy as np")
    em.lines.append("")
    em.lines.append("def make_stages(C):")
    stage_names = []
    for sid, stage in enumerate(program.stages):
        fn = f"stage{sid}"
        stage_names.append(fn)
        em.lines.append(f"    def {fn}(proc, src, dst):")
        em.lines.append(
            f"        # {stage.name}: parallel={stage.parallel}, "
            f"barrier={'yes' if stage.needs_barrier else 'ELIDED'}"
        )
        em.lines.append(f"        S = src.reshape(-1, {n})  # (b, n) views")
        em.lines.append(f"        D = dst.reshape(-1, {n})")
        for pi, (proc, loops) in enumerate(stage.shares()):
            indent = " " * 8
            if proc is not None:
                kw = "if" if pi == 0 else "elif"
                em.lines.append(f"        {kw} proc == {proc}:")
                indent = " " * 12
            for lid, loop in loops:
                _emit_loop(em, loop, sid, lid, indent)
        em.lines.append("")
    entries = ", ".join(
        f"({fn}, {s.parallel}, {s.needs_barrier}, {s.name!r})"
        for fn, s in zip(stage_names, program.stages)
    )
    em.lines.append(f"    return [{entries}]")
    source = "\n".join(em.lines) + "\n"

    namespace: dict = {"np": np}
    exec(compile(source, f"<generated {name}>", "exec"), namespace)
    raw_stages = namespace["make_stages"](em.consts)
    stages = [
        PlanStage(
            work=fn,
            parallel=par,
            needs_barrier=bar,
            name=nm,
            # the shares a runtime iterates ``proc`` over
            nprocs=len(list(st.shares())),
        )
        for (fn, par, bar, nm), st in zip(raw_stages, program.stages)
    ]
    return GeneratedProgram(
        size=n,
        source=source,
        consts=em.consts,
        stages=stages,
        program=program,
        codelet_max=codelet_max,
    )
