"""Python/NumPy code generator for Sigma-SPL programs.

Mirrors Spiral's implementation level: a lowered loop program is translated
into *source code* — one function per pipeline stage, with all index tables,
twiddle factors, and codelet matrices hoisted into a constant pool.  The
source is ``exec``-compiled and wrapped in :class:`GeneratedProgram`, whose
stages run on any :mod:`repro.smp` runtime (sequential, persistent pthreads
pool, or fork-join OpenMP style).

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
``reshape`` views instead of fancy indexing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..sigma.index_map import recover_grid
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

    def run(
        self, x: np.ndarray, runtime: Optional[Runtime] = None
    ) -> np.ndarray:
        """Apply the transform to ``x`` on ``runtime`` (sequential default)."""
        runtime = runtime or SequentialRuntime()
        out, _ = runtime.execute(self.stages, x, self.size)
        return out

    def run_with_stats(self, x: np.ndarray, runtime: Runtime):
        """Like :meth:`run` but returns ``(result, ExecutionStats)``."""
        return runtime.execute(self.stages, x, self.size)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.run(x)


def kernel_kind(kernel: Expr, codelet_max: int) -> str:
    """The emission policy for one loop kernel (see the module docstring).

    ``"copy"`` (``I_1``), ``"f2"`` (butterfly), ``"matmul"`` (dense codelet
    matrix), ``"fft"`` (library kernel) or ``"expr"`` (``kernel.apply``);
    the printer here and the batched interpreter
    (:mod:`repro.serve.batch_exec`) both switch on it.
    """
    if isinstance(kernel, I) and kernel.n == 1:
        return "copy"
    if isinstance(kernel, F2):
        return "f2"
    if kernel.cols <= codelet_max:
        return "matmul"
    return "fft" if isinstance(kernel, DFT) else "expr"


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
        """Return (kind, ref) for a kernel expression."""
        kind = kernel_kind(kernel, self.codelet_max)
        if kind in ("copy", "f2"):
            return kind, ""
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


def _gather_code(em: _Emitter, name: str, table: np.ndarray) -> tuple[str, str]:
    """Source reading ``src`` through an index table -> (code, comment)."""
    grid = recover_grid(table)
    rows, cols = table.shape
    if grid and grid.col_stride == 1 and grid.row_stride == cols:
        lo, hi = grid.base, grid.base + rows * cols
        return (
            f"src[{lo}:{hi}].reshape({rows}, {cols})",
            "contiguous block",
        )
    ref = em.const(name, np.ascontiguousarray(table))
    note = (
        f"grid base={grid.base} row_stride={grid.row_stride} "
        f"col_stride={grid.col_stride}"
        if grid
        else "irregular (merged permutation)"
    )
    return f"src[{ref}]", note


def _scatter_code(
    em: _Emitter, name: str, table: np.ndarray, value: str
) -> tuple[str, str]:
    grid = recover_grid(table)
    rows, cols = table.shape
    if grid and grid.col_stride == 1 and grid.row_stride == cols:
        lo, hi = grid.base, grid.base + rows * cols
        return (
            f"dst[{lo}:{hi}] = ({value}).reshape(-1)",
            "contiguous block",
        )
    ref = em.const(name, np.ascontiguousarray(table))
    note = (
        f"grid base={grid.base} row_stride={grid.row_stride} "
        f"col_stride={grid.col_stride}"
        if grid
        else "irregular (merged permutation)"
    )
    return f"dst[{ref}] = {value}", note


def _emit_loop(em: _Emitter, loop: BlockLoop, sid: int, lid: int, indent: str):
    out = em.lines
    base = f"{sid}_{lid}"
    gather_src, gnote = _gather_code(em, f"g{base}", loop.gather)
    kind, kref = em.kernel_ref(loop.kernel)
    out.append(f"{indent}# loop {lid}: {loop.count} x kernel "
               f"{type(loop.kernel).__name__}[{loop.kernel_size}]  "
               f"(gather: {gnote})")
    out.append(f"{indent}t = {gather_src}")
    if loop.pre_scale is not None:
        wref = em.const(f"w{base}", loop.pre_scale)
        out.append(f"{indent}t = t * {wref}  # merged twiddle/diagonal")
    if kind == "f2":
        out.append(
            f"{indent}t = np.concatenate("
            f"(t[:, :1] + t[:, 1:], t[:, :1] - t[:, 1:]), axis=1)"
            f"  # F_2 butterfly"
        )
    elif kind == "matmul":
        out.append(f"{indent}t = t @ {kref}  # codelet")
    elif kind == "fft":
        out.append(f"{indent}t = np.fft.fft(t, axis=-1)  # library kernel")
    elif kind == "expr":
        out.append(f"{indent}t = {kref}.apply(t)  # expression kernel")
    # kind == "copy": nothing to do
    value = "t"
    if loop.post_scale is not None:
        vref = em.const(f"v{base}", loop.post_scale)
        value = f"t * {vref}"
    scatter_stmt, snote = _scatter_code(em, f"s{base}", loop.scatter, value)
    out.append(f"{indent}{scatter_stmt}  # scatter: {snote}")


def generate(
    program: SigmaProgram,
    codelet_max: int = 32,
    name: str = "transform",
) -> GeneratedProgram:
    """Generate Python source for ``program`` and compile it."""
    tr = get_tracer()
    with tr.span("codegen.python", "codegen", size=program.size,
                 stages=len(program.stages)):
        return _generate_impl(program, codelet_max, name)


def _generate_impl(
    program: SigmaProgram, codelet_max: int, name: str
) -> GeneratedProgram:
    em = _Emitter(codelet_max)
    em.lines.append("# Generated by repro: Spiral shared-memory FFT backend")
    em.lines.append(f"# size={program.size}, stages={len(program.stages)}, "
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
            nprocs=max((len(st.procs), 1)),
        )
        for (fn, par, bar, nm), st in zip(raw_stages, program.stages)
    ]
    return GeneratedProgram(
        size=program.size,
        source=source,
        consts=em.consts,
        stages=stages,
        program=program,
    )
