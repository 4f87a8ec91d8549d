"""The one C emitter: Σ-SPL loop IR -> a plan's whole C text.

One walk over a program (:func:`emit_stage_functions`) yields three
products — the constant **tables** its loops index (:class:`Table`), the
unrolled **codelets** they call (:class:`CodeletDef`) and the **stage
function** text — and one assembler (:func:`emit_plan_unit`) puts a plan's
text together around them: header, preamble, the stage functions
(exported ``void repro_stage<k>``), and the sequential driver
(:func:`emit_plan_chain` — one exported ``repro_plan`` that calls the
stage functions in order, so a sequential execution crosses into C once).
The text comes in two forms that differ in the preamble alone, i.e. in how
the names the stage text uses (``g0_0``, ``vcodelet0_v4``) are defined
ahead of it:

* **single-file** — tables as decimal text, codelets ``static``: a
  translation unit that needs nothing else.  The standalone program of
  :mod:`repro.codegen.c_backend` is this text plus a ``main`` (and, for
  pthreads / OpenMP, a threaded driver over the same stage functions);
* **linked** — what :mod:`repro.codegen.compiled_backend` hands ``cc``,
  only what is new in the plan: :func:`plan_preamble` *declares* the
  tables (their values ride in one binary file, :class:`TableBlob`, which
  a file-scope assembler block places in ``.rodata`` with ``.incbin``) and
  *binds* each codelet's local name to the content-derived symbol of a
  separately compiled object (:meth:`CodeletDef.object_source`).  Plan
  objects assume ELF and a GNU-style assembler (gcc or clang on Linux).

Each :class:`~repro.sigma.loops.BlockLoop`'s gather → twiddle scale →
kernel → twiddle scale → scatter chain is fused into one loop nest:

* strided index grids recovered by
  :func:`repro.sigma.index_map.recover_grid` become closed-form address
  arithmetic; irregular tables are emitted as constant ``int`` data;
* ``F_2`` is a hand-unrolled butterfly, ``I_n`` a pure move, kernels up to
  ``codelet_max`` unrolled straight-line codelets
  (:class:`repro.codegen.unroll.Codelet`), larger ones a dense
  coefficient-table multiply;
* loops carrying ``nu > 1`` from the ``vec(ν)`` rewriting
  (:mod:`repro.vector`) emit a ν-blocked body the compiler's
  auto-vectorizer likes: ``for (jb) { for (l < ν) ... }`` with the lane
  loop innermost and branch-free, working data in **split re/im planes**
  laid out element-major / lane-minor (``t[u][l]`` at ``u*ν + l``) so every
  lane-loop access is unit-stride with no ``double complex`` arithmetic
  (no ``__muldc3`` calls), 64-byte-aligned locals, and
  ``restrict``-qualified pointers (stage source/dest never alias: the
  drivers double-buffer).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Callable, Iterable, Optional

import numpy as np

from ..rewrite.breakdown import expand_dft, factor_pairs
from ..sigma.index_map import recover_grid
from ..sigma.loops import BlockLoop, SigmaProgram, Stage
from ..spl.matrices import DFT, F2, I
from .unroll import Codelet

#: linkage of everything a plan object shares between its translation
#: units: visible to the link, absent from the ``.so``'s dynamic symbols
_HIDDEN = '__attribute__((visibility("hidden")))'

#: the name every library codelet is defined under; its object source
#: ``#define``s it to ``<CODELET_STEM>_<digest of the definition>``
CODELET_STEM = "repro_codelet"

#: preprocessor macro naming a plan unit's table file (a C string literal);
#: :func:`repro.codegen.compiled_backend.compile_plan` passes it with ``-D``
TABLES_MACRO = "PLAN_TABLES"

#: every table starts on a cache line: what a plan unit declares of its
#: tables and what the blob's layout keeps
TABLE_ALIGN = 64


@dataclass(frozen=True, eq=False)
class Table:
    """One constant table the stage text indexes: a C name and its values.

    Integer arrays are C ``int`` (index tables), everything else ``double``
    (one plane, or interleaved re/im pairs from :meth:`interleaved`).  The
    values are kept as given — usually a view of the program's own arrays
    — and flattened on demand, so a product holds no copy of its tables.
    """

    name: str
    values: np.ndarray

    @classmethod
    def interleaved(cls, name: str, values: np.ndarray) -> "Table":
        """A complex array as ``double`` re/im pairs."""
        flat = np.ascontiguousarray(values, dtype=np.complex128).reshape(-1)
        return cls(name, flat.view(np.float64))

    @property
    def ctype(self) -> str:
        """The C element type: ``int`` or ``double``."""
        return "int" if self.values.dtype.kind in "iu" else "double"

    def flat(self) -> np.ndarray:
        """The values in C order as ``int32`` / ``float64``: the bytes of
        the C array, exactly."""
        dtype = np.int32 if self.ctype == "int" else np.float64
        return np.ascontiguousarray(self.values, dtype=dtype).reshape(-1)

    def to_c(self) -> str:
        """The table as text, ``static const``: the single-file form."""
        body = ",".join(map(repr, self.flat().tolist()))
        return (
            f"static const {self.ctype} {self.name}[{self.values.size}]"
            f" = {{{body}}};"
        )

    def declaration(self) -> str:
        """The table as a plan unit sees it: defined by the table file."""
        return (
            f"extern const {self.ctype} {self.name}[{self.values.size}]"
            ' __attribute__((visibility("hidden"),'
            f" aligned({TABLE_ALIGN})));"
        )


class TableBlob:
    """A plan's tables as one binary file, each distinct table once.

    Tables are laid out in order at :data:`TABLE_ALIGN`-byte offsets,
    zero-padded between; a table whose bytes equal an earlier one's shares
    its offset (stages that repeat a twiddle plane or a scatter table
    stream one copy, as gcc's identical-constant merging arranges for the
    text form).  ``digest`` is the sha256 of the file's bytes, so a plan
    unit that names it is keyed on every table value.  Nothing here holds
    the bytes: :meth:`write` flattens each table again and streams it out.
    """

    def __init__(self, tables: Iterable[Table]) -> None:
        #: byte offset of every table name
        self.offsets: dict[str, int] = {}
        self._distinct: list[tuple[int, Table]] = []
        seen: dict[bytes, int] = {}
        whole = hashlib.sha256()
        size = 0
        for table in tables:
            data = table.flat()
            mark = hashlib.sha256(data).digest()
            at = seen.get(mark)
            if at is None:
                pad = -size % TABLE_ALIGN
                whole.update(bytes(pad))
                whole.update(data)
                at = seen[mark] = size + pad
                self._distinct.append((at, table))
                size = at + data.nbytes
            self.offsets[table.name] = at
        self.nbytes = size
        self.digest = whole.hexdigest()[:16]

    def write(self, fh: BinaryIO) -> None:
        """Stream the file's ``nbytes`` bytes to ``fh``."""
        at = 0
        for offset, table in self._distinct:
            data = table.flat()
            fh.write(bytes(offset - at))
            fh.write(data)
            at = offset + data.nbytes

    def asm_lines(self) -> list[str]:
        """The file-scope block that defines every table name.

        One ``.incbin`` of the file :data:`TABLES_MACRO` names into
        ``.rodata``, and one ``.set`` per table at its offset.  The
        symbols stay local to the object.
        """
        o = [
            "__asm__(",
            '  ".pushsection .rodata\\n"',
            f'  ".balign {TABLE_ALIGN}\\n"',
            f'  "repro_tables: .incbin \\"" {TABLES_MACRO} "\\"\\n"',
        ]
        o += [
            f'  ".set {name}, repro_tables+{at}\\n"'
            for name, at in self.offsets.items()
        ]
        return o + ['  ".popsection\\n"', ");"]


@dataclass(frozen=True, eq=False)
class CodeletDef:
    """One unrolled codelet: the name the stage text calls, ν, the code.

    Codelet text is printed here, by :meth:`to_c`, for both C targets.
    """

    name: str
    nu: int
    codelet: Codelet

    def to_c(self, name: Optional[str] = None, linkage: str = "static") -> str:
        """The definition (default: ``static``, under the local name)."""
        codelet = self.codelet
        if name is not None:
            codelet = dataclasses.replace(codelet, name=name)
        if self.nu > 1:
            return codelet.to_c_vec(self.nu, linkage)
        return codelet.to_c(linkage)

    @cached_property
    def definition(self) -> str:
        """The library form: hidden linkage, named :data:`CODELET_STEM`.

        Independent of the plan and of the local name, so equal codelets
        have equal definitions — the text the symbol and the object cache
        key are derived from.
        """
        return self.to_c(CODELET_STEM, _HIDDEN)

    @cached_property
    def symbol(self) -> str:
        """The content-derived symbol the library object defines."""
        digest = hashlib.sha256(self.definition.encode()).hexdigest()[:16]
        return f"{CODELET_STEM}_{digest}"

    def object_source(self) -> str:
        """The codelet as a translation unit of its own."""
        lanes = f" x {self.nu} lanes" if self.nu > 1 else ""
        return "\n".join([
            "/* Generated by repro: codelet object"
            f" (size {self.codelet.size}{lanes}) */",
            "#include <complex.h>",
            "typedef double complex cplx;",
            f"#define {CODELET_STEM} {self.symbol}",
            self.definition,
        ])

    def binding(self) -> list[str]:
        """What a plan unit says in place of the definition: the local
        name is the library symbol, declared with the definition's own
        signature."""
        head = self.definition.partition(" {\n")[0]
        return [
            f"#define {self.name} {self.symbol}",
            head.replace(CODELET_STEM, self.name, 1) + ";",
        ]


def lane_contiguous(table: np.ndarray, nu: int) -> bool:
    """Do ν consecutive rows address ν consecutive elements columnwise?

    True iff ``table[jb*ν + l, u] == table[jb*ν, u] + l`` for every block
    ``jb``, column ``u``, lane ``l`` — the condition under which a ν-lane
    gather/scatter is a contiguous (de)interleaving copy.  Permutation
    folding preserves this for every stage except the one that absorbed
    the in-register transpose (whose lanes sit ν apart).
    """
    rows = table.shape[0]
    if rows % nu:
        return False
    blocks = table.reshape(rows // nu, nu, -1)
    expect = blocks[:, :1, :] + np.arange(nu, dtype=table.dtype)[None, :, None]
    return bool(np.array_equal(blocks, expect))


def codelet_formula(kernel):
    """The formula a kernel is unrolled from (fast-expanded DFT leaves).

    Unexpanded ``DFT_n`` leaves would unroll from the dense O(n²)
    definition — thousands of statements gcc then chews on.  Expanding
    them Cooley-Tukey first (exactly :func:`repro.codegen.unroll.dft_codelet`'s
    policy) keeps codelets at O(n log n) straight-line ops and plan-time
    compiles fast.
    """
    if isinstance(kernel, DFT) and factor_pairs(kernel.n):
        strategy = "radix2" if kernel.n & (kernel.n - 1) == 0 else "balanced"
        return expand_dft(kernel, strategy)
    return kernel


class _StageEmitter:
    """Accumulates tables, codelets, and stage functions for one program.

    Consumes :class:`~repro.sigma.loops.BlockLoop` kernels and emits (once
    each) either an unrolled straight-line codelet or a dense coefficient
    table into ``preamble``, next to the index and twiddle tables, in the
    order the stage text first names them; that text goes to ``lines``.
    """

    def __init__(self, codelet_max: int) -> None:
        self.codelet_max = codelet_max
        self.preamble: list[Table | CodeletDef] = []
        self.lines: list[str] = []
        self._codelets: dict = {}
        self._vec_codelets: dict = {}
        self._dense: dict = {}

    # -- kernel registry ----------------------------------------------------

    def _codelet(self, kernel, nu: int) -> Optional[str]:
        """Name of the kernel's unrolled codelet, or None above the bound.

        ``nu > 1`` selects the ν-lane split re/im variant
        (:meth:`Codelet.to_c_vec`); the two families number independently.
        """
        if kernel.cols > self.codelet_max or kernel.rows != kernel.cols:
            return None
        names = self._vec_codelets if nu > 1 else self._codelets
        key = (kernel._key(), nu)
        if key not in names:
            name = (
                f"vcodelet{len(names)}_v{nu}" if nu > 1
                else f"codelet{len(names)}"
            )
            names[key] = name
            codelet = Codelet.from_formula(codelet_formula(kernel), name)
            self.preamble.append(CodeletDef(name, nu, codelet))
        return names[key]

    def _kernel_names(
        self, kernel, nu: int
    ) -> tuple[Optional[str], Optional[str]]:
        """``(codelet, dense table)`` names; both None for ``F_2``/``I_n``."""
        if isinstance(kernel, (F2, I)):
            return None, None
        cname = self._codelet(kernel, nu)
        if cname is not None:
            return cname, None
        key = kernel._key()
        if key not in self._dense:  # dense fallback above the unroll bound
            self._dense[key] = f"kmat{len(self._dense)}"
            self.preamble.append(
                Table.interleaved(self._dense[key], kernel.to_matrix())
            )
        return None, self._dense[key]

    # -- addressing ---------------------------------------------------------

    def _addr(
        self, table: np.ndarray, name: str, paren_row: bool = False
    ) -> Callable[[str, str], str]:
        """C expression factory for the address ``table[row, col]``.

        Closed-form when the table is a recovered grid, otherwise an
        ``int`` table emitted under ``name``.  ``paren_row``
        parenthesizes the row expression in the table form (the ν-wide
        strided path passes a compound ``jb*ν+l`` row).
        """
        grid = recover_grid(table)
        if grid is not None:
            base, rs, cs = grid.base, grid.row_stride, grid.col_stride
            return lambda j, u: f"{base} + {j}*{rs} + {u}*{cs}"
        k = table.shape[1]
        self.preamble.append(Table(name, table))
        if paren_row:
            return lambda j, u: f"{name}[({j})*{k} + {u}]"
        return lambda j, u: f"{name}[{j}*{k} + {u}]"

    def _lane_addr(
        self, table: np.ndarray, nu: int, kind: str, base: str
    ) -> tuple[bool, Callable[[str, str], str]]:
        """``(lane-contiguous?, address factory)`` for a ν-wide access.

        Lane-contiguous tables are addressed per block
        (``A(jb, u) = table[jb*ν, u]``); the one stage per plan that
        absorbed the :class:`~repro.vector.constructs.InRegisterTranspose`
        is addressed per row instead.
        """
        if lane_contiguous(table, nu):
            return True, self._addr(table[::nu], f"{kind}vb{base}")
        return False, self._addr(table, f"{kind}v{base}", paren_row=True)

    def _lane_tables(
        self, scale: Optional[np.ndarray], nu: int, prefix: str
    ) -> Optional[tuple[str, str]]:
        """Emit a scale vector as lane-transposed re/im planes.

        The loop stores scales row-major ``(j, u)``; the vector body wants
        ``(block, u, lane)`` so the lane loop reads unit-stride.  Returns
        the (re, im) table names; index with ``(jb*k + u)*ν + l``.
        """
        if scale is None:
            return None
        rows, k = scale.shape
        blocked = scale.reshape(rows // nu, nu, k).transpose(0, 2, 1)
        self.preamble.append(Table(f"{prefix}re", blocked.real))
        self.preamble.append(Table(f"{prefix}im", blocked.imag))
        return f"{prefix}re", f"{prefix}im"

    # -- loops --------------------------------------------------------------

    def emit_loop(self, loop: BlockLoop, sid: int, lid: int, ind: str) -> None:
        """One fused gather→scale→kernel→scale→scatter loop nest.

        Reads ``s`` and writes ``d`` (the current batch row's ``cplx``
        pointers).  ``loop.nu > 1`` selects the ν-blocked split re/im body.
        """
        base = f"{sid}_{lid}"
        if loop.nu > 1:
            self._emit_vec_loop(loop, base, ind)
            return
        o = self.lines
        rows, k = loop.gather.shape
        kout = loop.scatter.shape[1]
        g_addr = self._addr(loop.gather, f"g{base}")
        s_addr = self._addr(loop.scatter, f"s{base}")
        if loop.pre_scale is not None:
            self.preamble.append(
                Table.interleaved(f"w{base}", loop.pre_scale)
            )
        if loop.post_scale is not None:
            self.preamble.append(
                Table.interleaved(f"v{base}", loop.post_scale)
            )

        o.append(f"{ind}for (int j = 0; j < {rows}; ++j) {{")
        o.append(f"{ind}  cplx t[{max(k, kout)}];")
        o.append(
            f"{ind}  for (int u = 0; u < {k}; ++u)"
            f" t[u] = s[{g_addr('j', 'u')}];"
        )
        if loop.pre_scale is not None:
            o.append(
                f"{ind}  for (int u = 0; u < {k}; ++u)"
                f" t[u] *= w{base}[2*(j*{k}+u)]"
                f" + w{base}[2*(j*{k}+u)+1]*_Complex_I;"
            )
        cname, kname = self._kernel_names(loop.kernel, 1)
        copy_back = f"{ind}    for (int v = 0; v < {kout}; ++v) t[v] = y[v]; }}"
        if isinstance(loop.kernel, F2):
            o.append(
                f"{ind}  {{ cplx a = t[0] + t[1], b = t[0] - t[1];"
                f" t[0] = a; t[1] = b; }} /* F_2 butterfly */"
            )
        elif cname is not None:
            o.append(f"{ind}  {{ cplx y[{kout}]; {cname}(t, y);")
            o.append(copy_back)
        elif kname is not None:
            o.append(f"{ind}  {{ cplx y[{kout}];")
            o.append(f"{ind}    for (int v = 0; v < {kout}; ++v) {{")
            o.append(f"{ind}      cplx acc = 0;")
            o.append(
                f"{ind}      for (int u = 0; u < {k}; ++u)"
                f" acc += (({kname}[2*(v*{k}+u)])"
                f" + ({kname}[2*(v*{k}+u)+1])*_Complex_I) * t[u];"
            )
            o.append(f"{ind}      y[v] = acc;")
            o.append(f"{ind}    }}")
            o.append(copy_back)
        post = ""
        if loop.post_scale is not None:
            post = (
                f" * (v{base}[2*(j*{kout}+v)]"
                f" + v{base}[2*(j*{kout}+v)+1]*_Complex_I)"
            )
        o.append(
            f"{ind}  for (int v = 0; v < {kout}; ++v)"
            f" d[{s_addr('j', 'v')}] = t[v]{post};"
        )
        o.append(f"{ind}}}")

    def _emit_vec_loop(self, loop: BlockLoop, base: str, ind: str) -> None:
        """The ν-blocked loop nest: ν lanes of ``loop`` per iteration.

        Gathers and scatters detect lane contiguity (after permutation
        folding, ν consecutive rows usually address ν consecutive elements)
        and emit contiguous deinterleaving loads; twiddle scales
        (:class:`~repro.vector.constructs.VecDiag` diagonals folded by
        lowering) are lane-transposed so the multiply is also unit-stride.
        """
        o = self.lines
        nu = loop.nu
        rows, k = loop.gather.shape
        kout = loop.scatter.shape[1]
        nb = rows // nu
        kernel = loop.kernel

        g_contig, g_addr = self._lane_addr(loop.gather, nu, "g", base)
        s_contig, s_addr = self._lane_addr(loop.scatter, nu, "s", base)
        w_names = self._lane_tables(loop.pre_scale, nu, f"wv{base}")
        v_names = self._lane_tables(loop.post_scale, nu, f"vv{base}")
        cname, kname = self._kernel_names(kernel, nu)

        o.append(f"{ind}/* nu={nu} lanes x {nb} blocks"
                 f" (gather {'contig' if g_contig else 'strided'},"
                 f" scatter {'contig' if s_contig else 'strided'}) */")
        o.append(f"{ind}for (int jb = 0; jb < {nb}; ++jb) {{")
        o.append(
            f"{ind}  double tre[{k * nu}] __attribute__((aligned(64)));"
            f" double tim[{k * nu}] __attribute__((aligned(64)));"
        )

        # gather: deinterleave ν complex elements per column into the planes
        if g_contig:
            o.append(f"{ind}  for (int u = 0; u < {k}; ++u) {{")
            o.append(
                f"{ind}    const double *restrict p = (const double *)"
                f"(s + ({g_addr('jb', 'u')}));"
            )
            o.append(
                f"{ind}    for (int l = 0; l < {nu}; ++l)"
                f" {{ tre[u*{nu}+l] = p[2*l]; tim[u*{nu}+l] = p[2*l+1]; }}"
            )
            o.append(f"{ind}  }}")
        else:
            o.append(f"{ind}  const double *restrict sd = (const double *)s;")
            o.append(f"{ind}  for (int u = 0; u < {k}; ++u)")
            o.append(
                f"{ind}    for (int l = 0; l < {nu}; ++l)"
                f" {{ const long a = {g_addr(f'(jb*{nu}+l)', 'u')};"
                f" tre[u*{nu}+l] = sd[2*a]; tim[u*{nu}+l] = sd[2*a+1]; }}"
            )

        if w_names is not None:
            wre, wim = w_names
            o.append(f"{ind}  for (int u = 0; u < {k}; ++u)")
            o.append(
                f"{ind}    for (int l = 0; l < {nu}; ++l) {{"
                f" const double xr = tre[u*{nu}+l], xi = tim[u*{nu}+l];"
                f" const double cr = {wre}[(jb*{k}+u)*{nu}+l],"
                f" ci = {wim}[(jb*{k}+u)*{nu}+l];"
                f" tre[u*{nu}+l] = xr*cr - xi*ci;"
                f" tim[u*{nu}+l] = xr*ci + xi*cr; }}"
            )

        # kernel: ν lanes at once (I_n is a pure ν-block move: the
        # gather/scatter carry the permutation)
        out_re, out_im = "tre", "tim"
        if isinstance(kernel, F2):
            o.append(
                f"{ind}  for (int l = 0; l < {nu}; ++l) {{"
                f" const double ar = tre[l] + tre[{nu}+l],"
                f" ai = tim[l] + tim[{nu}+l];"
                f" const double br = tre[l] - tre[{nu}+l],"
                f" bi = tim[l] - tim[{nu}+l];"
                f" tre[l] = ar; tim[l] = ai;"
                f" tre[{nu}+l] = br; tim[{nu}+l] = bi; }} /* F_2 x {nu} */"
            )
        elif cname is not None or kname is not None:
            out_re, out_im = "yre", "yim"
            o.append(
                f"{ind}  double yre[{kout * nu}] __attribute__((aligned(64)));"
                f" double yim[{kout * nu}] __attribute__((aligned(64)));"
            )
            if cname is not None:
                o.append(f"{ind}  {cname}(tre, tim, yre, yim);")
            else:  # dense, lane loop innermost for unit-stride FMA chains
                o.append(f"{ind}  for (int v = 0; v < {kout * nu}; ++v)"
                         f" {{ yre[v] = 0; yim[v] = 0; }}")
                o.append(f"{ind}  for (int v = 0; v < {kout}; ++v)")
                o.append(f"{ind}    for (int u = 0; u < {k}; ++u) {{")
                o.append(
                    f"{ind}      const double cr = {kname}[2*(v*{k}+u)],"
                    f" ci = {kname}[2*(v*{k}+u)+1];"
                )
                o.append(
                    f"{ind}      for (int l = 0; l < {nu}; ++l) {{"
                    f" yre[v*{nu}+l] += cr*tre[u*{nu}+l] - ci*tim[u*{nu}+l];"
                    f" yim[v*{nu}+l] += cr*tim[u*{nu}+l] + ci*tre[u*{nu}+l]; }}"
                )
                o.append(f"{ind}    }}")

        # scatter (+ post-scale): re-interleave the planes
        load = (
            f" double rr = {out_re}[v*{nu}+l]; double zi_ = {out_im}[v*{nu}+l];"
        )
        if v_names is not None:
            vre, vim = v_names
            load += (
                f" const double pr = {vre}[(jb*{kout}+v)*{nu}+l],"
                f" pi = {vim}[(jb*{kout}+v)*{nu}+l];"
                f" const double zr = rr*pr - zi_*pi;"
                f" zi_ = rr*pi + zi_*pr; rr = zr;"
            )
        if s_contig:
            o.append(f"{ind}  for (int v = 0; v < {kout}; ++v) {{")
            o.append(
                f"{ind}    double *restrict q = (double *)"
                f"(d + ({s_addr('jb', 'v')}));"
            )
            o.append(
                f"{ind}    for (int l = 0; l < {nu}; ++l) {{{load}"
                f" q[2*l] = rr; q[2*l+1] = zi_; }}"
            )
            o.append(f"{ind}  }}")
        else:
            o.append(f"{ind}  double *restrict dd = (double *)d;")
            o.append(f"{ind}  for (int v = 0; v < {kout}; ++v)")
            o.append(
                f"{ind}    for (int l = 0; l < {nu}; ++l) {{{load}"
                f" const long a = {s_addr(f'(jb*{nu}+l)', 'v')};"
                f" dd[2*a] = rr; dd[2*a+1] = zi_; }}"
            )
        o.append(f"{ind}}}")

    # -- stages -------------------------------------------------------------

    def emit_stage(self, stage: Stage, sid: int, n: int) -> None:
        """One batched stage function, exported as ``repro_stage<sid>``.

        The signature is the stage ABI: ``(int proc, long b, const double
        *src, double *dst)`` over ``b`` stacked rows of ``n`` interleaved
        re/im pairs (NumPy ``complex128`` layout).  Parallel stages branch
        on ``proc`` exactly like the Python backend, so every runtime's
        processor-share contract carries over.
        """
        o = self.lines
        o.append(
            f"void repro_stage{sid}(int proc, long b, "
            f"const double *restrict srcd, double *restrict dstd) {{"
        )
        o.append(
            f"  /* {stage.name}: parallel={int(stage.parallel)}"
            f" barrier={'yes' if stage.needs_barrier else 'elided'} */"
        )
        o.append("  const cplx *src = (const cplx *)srcd;")
        o.append("  cplx *dst = (cplx *)dstd;")
        for pi, (proc, loops) in enumerate(stage.shares()):
            if proc is None:
                o.append("  (void)proc;")
                pad = "  "
            else:
                kw = "if" if pi == 0 else "else if"
                o.append(f"  {kw} (proc == {proc}) {{")
                pad = "    "
            o.append(f"{pad}for (long r = 0; r < b; ++r) {{")
            o.append(f"{pad}  const cplx *s = src + r*{n};")
            o.append(f"{pad}  cplx *d = dst + r*{n};")
            for lid, loop in loops:
                self.emit_loop(loop, sid, lid, pad + "  ")
            o.append(f"{pad}}}")
            if proc is not None:
                o.append("  }")
        o.append("}")
        o.append("")


@dataclass(frozen=True)
class StageSource:
    """What one walk over a program prints, as three products.

    ``preamble`` holds the :class:`Table`\\ s and :class:`CodeletDef`\\ s
    in the order the stage text first names them (``tables`` and
    ``codelets`` are its two halves); ``lines`` is one stage function per
    stage, which assumes ``<complex.h>``, ``typedef double complex cplx;``
    and a definition of every preamble name ahead of it.
    """

    preamble: list[Table | CodeletDef]
    lines: list[str]

    @property
    def tables(self) -> list[Table]:
        """The preamble's tables, in order."""
        return [it for it in self.preamble if isinstance(it, Table)]

    @property
    def codelets(self) -> list[CodeletDef]:
        """The preamble's codelets, in order."""
        return [it for it in self.preamble if isinstance(it, CodeletDef)]


def emit_stage_functions(
    program: SigmaProgram, codelet_max: int
) -> StageSource:
    """Walk ``program`` once: its tables, codelets and stage functions."""
    em = _StageEmitter(codelet_max)
    for sid, stage in enumerate(program.stages):
        em.emit_stage(stage, sid, program.size)
    return StageSource(em.preamble, em.lines)


def plan_preamble(blob: TableBlob, source: StageSource) -> list[str]:
    """What a linked plan unit says ahead of its stage functions.

    Every table *declared* (``blob`` defines them: its assembler block
    follows the declarations) and every codelet *bound* to its library
    symbol — no table value and no codelet body, so the unit is a few
    kilobytes at every size.  The comment carries the blob's digest, which
    is how a table value reaches the plan's cache key.
    """
    tables, codelets = source.tables, source.codelets
    o: list[str] = []
    if tables:
        o.append(
            f"/* tables: {len(tables)}, in the {blob.nbytes}-byte file"
            f" -D{TABLES_MACRO} names (sha256 {blob.digest}) */"
        )
        o += [table.declaration() for table in tables]
        o += blob.asm_lines()
    if codelets:
        o.append("/* codelets: defined by the objects this unit links */")
        for codelet in codelets:
            o += codelet.binding()
    return o + [""]


#: first line of the chain: everything before it in a plan source is the
#: stage text the golden ``"plan"`` digests pin
CHAIN_MARKER = "/* whole-plan chain: every stage above, in order, in one call */"


def emit_plan_chain(program: SigmaProgram) -> list[str]:
    """A plan's sequential driver, ``repro_plan``.

    ``int repro_plan(long b, const double *x, double *y)`` calls
    ``repro_stage0 .. repro_stage<k-1>`` in order over ``b`` rows, every
    processor share of a stage in turn (the loop of
    :meth:`repro.smp.runtime.SequentialRuntime.execute`, in C).  Stage 0
    reads ``x`` in place and the last stage writes ``y``; the stages
    between ping-pong ``y`` and one scratch row-block the call itself
    ``malloc``s and frees, so concurrent callers share nothing (a
    one-stage plan allocates nothing).  ``x`` is never written.  Returns
    non-zero, having run no stage, iff the scratch could not be
    allocated.  The chain only *calls* the stage functions: they stay the
    one implementation of a stage.  The lines begin at
    :data:`CHAIN_MARKER`.

    A scratch of 4 MiB or more gets ``madvise(MADV_HUGEPAGE)`` where
    the platform has it, which is what NumPy does for the equally large
    buffers of its own that this one stands in for: without it the
    scratch is the one buffer of a large transform on 4 KiB pages, and
    n = 2^16 x 8 (8 MiB, first touched on every call) reads 6 % slower
    than the Python walk instead of 11 % faster.
    """
    k = len(program.stages)
    o = [CHAIN_MARKER]
    if k > 1:
        o += [
            "#include <stdlib.h>",
            "#ifdef __linux__",
            "#include <sys/mman.h>",
            "#endif",
        ]
    o.append("int repro_plan(long b, const double *x, double *y) {")
    if k > 1:
        o += [
            "  if (b <= 0) return 0; /* malloc(0) may be NULL: no failure */",
            f"  const size_t bytes = (size_t)b * {2 * program.size}"
            " * sizeof(double);",
            "  double *t = malloc(bytes);",
            "  if (!t) return 1;",
            "#ifdef MADV_HUGEPAGE",
            "  if (bytes >= (size_t)1 << 22) { /* as NumPy backs its own */",
            "    const size_t skip = 4096 - (size_t)t % 4096;",
            "    madvise((char *)t + skip, bytes - skip, MADV_HUGEPAGE);",
            "  }",
            "#endif",
        ]
    src = "x"
    for sid, stage in enumerate(program.stages):
        dst = "y" if (k - 1 - sid) % 2 == 0 else "t"
        for proc in range(max(len(stage.procs), 1)):
            o.append(f"  repro_stage{sid}({proc}, b, {src}, {dst});")
        src = dst
    if k > 1:
        o.append("  free(t);")
    return o + ["  return 0;", "}", ""]


@dataclass(frozen=True)
class PlanUnit:
    """One plan's C text, and what that text needs beside it to build:
    the codelets to link in and the table file to place next to it (both
    empty for the single-file form, which is complete)."""

    text: str
    codelets: list[CodeletDef]
    tables: TableBlob


def emit_plan_unit(
    program: SigmaProgram, codelet_max: int, *, linked: bool
) -> PlanUnit:
    """Walk ``program`` once and assemble its whole C text.

    Header, preamble, stage functions, chain — the one place they are put
    together.  ``linked`` picks the preamble: :func:`plan_preamble`
    (tables declared, codelets bound: the unit wants ``tables`` beside it
    and ``codelets`` linked in) or the single-file form (tables as text,
    codelets ``static``: the unit is complete).  Nothing else differs.
    """
    source = emit_stage_functions(program, codelet_max)
    if linked:
        codelets, tables = source.codelets, TableBlob(source.tables)
        preamble = plan_preamble(tables, source)
    else:
        codelets, tables = [], TableBlob([])
        preamble = [it.to_c() for it in source.preamble] + [""]
    header = [
        "/* Generated by repro: compiled-codelet execution backend */",
        f"/* size={program.size} stages={len(program.stages)}"
        f" barriers={program.barrier_count()}"
        f" codelet_max={codelet_max} */",
        "#include <complex.h>",
        "#include <math.h>",
        "typedef double complex cplx;",
        "",
    ]
    text = "\n".join(header + preamble + source.lines) + "\n".join(
        emit_plan_chain(program)
    )
    return PlanUnit(text, codelets, tables)


__all__ = [
    "CHAIN_MARKER",
    "CODELET_STEM",
    "CodeletDef",
    "PlanUnit",
    "StageSource",
    "TABLES_MACRO",
    "Table",
    "TableBlob",
    "codelet_formula",
    "emit_plan_chain",
    "emit_plan_unit",
    "emit_stage_functions",
    "lane_contiguous",
    "plan_preamble",
]
