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

* index maps recovered by :func:`repro.sigma.index_map.recover_affine`
  become closed-form address arithmetic, one term per mixed-radix digit
  of the loop index (a Cooley-Tukey plan carries no index table); a map
  no affine form reproduces is emitted as constant ``int`` data;
* ``F_2`` is a hand-unrolled butterfly, ``I_n`` a pure move, kernels up to
  ``codelet_max`` unrolled straight-line codelets
  (:class:`repro.codegen.unroll.Codelet`), larger ones a dense
  coefficient-table multiply;
* a codelet stores its own outputs: a loop whose scatter is an affine
  form with contiguous lanes (or one lane) and no post-scale passes the
  block's scatter address and column stride, and has no scatter loop;
  any other codelet loop passes a line-aligned local block its scatter
  loop reads;
* every loop runs its ν lanes per iteration (``loop.nu``: 1 for a scalar
  loop — the one-lane case of the same text — more from the ``vec(ν)``
  rewriting, :mod:`repro.vector`) in **explicit** GCC/Clang
  vector-extension statements (:func:`vector_prelude`), never lane loops
  left to an auto-vectorizer — the codelets included: working data in
  **split re/im planes** of
  ν-vectors (element-major, lane-minor — the codelets' layout), no
  ``double complex`` arithmetic (no ``__muldc3`` calls), 64-byte-aligned
  locals, ``restrict``-qualified stage pointers (source and dest never
  alias: the drivers double-buffer — but for the stages the chain runs in
  place, :func:`chain_in_place`, which are printed without it), and
  twiddle planes that repeat stored once (:meth:`_StageEmitter._lane_scale`).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Callable, Iterable, Optional

import numpy as np

from ..rewrite.breakdown import expand_dft, factor_pairs
from ..sigma.index_map import recover_affine
from ..sigma.loops import BlockLoop, SigmaProgram, Stage
from ..spl.matrices import DFT, F2, I
from . import flags
from .unroll import Codelet, interleaved_store

#: linkage of everything a plan object shares between its translation
#: units: visible to the link, absent from the ``.so``'s dynamic symbols
_HIDDEN = '__attribute__((visibility("hidden")))'

#: the name every library codelet is defined under; its object source
#: ``#define``s it to ``<CODELET_STEM>_<digest of the definition>``
CODELET_STEM = "repro_codelet"

#: preprocessor macro naming a plan unit's table file (a C string literal);
#: :func:`repro.codegen.compiled_backend.compile_plan` passes it with ``-D``
TABLES_MACRO = "PLAN_TABLES"

#: the cache line, in bytes.  Every table starts on one (what a plan unit
#: declares of its tables and what the blob's layout keeps), and so do the
#: chain's scratch and the result the runtime hands it: a ν-lane group of
#: a buffer at ``malloc``'s 16 mod 64 straddles two lines on every access
CACHE_LINE = 64


@dataclass(frozen=True, eq=False)
class Table:
    """One constant table the stage text indexes: a C name and its values.

    Integer arrays are C ``int`` (index tables), everything else ``double``
    (one plane of a twiddle table, or a dense kernel's interleaved re/im
    pairs).  The values are kept as given — usually a view of the
    program's own arrays — and flattened on demand, so a product holds no
    copy of its tables.
    """

    name: str
    values: np.ndarray

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
            f" aligned({CACHE_LINE})));"
        )


class TableBlob:
    """A plan's tables as one binary file, each distinct table once.

    Tables are laid out in order at :data:`CACHE_LINE`-byte offsets,
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
                pad = -size % CACHE_LINE
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
            f'  ".balign {CACHE_LINE}\\n"',
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

    Codelet text is printed here, by :meth:`to_c`, for both C targets and
    every ν: explicit ν-vector statements over split re/im planes that
    store each output at ``y + i*ys`` (:meth:`Codelet.to_c_vec`).
    """

    name: str
    nu: int
    codelet: Codelet

    def to_c(self, name: Optional[str] = None, linkage: str = "static") -> str:
        """The definition (default: ``static``, under the local name)."""
        codelet = self.codelet
        if name is not None:
            codelet = dataclasses.replace(codelet, name=name)
        return codelet.to_c_vec(self.nu, linkage)

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
        """The codelet as a translation unit of its own: its ν's
        :func:`vector_prelude` ahead of the definition."""
        return "\n".join([
            "/* Generated by repro: codelet object"
            f" (size {self.codelet.size} x {self.nu} lanes) */",
            f"#define {CODELET_STEM} {self.symbol}",
            *vector_prelude([self.nu]),
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


def _lane_list(lanes: Iterable) -> str:
    return ", ".join(map(str, lanes))


def _broadcast(nu: int, re: str, im: str) -> str:
    """C text declaring ν-vectors ``cr``, ``ci``: ``re``, ``im`` per lane."""
    return (
        f"const double wr = {re}, wi = {im};"
        f" const v{nu} cr = {{{_lane_list(['wr'] * nu)}}},"
        f" ci = {{{_lane_list(['wi'] * nu)}}};"
    )


def vector_prelude(widths: Iterable[int]) -> list[str]:
    """What ν-lane stage text assumes ahead of it, per vector width:
    ``v<w>`` (``w`` doubles, GCC/Clang vector extensions; aliases
    ``double`` as the intrinsic types do), ``v<w>u`` (the same through a
    pointer that promises a double's alignment only — request buffers are
    read in place) and ``SHUF(w, a, b, lanes...)``, the two-operand
    shuffle under the name this compiler knows it by."""
    sizes = [(w, f"vector_size({8 * w})") for w in sorted(widths)]
    o = []
    for w, size in sizes:
        o.append(f"typedef double v{w} __attribute__(({size}, may_alias));")
        o.append(f"typedef double v{w}u"
                 f" __attribute__(({size}, may_alias, aligned(8)));")
    o += [
        "#if defined(__clang__) || __GNUC__ >= 12",
        "#define SHUF(w, a, b, ...) __builtin_shufflevector(a, b, __VA_ARGS__)",
        "#else",
        "#define SHUF(w, a, b, ...)"
        " __builtin_shuffle(a, b, (v##w##i){__VA_ARGS__})",
    ]
    o += [f"typedef long long v{w}i __attribute__(({size}));"
          for w, size in sizes]
    return o + ["#endif"]


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
        self._dense: dict = {}

    # -- kernel registry ----------------------------------------------------

    def _codelet(self, kernel, nu: int) -> Optional[str]:
        """Name of the kernel's unrolled ν-lane codelet
        (:meth:`Codelet.to_c_vec`), or None above the bound."""
        if kernel.cols > self.codelet_max or kernel.rows != kernel.cols:
            return None
        names = self._codelets
        key = (kernel._key(), nu)
        if key not in names:
            names[key] = name = f"vcodelet{len(names)}_v{nu}"
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
            matrix = np.ascontiguousarray(kernel.to_matrix(), np.complex128)
            self.preamble.append(  # as double re/im pairs
                Table(self._dense[key], matrix.reshape(-1).view(np.float64))
            )
        return None, self._dense[key]

    # -- addressing ---------------------------------------------------------

    def _addr(
        self, table: np.ndarray, kind: str, base: str, nu: int
    ) -> tuple[bool, Callable[..., str], Optional[int]]:
        """``(lane-contiguous?, C expression factory, column stride)`` for
        ``table``.

        ``addr(j, u, l=0)`` is the element column ``u`` of lane ``l`` of
        *block* ``j`` addresses (``u = None``: column 0 of an affine form,
        its base and digit terms alone); the lanes are contiguous when ν
        consecutive rows address ν consecutive elements (permutation
        folding keeps that in every stage but the one that absorbed the
        in-register transpose, whose lanes sit ν apart; one lane has no
        neighbour to be contiguous with).  Closed-form when the table is a
        recovered :class:`~repro.sigma.index_map.AffineForm` (one term per
        digit of ``j``); a map no form reproduces is emitted as ``int``
        data: per block (``<kind>vb<base>``) when the lanes are
        contiguous, else per row (``<kind>v<base>``).  The column stride
        is the form's, in elements: None for a table.
        """
        form = recover_affine(table, nu)
        if form is not None:
            terms, div = [], 1
            for radix, stride in form.digits:
                digit = "{j}" if div == 1 else f"({{j}}/{div})"
                div *= radix
                if div < table.shape[0] // nu:
                    digit = f"({digit}%{radix})"
                terms.append(f"{digit}*{stride}")
            text = " + ".join([str(form.base), *terms])
            return form.lane_stride == 1, lambda j, u, l=0: (
                text.format(j=j)
                + ("" if u is None else f" + {u}*{form.col_stride}")
                + (f" + {l * form.lane_stride}" if l else "")
            ), form.col_stride
        k = table.shape[1]
        blocks = table.reshape(-1, nu, k)
        steps = np.diff(blocks, axis=1)  # lane to lane: none at one lane
        contig = steps.size > 0 and bool((steps == 1).all())
        name = kind + ("vb" if contig else "v") + base
        self.preamble.append(Table(name, table[::nu] if contig else table))
        if contig:
            return True, lambda j, u, l=0: f"{name}[{j}*{k} + {u}]", None
        return (False, lambda j, u, l=0: f"{name}[({j}*{nu}+{l})*{k} + {u}]",
                None)

    def _lane_scale(
        self, scale: Optional[np.ndarray], nu: int, kind: str, base: str
    ) -> Optional[Callable[[str], str]]:
        """Emit a ν-lane loop's scale vector -> ``factor(u)``, C text that
        declares column ``u``'s factor in block ``jb`` as ν-vectors
        ``cr``, ``ci``.

        Stored as ``(block, u, lane)`` re/im planes (``<kind>v<base>re`` /
        ``im``), so a factor is one unit-stride load — each distinct block
        once: twiddles are digit-periodic, constant along a low digit of
        ``jb`` (runs of ``lo`` equal blocks) and of period ``p`` along the
        rest, both found by checking.  A scale constant across the lanes
        too is a **broadcast** table of scalars (``<kind>b<base>re`` /
        ``im``): a few KiB in L1 where the plane is the size of the data.
        """
        if scale is None:
            return None
        rows, k = scale.shape
        nb = rows // nu
        blocks = scale.reshape(nb, nu, k).transpose(0, 2, 1)
        flat = blocks.reshape(nb, -1)
        differs = np.flatnonzero((flat != flat[0]).any(axis=1))
        lo = int(differs[0]) if differs.size else nb
        if nb % lo or not np.array_equal(flat, flat[::lo].repeat(lo, axis=0)):
            lo = 1
        flat = flat[::lo]
        again = np.flatnonzero((flat[1:] == flat[0]).all(axis=1))
        p = int(again[0]) + 1 if again.size else len(flat)
        if len(flat) % p or not np.array_equal(
            flat, np.tile(flat[:p], (len(flat) // p, 1))
        ):
            p = len(flat)
        row = "jb" if lo == 1 else f"(jb/{lo})"
        if p < len(flat):
            row = f"({row}%{p})"
        blocks = blocks[::lo][:p]
        splat = bool((blocks == blocks[..., :1]).all())
        if splat:
            blocks = blocks[..., 0]
        name = f"{kind}{'b' if splat else 'v'}{base}"
        self.preamble.append(Table(f"{name}re", blocks.real))
        self.preamble.append(Table(f"{name}im", blocks.imag))

        def factor(u: str) -> str:
            at = f"{row}*{k}+{u}"
            if not splat:
                return (
                    f"const v{nu} cr = *(const v{nu}u *)"
                    f"({name}re + ({at})*{nu}),"
                    f" ci = *(const v{nu}u *)({name}im + ({at})*{nu});"
                )
            return _broadcast(nu, f"{name}re[{at}]", f"{name}im[{at}]")

        return factor

    # -- loops --------------------------------------------------------------

    def emit_loop(self, loop: BlockLoop, sid: int, lid: int, ind: str) -> None:
        """One fused gather→scale→kernel→scale→scatter loop nest: ν lanes
        of ``loop`` per iteration (a scalar loop is the one-lane case), the
        glue around the codelet in explicit vector statements
        (:func:`vector_prelude`) — nothing is left to an auto-vectorizer.

        Reads ``s`` and writes ``d`` (the current batch row's ``cplx``
        pointers).  Working data sits in split re/im planes of ν-vectors
        (``tre[u]`` is element ``u`` of all ν lanes), the codelet's input
        layout.  A lane-contiguous gather is two loads and two shuffles
        that de-interleave and a strided one ν 16-byte loads combined;
        scatters mirror them; twiddle scales multiply in registers in
        between.  A codelet whose scatter is an affine form with
        contiguous lanes (or one lane) and no post-scale is handed the
        block's scatter address and ``2*col_stride`` and does the scatter
        itself; any other is handed ``yb``, a line-aligned local block of
        ν interleaved pairs per output (``ys = 2ν``), which the scatter
        loop de-interleaves as a gather would.
        """
        base = f"{sid}_{lid}"
        o = self.lines
        nu = loop.nu
        rows, k = loop.gather.shape
        kout = loop.scatter.shape[1]
        nb = rows // nu
        kernel = loop.kernel
        vec, mem = f"v{nu}", f"v{nu}u"
        lanes = range(nu)
        even, odd = (_lane_list(range(at, 2 * nu, 2)) for at in (0, 1))

        g_contig, g_addr, _ = self._addr(loop.gather, "g", base, nu)
        s_contig, s_addr, s_stride = self._addr(loop.scatter, "s", base, nu)
        w_factor = self._lane_scale(loop.pre_scale, nu, "w", base)
        v_factor = self._lane_scale(loop.post_scale, nu, "v", base)
        cname, kname = self._kernel_names(kernel, nu)

        o.append(f"{ind}/* nu={nu} lanes x {nb} blocks"
                 f" (gather {'contig' if g_contig else 'strided'},"
                 f" scatter {'contig' if s_contig else 'strided'}) */")
        o.append(f"{ind}for (int jb = 0; jb < {nb}; ++jb) {{")
        o.append(
            f"{ind}  {vec} tre[{k}] __attribute__((aligned(64))),"
            f" tim[{k}] __attribute__((aligned(64)));"
        )

        # gather (+ pre-scale): ν complex elements per column into the planes
        if not g_contig:
            o.append(f"{ind}  const v2u *sc = (const v2u *)s;")
        o.append(f"{ind}  for (int u = 0; u < {k}; ++u) {{")
        if g_contig:
            o.append(
                f"{ind}    const double *p = (const double *)"
                f"(s + ({g_addr('jb', 'u')}));"
            )
            o.append(
                f"{ind}    const {vec} lo = *(const {mem} *)p,"
                f" hi = *(const {mem} *)(p + {nu});"
            )
            o.append(
                f"{ind}    const {vec}"
                f" xr = SHUF({nu}, lo, hi, {even}),"
                f" xi = SHUF({nu}, lo, hi, {odd});"
            )
        else:
            o.append(f"{ind}    const v2 " + ", ".join(
                f"c{l} = sc[{g_addr('jb', 'u', l)}]" for l in lanes
            ) + ";")
            o.append(
                f"{ind}    const {vec}"
                f" xr = {{{_lane_list(f'c{l}[0]' for l in lanes)}}},"
                f" xi = {{{_lane_list(f'c{l}[1]' for l in lanes)}}};"
            )
        if w_factor is None:
            o.append(f"{ind}    tre[u] = xr; tim[u] = xi;")
        else:
            o.append(f"{ind}    {w_factor('u')}")
            o.append(
                f"{ind}    tre[u] = xr*cr - xi*ci; tim[u] = xr*ci + xi*cr;"
            )
        o.append(f"{ind}  }}")

        # kernel: ν lanes at once (I_n is a pure ν-block move: the
        # gather/scatter carry the permutation)
        out_re, out_im = "tre", "tim"
        if cname is not None and s_stride is not None \
                and (s_contig or nu == 1) and v_factor is None:
            # the codelet stores the block at its scatter address itself
            o.append(
                f"{ind}  {cname}((const double *)tre, (const double *)tim,"
                f" (double *)(d + ({s_addr('jb', None)})), {2 * s_stride});"
            )
            o.append(f"{ind}}}")
            return
        if isinstance(kernel, F2):
            o.append(
                f"{ind}  {{ const {vec} ar = tre[0] + tre[1],"
                f" ai = tim[0] + tim[1], br = tre[0] - tre[1],"
                f" bi = tim[0] - tim[1]; tre[0] = ar; tim[0] = ai;"
                f" tre[1] = br; tim[1] = bi; }} /* F_2 x {nu} */"
            )
        elif cname is not None:  # into a local block, ys = one element
            o.append(
                f"{ind}  {vec} yb[{2 * kout}] __attribute__((aligned(64)));"
            )
            o.append(
                f"{ind}  {cname}((const double *)tre, (const double *)tim,"
                f" (double *)yb, {2 * nu});"
            )
        elif kname is not None:  # dense: one coefficient against ν lanes
            out_re, out_im = "yre", "yim"
            o.append(
                f"{ind}  {vec} yre[{kout}] __attribute__((aligned(64))),"
                f" yim[{kout}] __attribute__((aligned(64)));"
            )
            at = f"{kname}[2*(v*{k}+u)"
            o.append(f"{ind}  for (int v = 0; v < {kout}; ++v) {{")
            o.append(f"{ind}    {vec} ar = {{0}}, ai = {{0}};")
            o.append(f"{ind}    for (int u = 0; u < {k}; ++u) {{")
            o.append(f"{ind}      {_broadcast(nu, at + ']', at + '+1]')}")
            o.append(
                f"{ind}      ar += cr*tre[u] - ci*tim[u];"
                f" ai += cr*tim[u] + ci*tre[u];"
            )
            o.append(f"{ind}    }}")
            o.append(f"{ind}    yre[v] = ar; yim[v] = ai;")
            o.append(f"{ind}  }}")

        # scatter (+ post-scale): re-interleave the planes
        if not s_contig:
            o.append(f"{ind}  v2u *dc = (v2u *)d;")
        o.append(f"{ind}  for (int v = 0; v < {kout}; ++v) {{")
        got = f"{out_re}[v]", f"{out_im}[v]"
        if cname is not None:  # the block's ν interleaved re/im pairs
            o.append(
                f"{ind}    const {vec} lo = yb[2*v], hi = yb[2*v + 1];"
            )
            got = f"SHUF({nu}, lo, hi, {even})", f"SHUF({nu}, lo, hi, {odd})"
        z = "z" if v_factor is None else "y"
        o.append(f"{ind}    const {vec} {z}r = {got[0]}, {z}i = {got[1]};")
        if v_factor is not None:
            o.append(f"{ind}    {v_factor('v')}")
            o.append(
                f"{ind}    const {vec} zr = yr*cr - yi*ci, zi = yr*ci + yi*cr;"
            )
        if s_contig:
            o.append(
                f"{ind}    double *q = (double *)"
                f"(d + ({s_addr('jb', 'v')}));"
            )
            o.append(f"{ind}    {interleaved_store(nu, 'q', 'zr', 'zi')}")
        else:
            o.append(f"{ind}   " + "".join(
                f" dc[{s_addr('jb', 'v', l)}] = (v2){{zr[{l}], zi[{l}]}};"
                for l in lanes
            ))
        o.append(f"{ind}  }}")
        o.append(f"{ind}}}")

    # -- stages -------------------------------------------------------------

    def emit_stage(
        self, stage: Stage, sid: int, n: int, in_place: bool = False
    ) -> None:
        """One batched stage function, exported as ``repro_stage<sid>``.

        The signature is the stage ABI: ``(int proc, long b, const double
        *src, double *dst)`` over ``b`` stacked rows of ``n`` interleaved
        re/im pairs (NumPy ``complex128`` layout).  Parallel stages branch
        on ``proc`` exactly like the Python backend, so every runtime's
        processor-share contract carries over.  Both pointers are
        ``restrict`` unless the chain runs the stage ``in_place`` (one
        buffer as both), where the promise would be false.
        """
        o = self.lines
        qual = "" if in_place else "restrict "
        o.append(
            f"void repro_stage{sid}(int proc, long b, "
            f"const double *{qual}srcd, double *{qual}dstd) {{"
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
    stage, which assumes ``typedef double _Complex cplx;`` (a pointer
    type for address arithmetic only: no complex value is ever formed),
    :func:`vector_prelude` and a definition of every preamble name ahead
    of it.
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
    program: SigmaProgram, codelet_max: int, in_place: Iterable[int] = ()
) -> StageSource:
    """Walk ``program`` once: its tables, codelets and stage functions
    (the stages ``in_place`` names printed for one buffer)."""
    em = _StageEmitter(codelet_max)
    in_place = set(in_place)
    for sid, stage in enumerate(program.stages):
        em.emit_stage(stage, sid, program.size, sid in in_place)
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


def in_place_able(stage: Stage) -> bool:
    """May ``stage`` read and write one buffer?

    Yes when every loop of every processor share scatters to exactly the
    rows it gathers.  A stage writes each row once (its scatters are a
    permutation), so no block gathers a row another block scatters to, and
    every loop body loads its whole block into ``tre`` / ``tim`` before its
    first store (:meth:`_StageEmitter.emit_loop`): a block overwrites only
    what it has read.
    """
    loops = [lp for _, share in stage.shares() for _, lp in share]
    return bool(loops) and all(
        np.array_equal(lp.gather, lp.scatter) for lp in loops
    )


def chain_in_place(program: SigmaProgram) -> tuple[int, ...]:
    """The stages :func:`emit_plan_chain` runs on one buffer.

    Only when two rows of the plan (``32 n`` bytes) are at least the host's
    L2 (:func:`repro.codegen.flags.l2_cache_bytes`; none when unknown): a
    row that no longer fits the L2 beside its scratch streams from memory
    at every stage, and a stage that writes where it reads moves a buffer
    fewer.  Within the L2 it is slower (2^14 × 4: +4–10 %), so there every
    stage moves data.  Stage 0 always moves data — it reads ``x``, which
    is never written — and so does every stage :func:`in_place_able`
    refuses.
    """
    l2 = flags.l2_cache_bytes()
    if l2 is None or 32 * program.size < l2:
        return ()
    return tuple(
        sid for sid, stage in enumerate(program.stages)
        if sid and in_place_able(stage)
    )


def emit_plan_chain(
    program: SigmaProgram, in_place: Iterable[int] = ()
) -> list[str]:
    """A plan's sequential driver, ``repro_plan``.

    ``int repro_plan(long b, const double *x, double *y)`` runs the plan
    over ``b`` rows **row by row**: for each row it calls
    ``repro_stage0 .. repro_stage<k-1>`` in order with a batch of one,
    every processor share of a stage in turn (the loop of
    :meth:`repro.smp.runtime.SequentialRuntime.execute`, in C), so a row
    stays in cache between its stages instead of the whole stack being
    streamed once per stage.

    The buffer schedule is one function of ``in_place``, the stages run on
    one buffer (:func:`chain_in_place`; never stage 0).  Such a stage reads
    and writes the buffer the row is in.  Every other stage *moves* the
    row: stage 0 reads the row of ``x`` in place, and the moving stages
    alternate between the row of ``y`` and a **one-row**,
    cache-line-aligned scratch ``t`` so that the last lands in ``y`` —
    ``x → t → y → t → y`` for four stages with none in place, ``x → t → t
    → y → y`` with stages 1 and 3.  The call allocates and frees the
    scratch itself, so concurrent callers share nothing, and only when two
    or more stages move data.  ``x`` is never written.  Returns non-zero,
    having run no stage, iff the scratch could not be allocated.  The
    chain only *calls* the stage functions: they stay the one
    implementation of a stage.  It declares the two libc functions it
    calls itself, ``posix_memalign`` and ``free``, so no emitted file
    includes a header.  The lines begin at :data:`CHAIN_MARKER`, and the
    next names the stages run in place, if any.
    """
    in_place = sorted(set(in_place))
    assert 0 not in in_place, "stage 0 reads x, which is never written"
    moves = len(program.stages) - len(in_place)
    scratch = moves > 1
    row = 2 * program.size  # doubles
    o = [CHAIN_MARKER]
    if in_place:
        o.append(f"/* in place (two rows >= L2): stages"
                 f" {_lane_list(in_place)} */")
    if scratch:
        o += [
            "int posix_memalign(void **, __SIZE_TYPE__, __SIZE_TYPE__);",
            "void free(void *);",
        ]
    o.append("int repro_plan(long b, const double *x, double *y) {")
    if scratch:
        o += [
            "  if (b <= 0) return 0;",
            "  void *line = 0; /* one row, on a cache line */",
            f"  if (posix_memalign(&line, {CACHE_LINE},"
            f" {row} * sizeof(double))) return 1;",
            "  double *t = line;",
        ]
    o.append(f"  for (long r = 0; r < b; ++r, x += {row}, y += {row}) {{")
    src = "x"
    for sid, stage in enumerate(program.stages):
        dst = src
        if sid not in in_place:
            moves -= 1
            dst = "y" if moves % 2 == 0 else "t"
        for proc in range(max(len(stage.procs), 1)):
            o.append(f"    repro_stage{sid}({proc}, 1, {src}, {dst});")
        src = dst
    o.append("  }")
    if scratch:
        o.append("  free(t);")
    return o + ["  return 0;", "}", ""]


@dataclass(frozen=True)
class PlanUnit:
    """One plan's C text, and what that text needs beside it to build:
    the codelets to link in and the table file to place next to it (both
    empty for the single-file form, which is complete).  ``nu`` is the
    lanes every loop of the plan carries (None when they differ): what
    :func:`repro.codegen.flags.unit_cflags` picks the unit's flags by."""

    text: str
    codelets: list[CodeletDef]
    tables: TableBlob
    nu: Optional[int]
    #: the stages the chain runs on one buffer (:func:`chain_in_place`)
    in_place: tuple[int, ...]


def emit_plan_unit(
    program: SigmaProgram, codelet_max: int, *, linked: bool
) -> PlanUnit:
    """Walk ``program`` once and assemble its whole C text.

    Header, preamble, stage functions, chain — the one place they are put
    together.  ``linked`` picks the preamble: :func:`plan_preamble`
    (tables declared, codelets bound: the unit wants ``tables`` beside it
    and ``codelets`` linked in) or the single-file form (tables as text,
    codelets ``static``: the unit is complete).  Nothing else differs.
    No form includes a header: ``cplx`` is C99's built-in complex type.
    The stages :func:`chain_in_place` picks are printed for one buffer
    and run on one by the chain.
    """
    in_place = chain_in_place(program)
    source = emit_stage_functions(program, codelet_max, in_place)
    if linked:
        codelets, tables = source.codelets, TableBlob(source.tables)
        preamble = plan_preamble(tables, source)
    else:
        codelets, tables = [], TableBlob([])
        preamble = [it.to_c() for it in source.preamble] + [""]
    widths = {lp.nu for st in program.stages for lp in st.loops}
    header = [
        "/* Generated by repro: compiled-codelet execution backend */",
        f"/* size={program.size} stages={len(program.stages)}"
        f" barriers={program.barrier_count()}"
        f" codelet_max={codelet_max} */",
        "typedef double _Complex cplx;",
        *vector_prelude(widths | {2}),
        "",
    ]
    text = "\n".join(header + preamble + source.lines) + "\n".join(
        emit_plan_chain(program, in_place)
    )
    nu = next(iter(widths)) if len(widths) == 1 else None
    return PlanUnit(text, codelets, tables, nu, in_place)


__all__ = [
    "CACHE_LINE",
    "CHAIN_MARKER",
    "CODELET_STEM",
    "CodeletDef",
    "PlanUnit",
    "StageSource",
    "TABLES_MACRO",
    "Table",
    "TableBlob",
    "chain_in_place",
    "codelet_formula",
    "emit_plan_chain",
    "emit_plan_unit",
    "emit_stage_functions",
    "in_place_able",
    "plan_preamble",
]
