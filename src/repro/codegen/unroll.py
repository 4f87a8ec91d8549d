"""Unrolled codelet generation: formulas -> straight-line code.

Spiral's implementation level does not interpret small transforms — it
unrolls them into straight-line code and optimizes it (Figure 1's "code
optimization": constant folding, strength reduction, common-subexpression
elimination; paper Section 2.3 and ref [31]).  This module reproduces that
stage:

* :func:`symbolic_apply` evaluates an SPL formula over *symbolic* scalars,
  producing an expression DAG with algebraic simplification built into the
  constructors (x+0, 1*x, (-1)*x, constant folding) and hash-consing CSE,
  both owned by a per-codelet :class:`NodePool`;
* :class:`Codelet` schedules the DAG into SSA statements in the order it
  was built — each sub-transform finished before the next starts, the
  genfft-style order that keeps live values within the register file —
  and emits them as a Python function (the reference the tests compare
  against) or a C function of explicit ν-vector statements over split
  re/im input planes (every ν, one included; never a lane loop left to
  an auto-vectorizer) that stores each output, interleaved, at a
  caller's address and stride right after the statement that defines it;
* op counts come out of the DAG, so tests can verify e.g. that the
  generated radix-2 DFT_8 executes 60 real flops (52 adds and 8 muls: a
  multiply by ±i is a swap and a negation) — far below both the 5n log n
  pseudo count (120) and the O(n^2) dense definition (~500).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..spl.expr import COMPLEX, Compose, DirectSum, Expr, Tensor
from ..spl.matrices import DFT, Diag, DiagFunc, F2, I, L, Perm, Twiddle
from ..spl.parallel import LinePerm, ParDirectSum, ParTensor, SMP

_EPS = 1e-12

#: what a C codelet is defined with: every statement is already ν lanes
#: wide, and at ν = 1 gcc's SLP vectorizer would pack each output's re/im
#: pair and move which product a contracted multiply-add rounds — the bits
#: of every one-lane plan (clang ignores the attribute)
_NO_SLP = '__attribute__((optimize("no-tree-slp-vectorize")))'


class Node:
    """A node of the scalar expression DAG (hash-consed by its pool)."""

    __slots__ = ("op", "args", "value", "serial")

    def __init__(self, op: str, args: tuple, value: Optional[complex],
                 serial: int):
        self.op = op
        self.args = args
        self.value = value
        self.serial = serial

    def is_const(self) -> bool:
        """True when this node is a literal constant."""
        return self.op == "const"


class NodePool:
    """One expression DAG's hash-consing pool and node constructors.

    A pool is the unit of CSE and of serial numbering (which canonicalizes
    commutative operands, so it shapes the emitted text): every codelet
    builds its DAG in a pool of its own, which keeps concurrent emissions
    — a request thread and a prewarm thread planning different keys —
    from perturbing each other's output.  The constructors simplify
    algebraically as they intern.
    """

    def __init__(self) -> None:
        self._nodes: dict = {}

    def _intern(self, op, args, value=None) -> Node:
        key = (op, args, None if value is None else complex(value))
        node = self._nodes.get(key)
        if node is None:
            node = Node(op, args, value, len(self._nodes) + 1)
            self._nodes[key] = node
        return node

    def const(self, value: complex) -> Node:
        """A constant node; near-zero real/imag parts snap to exact 0."""
        value = complex(value)
        if abs(value.real) < _EPS:
            value = complex(0.0, value.imag)
        if abs(value.imag) < _EPS:
            value = complex(value.real, 0.0)
        return self._intern("const", (), value)

    def var(self, index: int) -> Node:
        """The ``index``-th input variable (``x[index]`` in emitted code)."""
        return self._intern("var", (index,))

    def add(self, a: Node, b: Node) -> Node:
        """``a + b``, folding constants and eliding +0 (canonical order)."""
        if a.op == "const" and b.op == "const":
            return self.const(a.value + b.value)
        if a.op == "const" and abs(a.value) < _EPS:
            return b
        if b.op == "const" and abs(b.value) < _EPS:
            return a
        if a.serial > b.serial:  # canonical order for CSE of a+b vs b+a
            a, b = b, a
        return self._intern("add", (a, b))

    def sub(self, a: Node, b: Node) -> Node:
        """``a - b``, folding constants, -0, and ``a - a -> 0``."""
        if a.op == "const" and b.op == "const":
            return self.const(a.value - b.value)
        if b.op == "const" and abs(b.value) < _EPS:
            return a
        if a is b:
            return self.const(0.0)
        return self._intern("sub", (a, b))

    def mul(self, a: Node, b: Node) -> Node:
        """``a * b``; ±1/0 multiplies vanish, constants normalize left."""
        if a.op == "const" and b.op == "const":
            return self.const(a.value * b.value)
        # normalize constants to the left
        if b.op == "const":
            a, b = b, a
        if a.op == "const":
            if abs(a.value) < _EPS:
                return self.const(0.0)
            if abs(a.value - 1.0) < _EPS:
                return b
            if abs(a.value + 1.0) < _EPS:
                return self.neg(b)
        return self._intern("mul", (a, b))

    def neg(self, a: Node) -> Node:
        """``-a``, folding constants and double negation."""
        if a.op == "const":
            return self.const(-a.value)
        if a.op == "neg":
            return a.args[0]
        return self._intern("neg", (a,))


def symbolic_apply(expr: Expr, xs: list[Node], pool: NodePool) -> list[Node]:
    """Evaluate ``y = expr @ xs`` over symbolic scalars interned in ``pool``."""
    if len(xs) != expr.cols:
        raise ValueError(f"expected {expr.cols} inputs, got {len(xs)}")
    if isinstance(expr, (I,)):
        return list(xs)
    if isinstance(expr, F2):
        return [pool.add(xs[0], xs[1]), pool.sub(xs[0], xs[1])]
    if isinstance(expr, SMP):
        return symbolic_apply(expr.child, xs, pool)
    if isinstance(expr, (Diag, DiagFunc, Twiddle)):
        vals = np.asarray(expr.values, dtype=COMPLEX)
        return [pool.mul(pool.const(v), x) for v, x in zip(vals, xs)]
    if isinstance(expr, (L, Perm, LinePerm)):
        from ..sigma.index_map import source_table

        table = source_table(expr)
        return [xs[j] for j in table]
    if isinstance(expr, Compose):
        out = list(xs)
        for f in reversed(expr.factors):
            out = symbolic_apply(f, out, pool)
        return out
    if isinstance(expr, Tensor):
        return _symbolic_tensor(expr.factors, xs, pool)
    if isinstance(expr, (DirectSum, ParDirectSum)):
        out: list[Node] = []
        off = 0
        for b in expr.children:
            out.extend(symbolic_apply(b, xs[off : off + b.cols], pool))
            off += b.cols
        return out
    if isinstance(expr, ParTensor):
        return _symbolic_tensor((I(expr.p), expr.child), xs, pool)
    # DFT (callers should pre-expand larger sizes) and any other square
    # construct: the dense matrix definition
    return _symbolic_dense(expr.to_matrix(), xs, pool)


def _symbolic_tensor(factors, xs: list[Node], pool: NodePool) -> list[Node]:
    if len(factors) == 1:
        return symbolic_apply(factors[0], xs, pool)
    head, rest = factors[0], factors[1:]
    rest_cols = 1
    for f in rest:
        rest_cols *= f.cols
    # apply the tail over contiguous blocks
    mid: list[Node] = []
    for i in range(head.cols):
        mid.extend(
            _symbolic_tensor(
                rest, xs[i * rest_cols : (i + 1) * rest_cols], pool
            )
        )
    # apply head over strided slices
    rest_rows = len(mid) // head.cols
    out: list[Optional[Node]] = [None] * (head.rows * rest_rows)
    for j in range(rest_rows):
        col = [mid[i * rest_rows + j] for i in range(head.cols)]
        res = symbolic_apply(head, col, pool)
        for i, node in enumerate(res):
            out[i * rest_rows + j] = node
    return out  # type: ignore[return-value]


def _symbolic_dense(
    mat: np.ndarray, xs: list[Node], pool: NodePool
) -> list[Node]:
    out = []
    for row in mat:
        acc = pool.const(0.0)
        for coeff, x in zip(row, xs):
            if abs(coeff) < _EPS:
                continue
            acc = pool.add(acc, pool.mul(pool.const(coeff), x))
        out.append(acc)
    return out


@dataclass
class Codelet:
    """Straight-line code for a fixed-size transform."""

    name: str
    size: int
    outputs: list[Node]
    #: SSA schedule: list of (temp_id, node); inputs/consts are not listed
    schedule: list = field(default_factory=list)
    _names: dict = field(default_factory=dict)

    @classmethod
    def from_formula(cls, expr: Expr, name: str = "codelet") -> "Codelet":
        """Symbolically execute ``expr`` into a scheduled SSA codelet.

        Runs the formula over symbolic inputs (one :class:`Node` per
        column), letting the constructors fold constants and hash-cons
        common subexpressions, then schedules the DAG in the order it was
        built.
        """
        pool = NodePool()
        xs = [pool.var(i) for i in range(expr.cols)]
        outputs = symbolic_apply(expr, xs, pool)
        codelet = cls(name=name, size=expr.rows, outputs=outputs)
        codelet._schedule()
        return codelet

    def _schedule(self) -> None:
        """Every op node the outputs reach, in the order it was built.

        A node's serial is its rank in :func:`symbolic_apply`'s walk, and
        its arguments were built before it, so serial order is a
        topological order — the one that finishes each sub-transform
        before the next starts, which keeps the values live at any point
        few enough for the register file.  Each op node becomes one temp.
        """
        reached: dict = {}
        todo = list(self.outputs)
        while todo:
            node = todo.pop()
            if node.op in ("var", "const") or id(node) in reached:
                continue
            reached[id(node)] = node
            todo.extend(node.args)
        order = sorted(reached.values(), key=lambda node: node.serial)
        self.schedule = [(f"t{i}", node) for i, node in enumerate(order)]
        self._names = {id(node): nm for nm, node in self.schedule}

    def _stores(self) -> tuple[list[int], dict]:
        """``(first, after)``: the outputs no statement defines (an input
        or a constant, stored ahead of every statement), and the outputs
        each scheduled statement defines, by temp name."""
        first: list[int] = []
        after: dict = {}
        for i, out in enumerate(self.outputs):
            name = self._names.get(id(out))
            if name is None:
                first.append(i)
            else:
                after.setdefault(name, []).append(i)
        return first, after

    # -- accounting -----------------------------------------------------------

    def op_counts(self) -> dict:
        """Scheduled complex-op counts keyed ``add``/``sub``/``mul``/``neg``."""
        counts = {"add": 0, "sub": 0, "mul": 0, "neg": 0}
        for _, node in self.schedule:
            if node.op in counts:
                counts[node.op] += 1
        return counts

    def complex_ops(self) -> int:
        """Total arithmetic complex ops (negations are free)."""
        c = self.op_counts()
        return c["add"] + c["sub"] + c["mul"]

    def real_flops(self) -> int:
        """The real flops the printed code executes.

        A complex add or sub is 2; a multiply is what :meth:`_stmt_vec`
        prints for it: 4 muls and 2 adds by a general constant (or a
        variable), 2 muls by a purely real or purely imaginary one, and
        nothing by ±i, a swap and a negation.  Negations are free.
        """
        flops = 0
        for _, node in self.schedule:
            if node.op in ("add", "sub"):
                flops += 2
            elif node.op == "mul":
                c = node.args[0].value if node.args[0].is_const() else None
                if c is None or (c.real and c.imag):
                    flops += 6
                elif c.real or abs(c.imag) != 1.0:
                    flops += 2
        return flops

    # -- emission ---------------------------------------------------------------

    def _ref(self, node: Node) -> str:
        if node.op == "var":
            return f"x[{node.args[0]}]"
        if node.op == "const":
            v = node.value
            return f"({v.real!r}{v.imag:+}j)" if v.imag else f"{v.real!r}"
        return self._names[id(node)]

    def _stmt(self, name: str, node: Node) -> str:
        a = [self._ref(arg) for arg in node.args]
        rhs = {
            "add": lambda: f"{a[0]} + {a[1]}",
            "sub": lambda: f"{a[0]} - {a[1]}",
            "mul": lambda: f"{a[0]} * {a[1]}",
            "neg": lambda: f"-{a[0]}",
        }[node.op]()
        return f"    {name} = {rhs}"

    def to_python(self) -> str:
        """The codelet as Python source: ``def name(x, y)`` straight-line,
        in the schedule's order, each output stored after its statement."""
        first, after = self._stores()
        lines = [
            f"def {self.name}(x, y):",
            f"    # unrolled size-{self.size} codelet: "
            f"{self.complex_ops()} complex ops ({self.real_flops()} flops)",
        ]
        lines += [f"    y[{i}] = {self._ref(self.outputs[i])}" for i in first]
        for nm, node in self.schedule:
            lines.append(self._stmt(nm, node))
            lines += [f"    y[{i}] = {nm}" for i in after.get(nm, ())]
        return "\n".join(lines) + "\n"

    # -- C emission: ν-vectors over split re/im planes --------------------------

    def _ref_vec(self, node: Node, nu: int) -> tuple[str, str]:
        """(re, im) C expressions for a node: an input plane's vector, a
        constant (a ν-vector of it), or a temp."""
        if node.op == "var":
            i = node.args[0]
            return f"xr[{i}]", f"xi[{i}]"
        if node.op == "const":
            re, im = repr(float(node.value.real)), repr(float(node.value.imag))
            if nu == 1:
                return re, im
            return (f"(v{nu}){{{', '.join([re] * nu)}}}",
                    f"(v{nu}){{{', '.join([im] * nu)}}}")
        nm = self._names[id(node)]
        return f"{nm}re", f"{nm}im"

    def _stmt_vec(self, name: str, node: Node, nu: int) -> str:
        """One scheduled complex op as split re/im ν-vector statements.

        Constant multiplies specialize: a purely real or purely imaginary
        factor costs two real multiplies instead of four, and ±i none — a
        swap and a negation.
        """
        t = "double" if nu == 1 else f"v{nu}"
        refs = [self._ref_vec(a, nu) for a in node.args]
        if node.op in ("add", "sub"):
            (ar, ai), (br, bi) = refs
            op = "+" if node.op == "add" else "-"
            re, im = f"{ar} {op} {br}", f"{ai} {op} {bi}"
        elif node.op == "neg":
            ((ar, ai),) = refs
            re, im = f"-{ar}", f"-{ai}"
        elif node.args[0].is_const():  # constants are normalized left
            c = complex(node.args[0].value)
            cr, ci = c.real, c.imag
            br, bi = refs[1]
            if ci == 0.0:
                re, im = f"({cr!r})*{br}", f"({cr!r})*{bi}"
            elif cr == 0.0 and abs(ci) == 1.0:
                re, im = (f"-{bi}", br) if ci > 0 else (bi, f"-{br}")
            elif cr == 0.0:
                re, im = f"-({ci!r})*{bi}", f"({ci!r})*{br}"
            else:
                re = f"({cr!r})*{br} - ({ci!r})*{bi}"
                im = f"({cr!r})*{bi} + ({ci!r})*{br}"
        else:
            (ar, ai), (br, bi) = refs
            re, im = f"{ar}*{br} - {ai}*{bi}", f"{ar}*{bi} + {ai}*{br}"
        return f"  const {t} {name}re = {re}, {name}im = {im};"

    def _store_vec(self, i: int, node: Node, nu: int) -> str:
        """Output ``i`` stored as ν interleaved re/im pairs at ``y + i*ys``."""
        re, im = self._ref_vec(node, nu)
        if nu == 1:
            return f"  y[{i}*ys] = {re}; y[{i}*ys + 1] = {im};"
        return "  " + interleaved_store(nu, f"y + {i}*ys", re, im)

    def to_c_vec(self, nu: int, linkage: str = "static") -> str:
        """The codelet as C99 — the one C printer, for every ν (``nu = 1``,
        a scalar codelet, is one lane).

        ``xre`` / ``xim`` are the input planes, ``size`` ν-vectors each
        (element ``u`` of every lane at ``[u*nu, u*nu + nu)``, the stage
        text's ``tre`` / ``tim``).  The body is one explicit ``v<ν>``
        statement (``double`` at ν = 1) per scheduled op, in the
        schedule's order: no lane loop is left to an auto-vectorizer.
        Output ``i`` is stored, as ν interleaved re/im pairs at ``y +
        i*ys`` (``ys`` in doubles), right after the statement that
        defines it — a stage passes its scatter address and stride, or a
        local block.  The text assumes :func:`repro.codegen.c_emit.
        vector_prelude` of ``nu`` ahead of it.
        """
        t = "double" if nu == 1 else f"v{nu}"
        first, after = self._stores()
        lines = [
            f"{linkage} {_NO_SLP} void {self.name}("
            "const double *restrict xre, const double *restrict xim, "
            "double *restrict y, long ys) {",
            f"  /* unrolled size-{self.size} codelet x {nu} lanes: "
            f"{self.complex_ops()} complex vector ops */",
            f"  const {t} *xr = (const {t} *)xre, *xi = (const {t} *)xim;",
        ]
        lines += [self._store_vec(i, self.outputs[i], nu) for i in first]
        for nm, node in self.schedule:
            lines.append(self._stmt_vec(nm, node, nu))
            lines += [
                self._store_vec(i, node, nu) for i in after.get(nm, ())
            ]
        lines.append("}")
        return "\n".join(lines) + "\n"

    def compile_python(self):
        """Exec the Python emission; returns a callable f(x) -> y."""
        ns: dict = {}
        exec(self.to_python(), ns)
        fn = ns[self.name]

        def apply(x: np.ndarray) -> np.ndarray:
            y = np.empty(self.size, dtype=COMPLEX)
            fn(np.asarray(x, dtype=COMPLEX), y)
            return y

        return apply


def interleaved_store(nu: int, at: str, re: str, im: str) -> str:
    """C text storing ν-vectors ``re`` / ``im`` as ν interleaved re/im
    pairs at ``at``, a ``double *`` expression: two shuffles and two
    stores through ``v<ν>u`` (ν >= 2; :func:`repro.codegen.c_emit.
    vector_prelude` declares both)."""
    half = nu // 2
    lo, hi = (
        ", ".join(str(x) for l in part for x in (l, nu + l))
        for part in (range(half), range(half, nu))
    )
    return (
        f"*(v{nu}u *)({at}) = SHUF({nu}, {re}, {im}, {lo});"
        f" *(v{nu}u *)({at} + {nu}) = SHUF({nu}, {re}, {im}, {hi});"
    )


def dft_codelet(n: int, name: Optional[str] = None) -> Codelet:
    """Unrolled codelet for ``DFT_n`` from a fully expanded formula."""
    from ..rewrite.breakdown import expand_dft
    from ..rewrite.breakdown import factor_pairs

    strategy = "radix2" if n & (n - 1) == 0 else "balanced"
    expr = expand_dft(DFT(n), strategy) if factor_pairs(n) else DFT(n)
    return Codelet.from_formula(expr, name or f"dft_{n}")
