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
* :class:`Codelet` schedules the DAG into SSA statements and emits them as
  a Python function (the reference the tests compare against) or a C
  function of ν lanes over split re/im planes (every ν, one included);
* op counts come out of the DAG, so tests can verify e.g. that the
  generated radix-2 DFT_8 costs 78 real flops — far below both the 5n log n
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
        common subexpressions, then topologically schedules the DAG.
        """
        pool = NodePool()
        xs = [pool.var(i) for i in range(expr.cols)]
        outputs = symbolic_apply(expr, xs, pool)
        codelet = cls(name=name, size=expr.rows, outputs=outputs)
        codelet._schedule()
        return codelet

    def _schedule(self) -> None:
        """Topological order over the DAG; each op node becomes one temp."""
        seen: dict = {}
        order: list[Node] = []

        def visit(node: Node) -> None:
            if id(node) in seen or node.op in ("var", "const"):
                if node.op in ("var", "const"):
                    seen[id(node)] = True
                return
            seen[id(node)] = True
            for a in node.args:
                if isinstance(a, Node):
                    visit(a)
            order.append(node)

        for out in self.outputs:
            visit(out)
        self.schedule = [(f"t{i}", node) for i, node in enumerate(order)]
        self._names = {id(node): nm for nm, node in self.schedule}

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
        """Real-flop estimate (cadd=2, cmul=6, neg free)."""
        c = self.op_counts()
        return 2 * (c["add"] + c["sub"]) + 6 * c["mul"]

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
        """The codelet as Python source: ``def name(x, y)`` straight-line."""
        lines = [
            f"def {self.name}(x, y):",
            f"    # unrolled size-{self.size} codelet: "
            f"{self.complex_ops()} complex ops ({self.real_flops()} flops)",
        ]
        lines += [self._stmt(nm, node) for nm, node in self.schedule]
        for i, out in enumerate(self.outputs):
            lines.append(f"    y[{i}] = {self._ref(out)}")
        return "\n".join(lines) + "\n"

    # -- C emission: ν lanes over split re/im planes ----------------------------

    def _ref_vec(self, node: Node, nu: int) -> tuple[str, str]:
        """(re, im) C expressions for a node inside the lane loop."""
        if node.op == "var":
            i = node.args[0]
            return f"xre[{i * nu}+l]", f"xim[{i * nu}+l]"
        if node.op == "const":
            v = node.value
            return repr(float(v.real)), repr(float(v.imag))
        nm = self._names[id(node)]
        return f"{nm}re", f"{nm}im"

    def _stmt_vec(self, name: str, node: Node, nu: int) -> list[str]:
        """One scheduled complex op as split re/im scalar statements.

        Emitted inside the ν-lane loop, so every statement is one vector
        instruction after auto-vectorization.  Constant multiplies
        specialize: pure-real and pure-imaginary twiddle factors cost two
        real multiplies instead of four.
        """
        refs = [self._ref_vec(a, nu) for a in node.args]
        if node.op == "add":
            (ar, ai), (br, bi) = refs
            return [f"      const double {name}re = {ar} + {br}, "
                    f"{name}im = {ai} + {bi};"]
        if node.op == "sub":
            (ar, ai), (br, bi) = refs
            return [f"      const double {name}re = {ar} - {br}, "
                    f"{name}im = {ai} - {bi};"]
        if node.op == "neg":
            ((ar, ai),) = refs
            return [f"      const double {name}re = -{ar}, "
                    f"{name}im = -{ai};"]
        # mul: constants are normalized to the left by Node.mul
        a, b = node.args
        if a.is_const():
            cr, ci = float(a.value.real), float(a.value.imag)
            br, bi = self._ref_vec(b, nu)
            if ci == 0.0:
                return [f"      const double {name}re = ({cr!r})*{br}, "
                        f"{name}im = ({cr!r})*{bi};"]
            if cr == 0.0:
                return [f"      const double {name}re = -({ci!r})*{bi}, "
                        f"{name}im = ({ci!r})*{br};"]
            return [f"      const double {name}re = ({cr!r})*{br} - "
                    f"({ci!r})*{bi},"
                    f" {name}im = ({cr!r})*{bi} + ({ci!r})*{br};"]
        (ar, ai), (br, bi) = refs
        return [f"      const double {name}re = {ar}*{br} - {ai}*{bi}, "
                f"{name}im = {ar}*{bi} + {ai}*{br};"]

    def to_c_vec(self, nu: int, linkage: str = "static") -> str:
        """The codelet as C99 — the one C printer: a ν-lane function over
        split re/im planes (``nu = 1``, a scalar codelet, is one lane).

        Layout: ``x``/``y`` hold ``size`` elements of ``nu`` lanes each,
        element-major (``x[u][l]`` at index ``u*nu + l``).  The lane loop
        is the vectorization axis: its body is branch-free straight-line
        code with unit-stride accesses, exactly what gcc/clang's loop
        vectorizer turns into ν-wide SIMD — the :class:`VecTensor`
        semantics (one vector instruction per scalar op of the child).
        """
        lines = [
            f"{linkage} void {self.name}("
            "const double *restrict xre, const double *restrict xim, "
            "double *restrict yre, double *restrict yim) {",
            f"  /* unrolled size-{self.size} codelet x {nu} lanes: "
            f"{self.complex_ops()} complex vector ops */",
            f"  for (int l = 0; l < {nu}; ++l) {{",
        ]
        for nm, node in self.schedule:
            lines += self._stmt_vec(nm, node, nu)
        for i, out in enumerate(self.outputs):
            orr, oi = self._ref_vec(out, nu)
            lines.append(f"      yre[{i * nu}+l] = {orr}; "
                         f"yim[{i * nu}+l] = {oi};")
        lines.append("  }")
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


def dft_codelet(n: int, name: Optional[str] = None) -> Codelet:
    """Unrolled codelet for ``DFT_n`` from a fully expanded formula."""
    from ..rewrite.breakdown import expand_dft
    from ..rewrite.breakdown import factor_pairs

    strategy = "radix2" if n & (n - 1) == 0 else "balanced"
    expr = expand_dft(DFT(n), strategy) if factor_pairs(n) else DFT(n)
    return Codelet.from_formula(expr, name or f"dft_{n}")
