"""Pattern-matching combinators for SPL rewriting rules.

Rules are written declaratively: a *pattern* describes the shape of the
left-hand side and captures subexpressions and integer parameters into a
bindings dictionary; a builder function produces the right-hand side from the
bindings.  The combinators here mirror what the rules of the paper need:

* ``W("A")``              -- wildcard, captures any expression as ``A``
* ``iv("n")``             -- integer variable, captures ``n`` (with
  consistency across multiple occurrences)
* ``PI(iv("n"))``         -- identity ``I_n``
* ``PDFT(iv("n"))``       -- the DFT symbol
* ``PL(iv("mn"), iv("m"))`` -- stride permutation
* ``PTensor(p, q)``, ``PCompose(p, q)`` -- binary structural matches that
  also match k-ary flattened nodes by trying every binary split
* ``PSMP(iv("p"), iv("mu"), inner)`` -- the smp() tag

Matching is nondeterministic: ``match_all`` yields every consistent binding,
which the engine and the search module use to enumerate rewrite alternatives.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ..spl.expr import Compose, DirectSum, Expr, Tensor
from ..spl.matrices import DFT, Diag, DiagFunc, I, L, Perm, Twiddle
from ..spl.parallel import LinePerm, SMP

Bindings = dict


class IntVar:
    """An integer variable in a pattern (created via :func:`iv`)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"iv({self.name!r})"


def iv(name: str) -> IntVar:
    """Shorthand constructor for an integer pattern variable."""
    return IntVar(name)


def _bind_int(spec, value: int, b: Bindings) -> Optional[Bindings]:
    """Unify an int spec (literal int or IntVar) with a concrete value."""
    if isinstance(spec, IntVar):
        if spec.name in b:
            return b if b[spec.name] == value else None
        out = dict(b)
        out[spec.name] = value
        return out
    return b if spec == value else None


class Pattern:
    """Base class for all patterns."""

    def match_all(self, expr: Expr, b: Bindings) -> Iterator[Bindings]:
        """Yield every bindings extension under which ``expr`` matches."""
        raise NotImplementedError

    def match(self, expr: Expr, b: Optional[Bindings] = None) -> Optional[Bindings]:
        """First match or ``None``."""
        for out in self.match_all(expr, b or {}):
            return out
        return None


class W(Pattern):
    """Wildcard: matches any expression, captures it under ``name``.

    An optional ``guard`` predicate restricts what the wildcard accepts.
    """

    def __init__(self, name: str, guard: Optional[Callable[[Expr], bool]] = None):
        self.name = name
        self.guard = guard

    def match_all(self, expr: Expr, b: Bindings) -> Iterator[Bindings]:
        if self.guard is not None and not self.guard(expr):
            return
        if self.name in b:
            if b[self.name] == expr:
                yield b
            return
        out = dict(b)
        out[self.name] = expr
        yield out


class PI(Pattern):
    """Matches the identity ``I_n``."""

    def __init__(self, n):
        self.n = n

    def match_all(self, expr: Expr, b: Bindings) -> Iterator[Bindings]:
        if isinstance(expr, I):
            out = _bind_int(self.n, expr.n, b)
            if out is not None:
                yield out


class PDFT(Pattern):
    """Matches the DFT symbol ``DFT_n``."""

    def __init__(self, n):
        self.n = n

    def match_all(self, expr: Expr, b: Bindings) -> Iterator[Bindings]:
        if isinstance(expr, DFT):
            out = _bind_int(self.n, expr.n, b)
            if out is not None:
                yield out


class PL(Pattern):
    """Matches the stride permutation ``L^{size}_{stride}``."""

    def __init__(self, size, stride):
        self.size = size
        self.stride = stride

    def match_all(self, expr: Expr, b: Bindings) -> Iterator[Bindings]:
        if isinstance(expr, L):
            out = _bind_int(self.size, expr.mn, b)
            if out is None:
                return
            out = _bind_int(self.stride, expr.m, out)
            if out is not None:
                yield out


class PDiag(Pattern):
    """Matches any diagonal matrix (Diag, DiagFunc or Twiddle), captured."""

    def __init__(self, name: str):
        self.name = name

    def match_all(self, expr: Expr, b: Bindings) -> Iterator[Bindings]:
        if isinstance(expr, (Diag, DiagFunc, Twiddle)):
            out = dict(b)
            out[self.name] = expr
            yield out


def is_permutation_expr(expr: Expr) -> bool:
    """True for expressions that are structurally permutation matrices.

    Covers the cases the rules produce: ``L``, explicit ``Perm``, identities,
    line permutations, and tensor products / compositions / direct sums of
    permutations.
    """
    if isinstance(expr, (L, Perm, I, LinePerm)):
        return True
    if isinstance(expr, (Tensor, Compose, DirectSum)):
        return all(is_permutation_expr(c) for c in expr.children)
    return False


class PPerm(Pattern):
    """Matches any (composite) permutation expression, captured by name."""

    def __init__(self, name: str):
        self.name = name

    def match_all(self, expr: Expr, b: Bindings) -> Iterator[Bindings]:
        if is_permutation_expr(expr):
            out = dict(b)
            out[self.name] = expr
            yield out


class PTensor(Pattern):
    """Binary tensor-product pattern ``left (x) right``.

    A flattened k-ary :class:`Tensor` is matched by trying every binary
    regrouping ``(f_0..f_i) (x) (f_{i+1}..f_{k-1})``.
    """

    def __init__(self, left: Pattern, right: Pattern):
        self.left = left
        self.right = right

    def match_all(self, expr: Expr, b: Bindings) -> Iterator[Bindings]:
        if not isinstance(expr, Tensor):
            return
        fs = expr.factors
        for split in range(1, len(fs)):
            lhs = fs[0] if split == 1 else Tensor(*fs[:split])
            rhs = fs[split] if split == len(fs) - 1 else Tensor(*fs[split:])
            for b1 in self.left.match_all(lhs, b):
                yield from self.right.match_all(rhs, b1)


class PCompose(Pattern):
    """Binary product pattern ``left * right`` with k-ary regrouping."""

    def __init__(self, left: Pattern, right: Pattern):
        self.left = left
        self.right = right

    def match_all(self, expr: Expr, b: Bindings) -> Iterator[Bindings]:
        if not isinstance(expr, Compose):
            return
        fs = expr.factors
        for split in range(1, len(fs)):
            lhs = fs[0] if split == 1 else Compose(*fs[:split])
            rhs = fs[split] if split == len(fs) - 1 else Compose(*fs[split:])
            for b1 in self.left.match_all(lhs, b):
                yield from self.right.match_all(rhs, b1)


class PSMP(Pattern):
    """Matches the tag ``inner |_{smp(p, mu)}``."""

    def __init__(self, p, mu, inner: Pattern):
        self.p = p
        self.mu = mu
        self.inner = inner

    def match_all(self, expr: Expr, b: Bindings) -> Iterator[Bindings]:
        if not isinstance(expr, SMP):
            return
        out = _bind_int(self.p, expr.p, b)
        if out is None:
            return
        out = _bind_int(self.mu, expr.mu, out)
        if out is None:
            return
        yield from self.inner.match_all(expr.child, out)


class POr(Pattern):
    """Alternation: matches if any alternative matches (in order)."""

    def __init__(self, *alternatives: Pattern):
        self.alternatives = alternatives

    def match_all(self, expr: Expr, b: Bindings) -> Iterator[Bindings]:
        for alt in self.alternatives:
            yield from alt.match_all(expr, b)


class PGuard(Pattern):
    """Wraps a pattern with a post-condition on the bindings."""

    def __init__(self, inner: Pattern, cond: Callable[[Bindings], bool]):
        self.inner = inner
        self.cond = cond

    def match_all(self, expr: Expr, b: Bindings) -> Iterator[Bindings]:
        for out in self.inner.match_all(expr, b):
            if self.cond(out):
                yield out
