"""Structural checker for the paper's Definition 1.

A formula is *fully optimized* for ``smp(p, mu)`` when it is load-balanced
and avoids false sharing.  Definition 1 makes this a structural property:

* the tagged parallel constructs ``I_p (x)|| A``, ``(+)||_{i<p} A_i`` (with
  ``A, A_i`` of size a multiple of ``mu``) and ``P (x)~ I_mu`` are fully
  optimized, and
* ``I_m (x) A`` and products ``A B`` of fully optimized formulas are fully
  optimized.

The checker reports *why* a formula fails, which makes rewriting bugs easy to
localize; :mod:`repro.check` complements the structural proof with a
dynamic replay of the lowered plan (races, false sharing at line
granularity, load balance).
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import Compose, Expr, Tensor
from .matrices import I
from .parallel import LinePerm, ParDirectSum, ParTensor, SMP


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a Definition 1 check."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def is_parallel_construct(expr: Expr, p: int, mu: int) -> CheckResult:
    """Is ``expr`` one of the tagged constructs (4), sized for ``(p, mu)``?"""
    if isinstance(expr, ParTensor):
        if expr.p != p:
            return CheckResult(False, f"ParTensor has p={expr.p}, machine has p={p}")
        if expr.child.rows % mu or expr.child.cols % mu:
            return CheckResult(
                False,
                f"ParTensor block size {expr.child.rows} is not a multiple of mu={mu}",
            )
        return CheckResult(True)
    if isinstance(expr, ParDirectSum):
        if expr.p != p:
            return CheckResult(
                False, f"ParDirectSum has {expr.p} blocks, machine has p={p}"
            )
        b = expr.blocks[0]
        if b.rows % mu or b.cols % mu:
            return CheckResult(
                False,
                f"ParDirectSum block size {b.rows} is not a multiple of mu={mu}",
            )
        return CheckResult(True)
    if isinstance(expr, LinePerm):
        if expr.mu % mu:
            return CheckResult(
                False,
                f"LinePerm granularity {expr.mu} is not a multiple of mu={mu}",
            )
        return CheckResult(True)
    return CheckResult(False, f"{type(expr).__name__} is not a parallel construct")


def check_fully_optimized(expr: Expr, p: int, mu: int) -> CheckResult:
    """Definition 1: load-balanced *and* free of false sharing, structurally."""
    if isinstance(expr, SMP):
        return CheckResult(False, "formula still carries an undischarged smp() tag")
    par = is_parallel_construct(expr, p, mu)
    if par:
        # Nested parallel constructs inside a block would over-subscribe.
        for node in expr.children:
            for sub in node.preorder():
                if isinstance(sub, (ParTensor, ParDirectSum, SMP)):
                    return CheckResult(
                        False,
                        "nested parallel construct "
                        f"{type(sub).__name__} inside a parallel block",
                    )
        return CheckResult(True)
    if isinstance(expr, Compose):
        for f in expr.factors:
            sub = check_fully_optimized(f, p, mu)
            if not sub:
                return CheckResult(False, f"product factor not optimized: {sub.reason}")
        return CheckResult(True)
    if isinstance(expr, Tensor):
        # Form (5): I_m (x) A with A fully optimized.
        head = expr.factors[0]
        if isinstance(head, I):
            rest = expr.rebuild(*expr.factors[1:])
            sub = check_fully_optimized(rest, p, mu)
            if sub:
                return CheckResult(True)
            return CheckResult(
                False, f"I_m (x) A: inner formula not optimized: {sub.reason}"
            )
        return CheckResult(
            False, f"tensor product with non-identity head {type(head).__name__}"
        )
    if isinstance(expr, I):
        # The identity is trivially balanced (no work, no memory traffic).
        return CheckResult(True)
    return CheckResult(
        False,
        f"{type(expr).__name__} is neither a parallel construct nor an "
        "allowed combination (Definition 1)",
    )


def is_load_balanced(expr: Expr, p: int, mu: int) -> bool:
    """Definition 1 load-balance predicate (structural)."""
    return bool(check_fully_optimized(expr, p, mu))


def is_fully_optimized(expr: Expr, p: int, mu: int) -> bool:
    """True iff ``expr`` satisfies Definition 1 for ``smp(p, mu)``."""
    return bool(check_fully_optimized(expr, p, mu))


def has_smp_tags(expr: Expr) -> bool:
    """True iff any ``smp()`` tag remains in the tree."""
    return expr.contains(lambda e: isinstance(e, SMP))


def parallel_region_count(expr: Expr) -> int:
    """Number of parallel constructs (== barrier/fork points) in the formula."""
    return sum(
        1
        for e in expr.preorder()
        if isinstance(e, (ParTensor, ParDirectSum))
    )
