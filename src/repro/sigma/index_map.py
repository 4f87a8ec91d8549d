"""Index-map algebra for Sigma-SPL loop merging.

Spiral's loop merging (Franchetti/Voronenko/Pueschel, PLDI'05 — the paper's
ref [11]) folds permutations and diagonals into the gather/scatter index
functions of adjacent loops.  This reproduction performs the same merging
with *index tables*: every permutation expression is materialized as a
source-index table, composition is table indexing, and closed forms (mixed-radix
affine grids) are *recovered* from the tables when the code generator wants to emit
structured array accesses.  The result is identical merged loops with a far
simpler (and exhaustively testable) algebra.

Conventions
-----------
A permutation ``P`` (matrix semantics ``y = P x``) is represented by its
*source table* ``s`` with ``y[i] = x[s[i]]``.  For SPL permutation
expressions the table is obtained by applying the expression to the index
vector itself — an O(n) oracle that is correct for any permutation formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..spl.expr import COMPLEX, Expr


def source_table(perm_expr: Expr) -> np.ndarray:
    """Source-index table of a permutation expression.

    ``y = P x`` with ``y[i] = x[table[i]]``.  Works for any SPL expression
    that denotes a permutation matrix (L, Perm, LinePerm, tensor products and
    compositions thereof) by applying it to ``[0, 1, ..., n-1]``.
    """
    n = perm_expr.rows
    idx = np.arange(n, dtype=np.float64).astype(COMPLEX)
    out = perm_expr.apply(idx)
    table = np.real(out).round().astype(np.intp)
    if not np.array_equal(np.sort(table), np.arange(n)):
        raise ValueError(
            f"expression {perm_expr!r} is not a permutation (table invalid)"
        )
    return table


def invert_table(table: np.ndarray) -> np.ndarray:
    """Inverse permutation table: ``inv[table[i]] = i``."""
    inv = np.empty_like(table)
    inv[table] = np.arange(table.size)
    return inv


def diag_values(diag_expr: Expr) -> np.ndarray:
    """Diagonal entries of a diagonal expression (via application to ones)."""
    n = diag_expr.rows
    return diag_expr.apply(np.ones(n, dtype=COMPLEX))


@dataclass(frozen=True)
class AffineForm:
    """A recovered mixed-radix affine access family for a whole loop.

    Row ``j`` of the gather/scatter matrix is lane ``l = j % lanes`` of
    block ``jb = j // lanes``, and ``jb`` is read in the mixed radix
    ``digits`` — ``((radix, stride), ...)``, least significant first::

        index[j, u] = base + l*lane_stride + sum(digit_d(jb)*stride_d)
                      + u*col_stride

    One digit and one lane is the rank-2 grid ``base + j*row_stride +
    u*col_stride``; a stride permutation folded into a loop adds a digit,
    never a table (the index-function algebra of the paper's ref [11],
    recovered here by checking rather than derived).
    """

    base: int
    digits: tuple[tuple[int, int], ...]
    col_stride: int
    cols: int
    lanes: int = 1
    lane_stride: int = 0

    def indices(self) -> np.ndarray:
        rows = np.zeros(1, dtype=np.intp)
        for radix, stride in self.digits:
            step = stride * np.arange(radix, dtype=np.intp)
            rows = (step[:, None] + rows[None, :]).reshape(-1)
        lane = self.lane_stride * np.arange(self.lanes, dtype=np.intp)
        rows = (rows[:, None] + lane[None, :]).reshape(-1, 1)
        t = np.arange(self.cols, dtype=np.intp)[None, :]
        return self.base + rows + t * self.col_stride


def recover_affine(table: np.ndarray, lanes: int = 1) -> Optional[AffineForm]:
    """Recognize a mixed-radix affine structure in a 2-D index table.

    Strides are read off the first row and column, each digit's radix is
    the length of its arithmetic run, and the form is accepted only if it
    reproduces ``table`` exactly.
    """
    if table.ndim != 2 or table.size == 0 or table.shape[0] % lanes:
        return None
    cols = table.shape[1]
    first = table[:, 0] - table[0, 0]
    block = first[::lanes]
    digits = []
    while not digits or block.size > 1:  # one row is one digit of radix 1
        stride = int(block[1]) if block.size > 1 else 1
        run = block == stride * np.arange(block.size)
        radix = block.size if run.all() else int(np.argmin(run))
        if block.size % radix:
            return None
        digits.append((radix, stride))
        block = block[::radix]
    form = AffineForm(
        int(table[0, 0]),
        tuple(digits),
        int(table[0, 1] - table[0, 0]) if cols > 1 else 1,
        cols,
        lanes,
        int(first[1]) if lanes > 1 else 0,
    )
    if np.array_equal(form.indices(), table):
        return form
    return None
