"""Leaf matrices of the SPL language.

These are the terminals and non-terminals of the paper's formula language:
identity ``I_n``, the DFT (both as a transform *symbol* to be expanded by
breakdown rules and as the butterfly base case ``F_2``), diagonal matrices
(including the Cooley-Tukey twiddle diagonal ``D_{m,n}``), the stride
permutation ``L^{mn}_m``, and generic permutations.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .expr import (
    COMPLEX,
    FLOPS_COMPLEX_ADD,
    FLOPS_COMPLEX_MUL,
    Expr,
    SPLError,
    _check_batched,
)


def _require_positive(n: int, what: str) -> int:
    n = int(n)
    if n <= 0:
        raise SPLError(f"{what} must be positive, got {n}")
    return n


def omega(n: int, e) -> np.ndarray:
    """``w_n^e = exp(-2 pi i e / n)`` for integer exponents, to the last bit.

    ``e`` is reduced mod ``n`` and then to the first octant *in integers*,
    so the one rounded quantity is an angle in ``[0, pi/4]`` (``longdouble``
    where that is wider) and the error does not grow with ``e`` — a rounded
    ``w_n`` raised to ``e`` is off by ``e`` roundings, 1.3e-12 near 2^16.
    """
    octant, r = np.divmod(8 * (np.asarray(e, dtype=np.int64) % n), n)
    odd = (octant & 1).astype(bool)
    quarter_pi = np.arctan(np.longdouble(1))
    theta = quarter_pi * np.where(odd, n - r, r) / n
    c, s = np.cos(theta), np.sin(theta)
    c, s = np.where(odd, s, c), np.where(odd, c, s)
    quadrant = octant >> 1  # rotate by -i per quadrant
    w = np.empty(theta.shape, dtype=COMPLEX)
    w.real = np.choose(quadrant, [c, -s, -c, s])
    w.imag = np.choose(quadrant, [-s, -c, s, c])
    return w + 0.0  # no negative zeros


class I(Expr):  # noqa: E742  -- the paper's name for the identity
    """Identity matrix ``I_n``."""

    def __init__(self, n: int):
        self.n = _require_positive(n, "I size")
        self.rows = self.cols = self.n

    def _key(self) -> tuple:
        return (I, self.n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _check_batched(x, self.n, "I")

    def to_matrix(self) -> np.ndarray:
        return np.eye(self.n, dtype=COMPLEX)

    def flops(self) -> int:
        return 0


class F2(Expr):
    """The 2-point DFT butterfly ``F_2 = [[1, 1], [1, -1]]`` (base case)."""

    def __init__(self) -> None:
        self.rows = self.cols = 2

    def _key(self) -> tuple:
        return (F2,)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _check_batched(x, 2, "F2")
        out = np.empty_like(x)
        out[..., 0] = x[..., 0] + x[..., 1]
        out[..., 1] = x[..., 0] - x[..., 1]
        return out

    def to_matrix(self) -> np.ndarray:
        return np.array([[1, 1], [1, -1]], dtype=COMPLEX)

    def flops(self) -> int:
        return 2 * FLOPS_COMPLEX_ADD


class DFT(Expr):
    """The DFT transform symbol ``DFT_n = [w_n^{kl}]``, ``w_n = e^{-2 pi i/n}``.

    As a *symbol* it is the non-terminal that breakdown rules expand.  Its
    direct semantics (used as the correctness oracle and for unexpanded
    leaves) delegates to ``numpy.fft.fft``, which implements exactly this
    matrix.
    """

    def __init__(self, n: int):
        self.n = _require_positive(n, "DFT size")
        self.rows = self.cols = self.n

    def _key(self) -> tuple:
        return (DFT, self.n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _check_batched(x, self.n, "DFT")
        return np.fft.fft(x, axis=-1).astype(COMPLEX, copy=False)

    def to_matrix(self) -> np.ndarray:
        k = np.arange(self.n)
        return omega(self.n, np.outer(k, k))

    def flops(self) -> int:
        # Standard FFT cost convention (also the paper's pseudo-flop count).
        if self.n == 1:
            return 0
        return int(round(5 * self.n * np.log2(self.n)))


class Diag(Expr):
    """Diagonal matrix with explicit entries."""

    def __init__(self, values: Sequence[complex] | np.ndarray):
        vals = np.asarray(values, dtype=COMPLEX)
        if vals.ndim != 1 or vals.size == 0:
            raise SPLError("Diag needs a non-empty 1-D value vector")
        self.values = vals
        self.values.setflags(write=False)
        self.rows = self.cols = int(vals.size)

    def _key(self) -> tuple:
        return (Diag, self.values.tobytes())

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _check_batched(x, self.rows, "Diag")
        return x * self.values

    def to_matrix(self) -> np.ndarray:
        return np.diag(self.values)

    def flops(self) -> int:
        return self.rows * FLOPS_COMPLEX_MUL


class Twiddle(Expr):
    """Cooley-Tukey twiddle diagonal ``D_{m,n}`` of size ``mn``.

    With the output of ``I_m (x) DFT_n`` indexed as ``(i, j) -> i*n + j``
    (``i < m``, ``j < n``), the twiddle entry is ``w_{mn}^{i*j}``.
    """

    def __init__(self, m: int, n: int):
        self.m = _require_positive(m, "Twiddle m")
        self.n = _require_positive(n, "Twiddle n")
        self.rows = self.cols = self.m * self.n

    def _key(self) -> tuple:
        return (Twiddle, self.m, self.n)

    @property
    def values(self) -> np.ndarray:
        i = np.arange(self.m)[:, None]
        j = np.arange(self.n)[None, :]
        return omega(self.m * self.n, i * j).reshape(-1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _check_batched(x, self.rows, "Twiddle")
        return x * self.values

    def to_matrix(self) -> np.ndarray:
        return np.diag(self.values)

    def flops(self) -> int:
        return self.rows * FLOPS_COMPLEX_MUL


class Perm(Expr):
    """Generic permutation matrix given by a target mapping.

    ``perm[k]`` is the *destination* of source index ``k``:
    ``y[perm[k]] = x[k]``.
    """

    def __init__(self, perm: Sequence[int] | np.ndarray):
        p = np.asarray(perm, dtype=np.intp)
        if p.ndim != 1 or p.size == 0:
            raise SPLError("Perm needs a non-empty 1-D index vector")
        if not np.array_equal(np.sort(p), np.arange(p.size)):
            raise SPLError("Perm index vector is not a permutation")
        self.perm = p
        self.perm.setflags(write=False)
        self.rows = self.cols = int(p.size)

    def _key(self) -> tuple:
        return (Perm, self.perm.tobytes())

    def source_of(self) -> np.ndarray:
        """Inverse view: ``y[i] = x[source_of()[i]]``."""
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.perm.size)
        return inv

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _check_batched(x, self.rows, "Perm")
        out = np.empty_like(x)
        out[..., self.perm] = x
        return out

    def to_matrix(self) -> np.ndarray:
        m = np.zeros((self.rows, self.rows), dtype=COMPLEX)
        m[self.perm, np.arange(self.rows)] = 1
        return m

    def flops(self) -> int:
        return 0


class L(Expr):
    """Stride permutation ``L^{mn}_m``: ``y[i*n + j] = x[j*m + i]``
    for ``0 <= i < m``, ``0 <= j < n``.

    Viewing the input as an ``n x m`` row-major matrix, ``L^{mn}_m``
    transposes it; equivalently it reads the input at stride ``m``.  This is
    the orientation that makes the Cooley-Tukey factorization (paper Eq. (1))
    ``DFT_mn = (DFT_m (x) I_n) D_{m,n} (I_m (x) DFT_n) L^{mn}_m`` exact.
    """

    def __init__(self, size: int, stride: int):
        self.mn = _require_positive(size, "L size")
        self.m = _require_positive(stride, "L stride")
        if self.mn % self.m != 0:
            raise SPLError(f"L({size},{stride}): stride must divide size")
        self.n = self.mn // self.m
        self.rows = self.cols = self.mn

    def _key(self) -> tuple:
        return (L, self.mn, self.m)

    def permutation(self) -> np.ndarray:
        """Destination mapping: ``perm[j*m + i] = i*n + j``."""
        s = np.arange(self.mn)
        i = s % self.m
        j = s // self.m
        return i * self.n + j

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _check_batched(x, self.mn, "L")
        lead = x.shape[:-1]
        X = x.reshape(*lead, self.n, self.m)
        return np.ascontiguousarray(np.swapaxes(X, -1, -2)).reshape(
            *lead, self.mn
        )

    def to_matrix(self) -> np.ndarray:
        return Perm(self.permutation()).to_matrix()

    def to_perm(self) -> Perm:
        return Perm(self.permutation())

    def flops(self) -> int:
        return 0

    def inverse(self) -> "L":
        """``(L^{mn}_m)^{-1} = L^{mn}_{n}``."""
        return L(self.mn, self.n)


class DiagFunc(Expr):
    """Diagonal matrix defined by an index function ``k -> value``.

    Unlike :class:`Diag` the entries are generated lazily; this is the form
    loop merging produces when a diagonal is folded into a loop body.
    """

    def __init__(self, n: int, fn: Callable[[np.ndarray], np.ndarray], tag: tuple):
        self.n = _require_positive(n, "DiagFunc size")
        self.fn = fn
        self.tag = tag  # hashable identity for structural equality
        self.rows = self.cols = self.n

    def _key(self) -> tuple:
        return (DiagFunc, self.n, self.tag)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self.fn(np.arange(self.n)), dtype=COMPLEX)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _check_batched(x, self.n, "DiagFunc")
        return x * self.values

    def to_matrix(self) -> np.ndarray:
        return np.diag(self.values)

    def flops(self) -> int:
        return self.n * FLOPS_COMPLEX_MUL
