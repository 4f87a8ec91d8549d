"""Classic iterative radix-2 FFT (independent sequential baseline).

A textbook decimation-in-time implementation — bit reversal followed by
log2(n) butterfly passes — written directly against NumPy with no SPL
machinery.  It cross-checks the generator's outputs and serves as the
"hand-written library routine" baseline in benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..spl.expr import COMPLEX
from ..spl.matrices import omega


def bit_reverse_indices(n: int) -> np.ndarray:
    """Bit-reversal permutation table for power-of-two ``n``."""
    if n & (n - 1) or n <= 0:
        raise ValueError(f"size must be a power of two, got {n}")
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.intp)
    rev = np.zeros_like(idx)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def fft_iterative(x: np.ndarray) -> np.ndarray:
    """Iterative radix-2 DIT FFT; ``len(x)`` must be a power of two."""
    x = np.asarray(x, dtype=COMPLEX)
    n = x.shape[-1]
    y = x[..., bit_reverse_indices(n)].copy()
    half = 1
    while half < n:
        step = half * 2
        w = np.exp(-2j * np.pi * np.arange(half) / step)
        blocks = y.reshape(*y.shape[:-1], n // step, step)
        even = blocks[..., :half].copy()  # copy: the butterfly writes in place
        odd = blocks[..., half:] * w
        blocks[..., :half] = even + odd
        blocks[..., half:] = even - odd
        half = step
    return y


def fft_recursive(x: np.ndarray) -> np.ndarray:
    """Recursive radix-2 DIT FFT (reference for the algebra, not speed)."""
    x = np.asarray(x, dtype=COMPLEX)
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    if n % 2:
        raise ValueError(f"size must be a power of two, got {n}")
    even = fft_recursive(x[..., 0::2])
    odd = fft_recursive(x[..., 1::2])
    w = np.exp(-2j * np.pi * np.arange(n // 2) / n)
    t = w * odd
    return np.concatenate((even + t, even - t), axis=-1)


def dft_naive(x: np.ndarray) -> np.ndarray:
    """O(n^2) direct evaluation of the DFT definition (oracle for tests)."""
    x = np.asarray(x, dtype=COMPLEX)
    n = x.shape[-1]
    k = np.arange(n)
    return x @ omega(n, np.outer(k, k)).T
