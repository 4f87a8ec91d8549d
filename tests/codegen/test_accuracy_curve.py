"""Numerical error is measured, against a wider reference, as a curve in n.

One ``atol`` cannot tell a transform that is right to the last bit from
one whose twiddles drift: ``Twiddle.values`` and ``DFT.to_matrix`` used to
raise a *rounded* root to the power ``i*j``, so the error grew with the
exponent — 1.3e-12 on entries of ``T^65536_256``, and a relative L2
distance from the true transform of 4.5e-13 at n = 2^16 where ``np.fft``
is at 5e-16.  Pinned here, for n = 2^6 .. 2^16:

* every twiddle table the C emitter prints is an n-th root of unity to
  within one ulp (componentwise, 2^-53 at magnitudes in [0.5, 1));
* the relative L2 error of the NumPy backend (every size) and of compiled
  code (ν = 1 and 4, every other size) against a ``clongdouble``
  transform built from exactly reduced twiddles stays under
  ``C * eps * sqrt(log2 n)`` with one ``C`` (measured 0.28–0.40 across
  the range, ``np.fft`` itself 0.30–0.36; the rounded-root twiddles read
  1.7 at 2^7 and 508 at 2^16).

The same curve is the net under the broadcast twiddle tables: a plane
stored as its distinct rows must not move a result by an ulp.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
import pytest

from repro.codegen.c_emit import emit_stage_functions
from repro.codegen.compiled_backend import (
    DEFAULT_CODELET_MAX,
    compiled_available,
)
from repro.codegen.registry import resolve_backend
from repro.frontend import generate_fft
from repro.serve.batch_exec import run_batched
from repro.smp.runtime import SequentialRuntime

LD, CLD = np.longdouble, np.clongdouble
EPS = float(np.finfo(np.float64).eps)

pytestmark = pytest.mark.skipif(
    np.finfo(LD).eps >= EPS, reason="longdouble is no wider than double here"
)

#: the one constant of the bound ``C * eps * sqrt(log2 n)``
C = 0.6

SIZES = [1 << k for k in range(6, 17)]


def _roots(n: int, e: np.ndarray) -> np.ndarray:
    """``exp(-2 pi i e/n)`` in ``clongdouble``, the exponent reduced first
    (11 bits wider than a double: good to 3e-19 without octant tricks)."""
    pi = 4 * np.arctan(LD(1))
    return np.exp(-2j * pi * (np.asarray(e) % n).astype(LD) / n)


def _reference_fft(x: np.ndarray) -> np.ndarray:
    """Iterative radix-2 DIT in ``clongdouble`` over exactly reduced roots."""
    n = x.size
    idx, rev = np.arange(n), np.zeros(n, dtype=np.intp)
    for _ in range(n.bit_length() - 1):
        rev, idx = (rev << 1) | (idx & 1), idx >> 1
    y = x.astype(CLD)[rev]
    roots = _roots(n, np.arange(n // 2))
    half = 1
    while half < n:
        blocks = y.reshape(-1, 2 * half)
        odd = blocks[:, half:] * roots[:: n // (2 * half)]
        even = blocks[:, :half].copy()
        blocks[:, :half], blocks[:, half:] = even + odd, even - odd
        half *= 2
    return y


@functools.lru_cache(maxsize=None)
def _program(n: int, nu: int):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return generate_fft(n, nu=nu).program


@pytest.mark.parametrize("nu", [1, 4])
@pytest.mark.parametrize("n", SIZES)
def test_emitted_twiddles_are_roots_of_unity_to_the_ulp(n, nu):
    tables = {
        t.name: t.flat()
        for t in emit_stage_functions(
            _program(n, nu), DEFAULT_CODELET_MAX
        ).tables
        if t.ctype == "double" and not t.name.startswith("kmat")
    }
    assert tables
    for name, flat in tables.items():
        if name.endswith("im"):
            continue
        if name.endswith("re"):
            w = flat + 1j * tables[name[:-2] + "im"]
        else:  # a scalar loop's interleaved pairs
            w = flat.view(np.complex128)
        e = np.rint(-np.angle(w) * n / (2 * np.pi)).astype(np.int64)
        off = w.astype(CLD) - _roots(n, e)
        assert max(abs(off.real).max(), abs(off.imag).max()) <= 2.0 ** -53, name


#: compiled plans cost a compiler launch each: every other size, ends kept
BACKENDS = [("numpy", 1, SIZES)] + [
    pytest.param(
        "compiled", nu, SIZES[::2],
        marks=pytest.mark.skipif(
            not compiled_available(), reason="no usable C compiler"
        ),
    )
    for nu in (1, 4)
]


@pytest.mark.parametrize("backend,nu,sizes", BACKENDS)
def test_error_stays_under_the_curve(backend, nu, sizes):
    rng = np.random.default_rng(22)
    worst = 0.0
    for n in sizes:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want = _reference_fft(x)
        stages = resolve_backend(backend).build_stages(_program(n, nu))
        got = run_batched(stages, n, x, SequentialRuntime())[0][0]
        err = float(
            np.linalg.norm(got.astype(CLD) - want) / np.linalg.norm(want)
        )
        bound = C * EPS * np.sqrt(np.log2(n))
        assert err <= bound, f"n={n}: {err:.2e} > {bound:.2e}"
        worst = max(worst, err / bound)
    assert worst > 0.25  # the bound is tight: C is not a loose atol in disguise
