"""Runtime measurement helpers for feedback-driven search."""

from __future__ import annotations

import contextlib
import gc
import time
from typing import Callable, Iterator, Optional

import numpy as np

from ..spl.expr import COMPLEX


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    """Disable the garbage collector around a timed region.

    A GC cycle landing inside one repeat inflates it by orders of
    magnitude; with a best-of-``repeats`` estimator a single clean repeat
    recovers, but pausing collection removes the noise source entirely.
    The collector's prior state is restored even on error.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _best_of(fn: Callable[[np.ndarray], np.ndarray], shape,
             repeats: int, warmup: int,
             rng: Optional[np.random.Generator]) -> float:
    """The one timing loop: random ``shape`` input, warm up, pause the GC,
    take the fastest repeat.

    Minimum over repeats is the standard noise-robust estimator for
    autotuning (Spiral and FFTW both time this way).  At least one warmup
    application always runs before timing starts — the first call pays
    one-time costs (twiddle-table construction, plan-cache fill, code
    paths never JITed) that would otherwise bias the measurement.
    """
    rng = rng or np.random.default_rng(0)
    x = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ).astype(COMPLEX)
    for _ in range(max(1, warmup)):
        fn(x)
    best = float("inf")
    with _gc_paused():
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(x)
            best = min(best, time.perf_counter() - t0)
    return best


def time_callable(
    fn: Callable[[np.ndarray], np.ndarray],
    n: int,
    repeats: int = 5,
    warmup: int = 1,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Best-of-``repeats`` wall-clock seconds for one application of ``fn``
    to a length-``n`` vector (see :func:`_best_of` for the discipline)."""
    return _best_of(fn, n, repeats, warmup, rng)


def time_batched_callable(
    fn: Callable[[np.ndarray], np.ndarray],
    n: int,
    batch: int = 1,
    repeats: int = 5,
    warmup: int = 1,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Best-of-``repeats`` seconds for one ``(batch, n)`` stacked application.

    The counterpart of :func:`time_callable` for the shape serving and
    the process pool execute in production.  Returns total seconds per
    application (divide by ``batch`` for per-vector time).
    """
    if batch < 1:
        raise ValueError(f"need batch >= 1, got {batch}")
    return _best_of(fn, (batch, n), repeats, warmup, rng)


def pseudo_mflops_from_seconds(n: int, seconds: float) -> float:
    """The paper's metric for measured runtimes."""
    if seconds <= 0:
        return float("inf")
    return 5 * n * np.log2(n) / (seconds * 1e6)
