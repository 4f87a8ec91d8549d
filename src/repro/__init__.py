"""repro: a reproduction of "FFT Program Generation for Shared Memory:
SMP and Multicore" (Franchetti, Voronenko, Pueschel; SC 2006).

A Spiral-style FFT program generator with the paper's shared-memory
extension: an SPL formula language, a rewriting system implementing the
Table 1 parallelization rules, Sigma-SPL loop merging, Python and
multithreaded-C backends, SMP runtimes, simulated SMP/multicore machines for
the Figure 3 evaluation, baselines (six-step FFT, iterative radix-2, an
FFTW behavioural model), and factorization search.

Quickstart::

    import numpy as np
    from repro import generate_fft
    from repro.smp import PThreadsRuntime

    fft = generate_fft(1024, threads=2, mu=4)   # Eq. (14)-based program
    x = np.random.randn(1024) + 1j * np.random.randn(1024)
    with PThreadsRuntime(2) as pool:
        y = fft.run(x, pool)
    assert np.allclose(y, np.fft.fft(x))
"""

from . import (
    baselines,
    codegen,
    machine,
    rewrite,
    search,
    serve,
    sigma,
    smp,
    spl,
    trace,
    transforms,
    vector,
)
from .frontend import (
    SpiralSMP,
    TransformPlan,
    feasible_threads,
    generate_fft,
    spiral_formula,
    verify_program,
)
from .plotting import ascii_chart
from .rewrite import build_eq14, derive_multicore_ct, parallelize
from .wisdom import Wisdom
from .spl import DFT, format_expr, is_fully_optimized

__version__ = "1.0.0"

__all__ = [
    "DFT",
    "ascii_chart",
    "SpiralSMP",
    "Wisdom",
    "TransformPlan",
    "baselines",
    "build_eq14",
    "codegen",
    "derive_multicore_ct",
    "feasible_threads",
    "format_expr",
    "generate_fft",
    "is_fully_optimized",
    "machine",
    "parallelize",
    "rewrite",
    "search",
    "serve",
    "sigma",
    "smp",
    "spiral_formula",
    "spl",
    "trace",
    "transforms",
    "vector",
    "verify_program",
]
