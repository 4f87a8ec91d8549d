"""Code generation backends and the execution-backend registry.

Two kinds of artifact come out of this package:

* **standalone programs** — :func:`generate` (Python source, whose
  printed batched stages are also the ``numpy`` executor) and
  :func:`generate_c` (self-contained multithreaded C99: a ``compiled``
  plan's C text in one file, plus a driver and ``main``), used for
  verification and the paper's generated-program experiments;
* **executable stage plans** — built through the backend registry
  (:mod:`repro.codegen.registry`): ``numpy`` (the printed Python program),
  ``compiled`` (fused C codelets JIT-compiled at plan time,
  :mod:`repro.codegen.compiled_backend`), and ``simulator`` (the literal
  per-row Σ-SPL oracle).  Every runtime — smp, mp, serve, search, check —
  selects its executor through :func:`resolve_backend`.

All C text — :func:`generate_c` programs and ``compiled`` shared objects
alike — is printed and assembled by one emitter
(:mod:`repro.codegen.c_emit`) and compiled through one seam
(:func:`repro.codegen.compiled_backend.run_cc`).
"""

from .c_backend import GeneratedCSource, compile_and_run, generate_c
from .compiled_backend import (
    CodeletCompileError,
    CompiledPlan,
    compile_plan,
    compiled_available,
    compiler_fingerprint,
    emit_plan_source,
    prune_codelet_cache,
)
from .flags import (
    NO_SIMD_ENV,
    exe_cflags,
    optimization_tier,
    shared_cflags,
    simd_disabled,
    unit_cflags,
)
from .python_backend import GeneratedProgram, generate
from .registry import (
    BACKEND_NAMES,
    BackendUnavailable,
    ExecutionBackend,
    available_backends,
    build_stages,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
)
from .unroll import Codelet, dft_codelet, symbolic_apply

__all__ = [
    "BACKEND_NAMES",
    "BackendUnavailable",
    "Codelet",
    "NO_SIMD_ENV",
    "exe_cflags",
    "optimization_tier",
    "shared_cflags",
    "simd_disabled",
    "unit_cflags",
    "CodeletCompileError",
    "CompiledPlan",
    "ExecutionBackend",
    "GeneratedCSource",
    "GeneratedProgram",
    "available_backends",
    "build_stages",
    "compile_and_run",
    "compile_plan",
    "compiled_available",
    "compiler_fingerprint",
    "emit_plan_source",
    "generate",
    "get_backend",
    "prune_codelet_cache",
    "dft_codelet",
    "generate_c",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "symbolic_apply",
]
