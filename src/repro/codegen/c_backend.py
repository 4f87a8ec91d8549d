"""C code generator: Sigma-SPL programs -> self-contained C99 programs.

This is the paper's actual target: multithreaded C.  The program *is* the
plan's C text — :func:`repro.codegen.c_emit.emit_plan_unit` in its
single-file form, the unit the compiled backend builds into a shared
object, stage functions and ``repro_plan`` chain byte for byte — and this
module adds only what makes that text a program:

* a driver, one of three:

  - ``sequential``: none of its own — ``main`` calls ``repro_plan``,
  - ``pthreads``: SPMD threads walking ``repro_stage0..k-1`` in lockstep
    with a *sense-reversing barrier* built on GCC atomics (the paper's
    low-latency synchronization); barriers are skipped for stages whose
    dataflow is processor-private,
  - ``openmp``: ``#pragma omp parallel`` fork-join regions per stage,

* and a ``main`` that reads ``2*N`` doubles (re/im pairs) from stdin and
  writes the transformed pairs to stdout,

so generated programs are verified end-to-end against ``numpy.fft`` by
actually compiling and running them (:func:`compile_and_run`, through the
compiled backend's one compiler seam; see
``tests/codegen/test_c_backend.py``).
"""

from __future__ import annotations

import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..sigma.loops import SigmaProgram
from .c_emit import emit_plan_unit
from .compiled_backend import (
    DEFAULT_CODELET_MAX,
    CodeletCompileError,
    find_compiler,
    run_cc,
)
from .flags import exe_cflags

#: the drivers, and what each adds to the link line
_LINK_FLAGS = {
    "sequential": (),
    "pthreads": ("-lpthread",),
    "openmp": ("-fopenmp",),
}
MODES = tuple(_LINK_FLAGS)


_BARRIER_C = r"""
/* sense-reversing centralized barrier (GCC atomics: the last arrival
   acquires every arrival's writes and releases them with the sense) */
static int bar_count;
static int bar_sense = 0;
static void barrier_wait(int *local_sense) {
  *local_sense = !*local_sense;
  if (__atomic_sub_fetch(&bar_count, 1, __ATOMIC_ACQ_REL) == 0) {
    __atomic_store_n(&bar_count, P, __ATOMIC_RELAXED);
    __atomic_store_n(&bar_sense, *local_sense, __ATOMIC_RELEASE);
  } else {
    while (__atomic_load_n(&bar_sense, __ATOMIC_ACQUIRE) != *local_sense) {
      /* spin */
    }
  }
}
"""

_PTHREADS_C = r"""
static void run_stages(int proc) {
  int local_sense = 0;
  const double *src = bufA;
  double *dst = bufB;
  for (int s = 0; s < NSTAGES; ++s) {
    if (stage_barrier[s] || !stage_parallel[s]) barrier_wait(&local_sense);
    if (stage_parallel[s] || proc == 0) stages[s](proc, 1, src, dst);
    if (!stage_parallel[s]) barrier_wait(&local_sense);
    const double *t = src; src = dst; dst = (double *)t;
  }
  barrier_wait(&local_sense); /* final rendezvous */
}

static void *worker(void *arg) {
  run_stages((int)(long)arg);
  return NULL;
}

static void transform(void) {
  pthread_t threads[P];
  bar_count = P;
  for (long i = 1; i < P; ++i)
    pthread_create(&threads[i], NULL, worker, (void *)i);
  run_stages(0);
  for (long i = 1; i < P; ++i) pthread_join(threads[i], NULL);
}
"""

_OPENMP_C = r"""
static void transform(void) {
  const double *src = bufA;
  double *dst = bufB;
  for (int s = 0; s < NSTAGES; ++s) {
    if (stage_parallel[s]) {
      #pragma omp parallel num_threads(P)
      { stages[s](omp_get_thread_num(), 1, src, dst); }
    } else {
      stages[s](0, 1, src, dst);
    }
    const double *t = src; src = dst; dst = (double *)t;
  }
}
"""

#: ``main`` around the one statement pair that differs: how the transform
#: runs and which buffer it left the result in
_MAIN_READ = r"""
int main(void) {
  for (int i = 0; i < N; ++i)
    if (scanf("%lf %lf", &bufA[2 * i], &bufA[2 * i + 1]) != 2) {
      fprintf(stderr, "expected %d re/im pairs on stdin\n", N);
      return 1;
    }"""
_RUN_CHAIN = r"""
  if (repro_plan(1, bufA, bufB)) return 1; /* it found no scratch */
  const double *out = bufB;"""
_RUN_THREADS = r"""
  transform();
  const double *out = (NSTAGES % 2 == 0) ? bufA : bufB;"""
_MAIN_WRITE = r"""
  for (int i = 0; i < N; ++i)
    printf("%.17g %.17g\n", out[2 * i], out[2 * i + 1]);
  return 0;
}
"""


@dataclass
class GeneratedCSource:
    """Generated C program text plus metadata."""

    size: int
    mode: str
    source: str
    nstages: int

    def write(self, path: str | Path) -> Path:
        """Write the source text to ``path``; returns the written Path."""
        p = Path(path)
        p.write_text(self.source)
        return p


def generate_c(
    program: SigmaProgram,
    mode: str = "pthreads",
    codelet_max: int = DEFAULT_CODELET_MAX,
) -> GeneratedCSource:
    """Emit a complete C program for ``program``.

    The plan's single-file C text under the compiled backend's
    ``codelet_max`` (kernels up to that size are unrolled straight-line
    codelets, larger ones a dense multiply; see
    :mod:`repro.codegen.unroll`), then the mode's driver over
    ``repro_stage<k>`` and ``main``.  The stage ABI is batched over
    interleaved doubles; the program runs one row.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    stages = program.stages
    tail = [f"/* standalone program: mode={mode} */", "#include <stdio.h>"]
    if mode == "pthreads":
        tail.append("#include <pthread.h>")
    if mode == "openmp":
        tail.append("#include <omp.h>")
    tail += [
        f"#define N {program.size}",
        "static double bufA[2 * N], bufB[2 * N]; /* one row of re/im pairs */",
    ]
    run = _RUN_CHAIN
    if mode != "sequential":
        nprocs = 1 + max((p for s in stages for p in s.procs), default=0)
        tail += [
            f"#define P {nprocs}",
            f"#define NSTAGES {len(stages)}",
            "typedef void (*stage_fn)(int, long, const double *, double *);",
            "static const stage_fn stages[NSTAGES] = {"
            + ", ".join(f"repro_stage{i}" for i in range(len(stages))) + "};",
            "static const int stage_barrier[NSTAGES] = {"
            + ", ".join(str(int(s.needs_barrier)) for s in stages) + "};",
            "static const int stage_parallel[NSTAGES] = {"
            + ", ".join(str(int(s.parallel)) for s in stages) + "};",
        ]
        tail += [_BARRIER_C, _PTHREADS_C] if mode == "pthreads" else [_OPENMP_C]
        run = _RUN_THREADS
    tail.append(_MAIN_READ + run + _MAIN_WRITE)
    unit = emit_plan_unit(program, codelet_max, linked=False)
    return GeneratedCSource(
        size=program.size,
        mode=mode,
        source=unit.text + "\n".join(tail),
        nstages=len(stages),
    )


def compile_and_run(
    gen: GeneratedCSource, x: np.ndarray, cc: Optional[str] = None
) -> np.ndarray:
    """Compile the generated C and run it on input ``x``.

    The compiler is the compiled backend's (:func:`find_compiler`, so
    ``REPRO_NO_CC`` switches it off) under the production optimization
    tier (:func:`repro.codegen.flags.exe_cflags`, whatever ν the plan
    carries) and links nothing but the driver's threading library; no
    compiler, or one that rejects the program, is a
    :class:`CodeletCompileError`.
    """
    cc = cc or find_compiler()
    if cc is None:
        raise CodeletCompileError(
            "no C compiler available (gcc/cc not on PATH, or REPRO_NO_CC set)"
        )
    with tempfile.TemporaryDirectory(prefix="repro-cgen-") as tmp:
        workdir = Path(tmp)
        stem = f"dft_{gen.size}_{gen.mode}"
        gen.write(workdir / f"{stem}.c")
        run_cc(
            cc,
            [*exe_cflags(cc), "-o", stem, f"{stem}.c",
             *_LINK_FLAGS[gen.mode]],
            workdir,
        )
        x = np.asarray(x, dtype=np.complex128)
        stdin = "\n".join(
            f"{float(v.real)!r} {float(v.imag)!r}" for v in x
        )
        proc = subprocess.run(
            [str(workdir / stem)],
            input=stdin,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
    vals = np.array(
        [float(tok) for tok in proc.stdout.split()], dtype=np.float64
    )
    return vals[0::2] + 1j * vals[1::2]
