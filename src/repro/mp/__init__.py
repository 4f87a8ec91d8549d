"""repro.mp: a multiprocess shared-memory backend with real parallel speedup.

The thread runtimes in :mod:`repro.smp` execute generated stage plans under
CPython's GIL, so they establish *correctness* of the multithreaded
schedules but scale only as far as the stage closures release it.  This
package runs the same plans across **processes** over a shared address space —
``multiprocessing.shared_memory`` standing in for the paper's pthreads over
one heap — so the generated programs parallelize for real:

* :class:`SharedArena` / :func:`attach` — refcounted shared-memory segments
  exposed as NumPy views, with atexit unlink and leak accounting;
* :class:`PlanSpec` / :func:`compile_spec` — a picklable description of a
  plan (size, threads, µ, strategy) that every worker process compiles
  *locally* into the identical stage plan through the deterministic
  rewrite → Σ-SPL → codegen pipeline (closures never cross the process
  boundary), amortized over the pool's lifetime;
* :class:`SharedSenseBarrier` — the paper's sense-reversing barrier built
  on shared semaphores, with abort semantics for crashed workers;
* :class:`ProcessPoolRuntime` — a persistent SPMD worker pool under
  :class:`repro.smp.PThreadsRuntime`'s contract (``run(plan, X)`` over the
  same lockstep walk, ``healthy``, typed
  :class:`~repro.smp.runtime.WorkerPoolBroken` on worker death) so the
  serving layer's plan cache and self-healing apply unchanged.

See ``docs/parallel.md`` for the execution model, fork-vs-spawn caveats,
and how the process-pool speedup is measured (``benchmarks/perf``).
"""

from .arena import (
    ArenaStats,
    AttachedSegment,
    SharedArena,
    SharedBuffer,
    attach,
    live_segment_names,
    segment_stats,
)
from .barrier import SharedSenseBarrier
from .runtime import ProcessPoolRuntime, RemoteWorkerError
from .spec import PlanSpec, compile_spec, clear_spec_cache

__all__ = [
    "ArenaStats",
    "AttachedSegment",
    "PlanSpec",
    "ProcessPoolRuntime",
    "RemoteWorkerError",
    "SharedArena",
    "SharedBuffer",
    "SharedSenseBarrier",
    "attach",
    "clear_spec_cache",
    "compile_spec",
    "live_segment_names",
    "segment_stats",
]
