"""Measured multiprocess benchmark: ``repro bench --runtime process``.

Unlike the simulated-machine panels (``repro bench <machine>``), this
benchmark times *real wall clock* on the host: the sequential plan executed
in-process against the same transform executed by a
:class:`~repro.mp.runtime.ProcessPoolRuntime` of ``p`` workers.  Results
are written as ``BENCH_mp.json`` with full host metadata — ``cpu_count``
matters, because on a single-core container the parallel run cannot beat
sequential no matter how little the barriers cost; the recorded numbers
stay honest either way and CI (multi-core) demonstrates the speedup.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import sys
from typing import Optional

import numpy as np

from ..search.timer import pseudo_mflops_from_seconds, time_batched_callable
from .runtime import ProcessPoolRuntime
from .spec import PlanSpec, compile_spec

#: default stacked batch: the serving layer's typical coalesced execution
DEFAULT_BATCH = 8


def host_metadata(
    start_method: Optional[str] = None,
    compiler: Optional[dict] = None,
) -> dict:
    """The environment facts a reader needs to interpret the numbers.

    ``compiler`` (the :func:`repro.codegen.compiler_fingerprint` dict —
    cc path, version line, flags) is recorded whenever the benchmark
    executed through the compiled backend, so BENCH artifacts name the
    exact toolchain behind their numbers.
    """
    meta = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
    }
    if start_method is not None:
        meta["start_method"] = start_method
    if compiler is not None:
        meta["compiler"] = dict(compiler)
    return meta


def run_mp_bench(
    kmin: int = 10,
    kmax: int = 14,
    threads: int = 2,
    batch: int = DEFAULT_BATCH,
    repeats: int = 5,
    start_method: Optional[str] = None,
) -> dict:
    """Time sequential vs process-pool execution for n = 2^kmin .. 2^kmax.

    The sequential baseline is the *sequential plan* (threads=1) run by a
    worker-less pool — same code path, same shared buffers, no barriers —
    so the ratio isolates what parallel execution buys, not incidental
    overhead differences.  Returns the JSON-able report dict.
    """
    if kmin > kmax:
        raise ValueError(f"need kmin <= kmax, got {kmin} > {kmax}")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    seq_pool = ProcessPoolRuntime(1, start_method=start_method)
    par_pool = (
        ProcessPoolRuntime(threads, start_method=start_method)
        if threads > 1
        else seq_pool
    )
    rows = []
    try:
        for k in range(kmin, kmax + 1):
            n = 1 << k
            seq_plan = compile_spec(PlanSpec.for_request(n, threads=1))
            par_plan = compile_spec(PlanSpec.for_request(n, threads=threads))
            rng = np.random.default_rng(k)
            seq_s = time_batched_callable(
                lambda x: seq_pool.run(seq_plan, x)[0],
                n, batch=batch, repeats=repeats, rng=rng,
            )
            par_s = time_batched_callable(
                lambda x: par_pool.run(par_plan, x)[0],
                n, batch=batch, repeats=repeats, rng=rng,
            )
            rows.append({
                "k": k,
                "n": n,
                "batch": batch,
                "threads_used": par_plan.spec.threads,
                "seq_s": seq_s,
                "par_s": par_s,
                "speedup": seq_s / par_s if par_s > 0 else float("inf"),
                "seq_mflops": pseudo_mflops_from_seconds(n, seq_s / batch),
                "par_mflops": pseudo_mflops_from_seconds(n, par_s / batch),
            })
    finally:
        par_pool.close()
        if par_pool is not seq_pool:
            seq_pool.close()
    return {
        "benchmark": "mp_speedup",
        "host": host_metadata(seq_pool.start_method),
        "threads": threads,
        "repeats": repeats,
        "rows": rows,
        "best_speedup": max((r["speedup"] for r in rows), default=0.0),
    }


def render_mp_bench(result: dict) -> str:
    """The human-readable table for one :func:`run_mp_bench` report."""
    host = result["host"]
    lines = [
        f"# measured process-pool speedup — p={result['threads']}, "
        f"start={host['start_method']}, host cpus={host['cpu_count']}",
        f"{'log2n':>5} {'batch':>5} {'seq ms':>9} {'par ms':>9} "
        f"{'speedup':>8} {'par Mflop/s':>12}",
    ]
    for r in result["rows"]:
        lines.append(
            f"{r['k']:>5} {r['batch']:>5} {r['seq_s'] * 1e3:>9.3f} "
            f"{r['par_s'] * 1e3:>9.3f} {r['speedup']:>8.2f} "
            f"{r['par_mflops']:>12.0f}"
        )
    if host["cpu_count"] == 1:
        lines.append(
            "# single-core host: parallel execution cannot beat sequential "
            "here; run on a multi-core machine (or CI) for real speedup"
        )
    return "\n".join(lines)
