"""Measured backend benchmark: ``repro bench --backend compiled``.

Times the same generated plans executed by two backends — the always-on
NumPy interpreter baseline and the requested backend (normally
``compiled``) — on the same runtime, same stacked ``(b, n)`` batches,
same best-of-``repeats`` discipline as the other measured benchmarks.
The ratio isolates exactly what the backend changes: stage *execution*,
never plan structure, so any speedup is attributable to fused native
codelets versus interpreted gathers.

Results are written as ``BENCH_backend.json``.  The host-metadata block
includes the compiler fingerprint (cc path, version, flags) whenever the
timed backend reports one, so a reader can tell which toolchain produced
the numbers.
"""

from __future__ import annotations

import numpy as np

from ..search.timer import pseudo_mflops_from_seconds, time_batched_callable
from .registry import resolve_backend

#: default stacked batch, matching the serving layer's coalesced shape
DEFAULT_BATCH = 8


def run_backend_bench(
    backend: str = "compiled",
    kmin: int = 8,
    kmax: int = 14,
    threads: int = 1,
    batch: int = DEFAULT_BATCH,
    repeats: int = 5,
    codelet_max: int = 32,
    strict: bool = True,
    nu: int = 1,
) -> dict:
    """Time NumPy vs ``backend`` stages for n = 2^kmin .. 2^kmax.

    Both plans come from the *same* spec but for its ``backend`` field
    (the builder is deterministic), so the comparison holds the
    factorization, index tables, and barrier structure fixed and varies
    only the executor.  ``strict=True`` (the
    CLI default) raises :class:`~repro.codegen.registry.BackendUnavailable`
    when the requested backend cannot run here — an explicit benchmark
    request should fail loudly, not silently time NumPy against itself.

    ``nu > 1`` plans through the vec(ν) rewriting and adds a third lane:
    the *scalar* plan on the same backend, so each row also reports
    ``simd_speedup`` (scalar-compiled vs ν-compiled — what the SIMD
    emission alone buys, the ``repro bench --backend compiled --nu 4``
    CI artifact).  Rows record ``nu_effective`` (0-fallback plans show 1).
    Returns the JSON-able report dict.
    """
    if kmin > kmax:
        raise ValueError(f"need kmin <= kmax, got {kmin} > {kmax}")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    if nu < 1:
        raise ValueError(f"need nu >= 1, got {nu}")
    from dataclasses import replace

    from ..frontend import feasible_threads
    from ..hunt.oracles import ExecutorPools
    from ..mp.bench import host_metadata
    from ..mp.spec import PlanSpec
    from ..serve.plan_cache import build_plan

    exec_backend = resolve_backend(backend, strict=strict)
    pools = ExecutorPools()
    runtime = pools.get("pthreads", threads)
    rows = []
    try:
        for k in range(kmin, kmax + 1):
            n = 1 << k
            t = feasible_threads(n, threads, 4) if threads > 1 else 1
            spec = PlanSpec(n=n, threads=t, codelet_max=codelet_max,
                            backend=exec_backend.name, nu=nu)
            test = build_plan(spec)
            base = build_plan(replace(spec, backend="numpy"))
            nu_eff = max(
                (lp.nu for st in test.program.program.stages
                 for lp in st.loops),
                default=1,
            )
            rng = np.random.default_rng(k)
            base_s = time_batched_callable(
                lambda x: runtime.run(base, x)[0],
                n, batch=batch, repeats=repeats, rng=rng,
            )
            test_s = time_batched_callable(
                lambda x: runtime.run(test, x)[0],
                n, batch=batch, repeats=repeats, rng=rng,
            )
            row = {
                "k": k,
                "n": n,
                "batch": batch,
                "threads_used": t,
                "nu": nu,
                "nu_effective": nu_eff,
                "numpy_s": base_s,
                "backend_s": test_s,
                "speedup": base_s / test_s if test_s > 0 else float("inf"),
                "numpy_mflops": pseudo_mflops_from_seconds(n, base_s / batch),
                "backend_mflops": pseudo_mflops_from_seconds(
                    n, test_s / batch
                ),
            }
            if nu > 1:
                scalar = build_plan(replace(spec, nu=1))
                scalar_s = time_batched_callable(
                    lambda x: runtime.run(scalar, x)[0],
                    n, batch=batch, repeats=repeats, rng=rng,
                )
                row["scalar_backend_s"] = scalar_s
                row["simd_speedup"] = (
                    scalar_s / test_s if test_s > 0 else float("inf")
                )
            rows.append(row)
    finally:
        pools.close()
    describe = exec_backend.describe()
    compiler = (
        {k: v for k, v in describe.items() if k != "backend"}
        if exec_backend.name == "compiled"
        else None
    )
    return {
        "benchmark": "backend_speedup",
        "backend": exec_backend.name,
        "backend_info": describe,
        "host": host_metadata(compiler=compiler),
        "threads": threads,
        "repeats": repeats,
        "nu": nu,
        "rows": rows,
        "best_speedup": max((r["speedup"] for r in rows), default=0.0),
        "best_simd_speedup": max(
            (r["simd_speedup"] for r in rows if "simd_speedup" in r),
            default=0.0,
        ),
    }


def render_backend_bench(result: dict) -> str:
    """The human-readable table for one :func:`run_backend_bench` report."""
    host = result["host"]
    nu = result.get("nu", 1)
    header = (
        f"# measured backend speedup — backend={result['backend']}, "
        f"p={result['threads']}, host cpus={host['cpu_count']}"
        + (f", nu={nu}" if nu > 1 else "")
    )
    cc = host.get("compiler")
    lines = [header]
    if cc:
        lines.append(
            f"# compiler: {cc.get('cc')} ({cc.get('version')}) "
            f"flags={' '.join(cc.get('flags', ()))}"
        )
    simd = nu > 1
    lines.append(
        f"{'log2n':>5} {'batch':>5} {'numpy ms':>9} {'bkend ms':>9} "
        f"{'speedup':>8} {'bkend Mflop/s':>14}"
        + (f" {'scalar ms':>9} {'simd x':>7}" if simd else "")
    )
    for r in result["rows"]:
        line = (
            f"{r['k']:>5} {r['batch']:>5} {r['numpy_s'] * 1e3:>9.3f} "
            f"{r['backend_s'] * 1e3:>9.3f} {r['speedup']:>8.2f} "
            f"{r['backend_mflops']:>14.0f}"
        )
        if simd and "simd_speedup" in r:
            line += (
                f" {r['scalar_backend_s'] * 1e3:>9.3f} "
                f"{r['simd_speedup']:>7.2f}"
            )
        lines.append(line)
    return "\n".join(lines)
