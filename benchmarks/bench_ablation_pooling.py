"""Ablation A2: thread pooling vs per-call thread creation.

The mechanism behind the C1/C2 crossovers: a pooled runtime pays ~1e3
cycles per call (dispatch + barriers), per-call creation pays ~1e5 cycles
per thread.  The ablation sweeps problem size and reports where each
profile's parallel execution overtakes sequential.
"""

from repro.frontend import SpiralSMP, feasible_threads
from repro.machine import SyncProfile, core_duo
from series import report


def test_sync_profile_ablation(benchmark):
    spec = core_duo()
    spiral = SpiralSMP(spec)
    rows = [
        "A2: synchronization-profile ablation, Core Duo, p = 2 "
        "(pseudo Mflop/s)",
        f"{'log2 n':>6} | {'sequential':>10} {'pooled':>10} "
        f"{'fork-join':>10} {'spawn/call':>10}",
    ]
    crossover = {}
    for k in range(6, 15):
        n = 1 << k
        seq = spiral.pseudo_mflops(n, 1)
        vals = {}
        for profile in (
            SyncProfile.POOLED,
            SyncProfile.FORK_JOIN,
            SyncProfile.SPAWN_PER_CALL,
        ):
            vals[profile] = spiral.pseudo_mflops(n, 2, profile)
            if profile not in crossover and vals[profile] > seq:
                crossover[profile] = k
        rows.append(
            f"{k:>6} | {seq:>10.0f} {vals[SyncProfile.POOLED]:>10.0f} "
            f"{vals[SyncProfile.FORK_JOIN]:>10.0f} "
            f"{vals[SyncProfile.SPAWN_PER_CALL]:>10.0f}"
        )
    rows.append(
        "crossovers (first k where parallel beats sequential): "
        + ", ".join(f"{p.value}=2^{k}" for p, k in crossover.items())
    )
    report("\n".join(rows), filename="ablation_pooling.txt")

    # pooled crossover must come well before spawn-per-call
    assert SyncProfile.POOLED in crossover
    assert crossover[SyncProfile.POOLED] <= 9
    spawn_k = crossover.get(SyncProfile.SPAWN_PER_CALL)
    assert spawn_k is None or spawn_k >= crossover[SyncProfile.POOLED] + 3
    # fork-join lands between the two
    fj = crossover.get(SyncProfile.FORK_JOIN)
    if fj is not None and spawn_k is not None:
        assert crossover[SyncProfile.POOLED] <= fj <= spawn_k
    benchmark(spiral.pseudo_mflops, 1024, 2, SyncProfile.POOLED)


def test_real_runtime_pool_reuse(benchmark):
    """The actual threaded runtime: one persistent pool reused across calls
    (per-call threading is the model's ``FORK_JOIN`` / ``SPAWN_PER_CALL``
    above, and the standalone C program's ``openmp`` driver)."""
    import numpy as np

    from repro.frontend import generate_fft
    from repro.smp import PThreadsRuntime

    gen = generate_fft(4096, threads=2)
    x = np.random.default_rng(0).standard_normal(4096) + 0j

    with PThreadsRuntime(2) as pool:
        gen.run(x, pool)  # warm the pool
        y = benchmark(gen.run, x, pool)
    # correctness of the benchmarked callable
    np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
