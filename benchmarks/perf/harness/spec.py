"""The benchmark's contract: workload table, metric tables, BENCHMARK.json.

Everything a later issue cites by name lives here and nowhere else.  This
module imports nothing heavy (no NumPy, no ``repro``) so the manifest can
be rebuilt and schema-checked without a compiler or a checkout of ``src``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: how long one driver run measures (``--seconds``); see README "time budget"
RUN_SECONDS = 10

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: an op whose relative L2 error vs ``np.fft.fft`` exceeds this has failed
REL_ERR_TOL = 1e-10

#: one ServeConfig for all three serve workloads, so they differ by traffic only
SERVE_CONFIG = {"backend": "compiled", "nu": 4, "window_s": 0.0}

#: cache-line size in complex elements (the paper's µ) used by every plan
MU = 4

#: the vec(ν) width every compiled workload requests and must actually get
NU = 4

#: ``plan_build`` ladder: one cold build per rung, n = 2^6..2^12 × ν ∈ {1, 4}
PLAN_LADDER = tuple((1 << k, nu) for k in range(6, 13) for nu in (1, NU))

#: ``serve_pipelined_mix`` request sizes and their shares of the pool
MIX_SIZES = (64, 256, 1024, 4096)
MIX_WEIGHTS = (0.4, 0.3, 0.2, 0.1)
MIX_DEPTH = 16
#: the request pool is this many rounds (one burst per connection each) and
#: holds the sizes in exactly the weights' shares; the seed sets the order
MIX_POOL_ROUNDS = 16
MIX_ROUNDS_PER_BLOCK = 4


@dataclass(frozen=True)
class Workload:
    """One row of the workload table.

    ``ops_per_block`` is a fixed op count — the same on every commit, never
    a wall-time target — sized so a block is a few tens of milliseconds
    here: short against the time a core stays in one speed state (see
    ``measure.Calibrator``).  ``cal_per_op`` calibration units follow each
    op, about a tenth of the op's own time.  The timed phase runs whole
    laps of ``blocks_per_lap`` blocks; throughput is taken per lap.

    ``core_share`` is the share of the op's time that stretches when the
    core slows down (the rest waits on memory, which does not): measured by
    regressing block medians on block slowdown over a few minutes of blocks
    (README, "noise findings"), it is 1.0 for the interpreter- and
    compute-bound workloads and 0.3 for the two that move megabytes per op.
    """

    name: str
    kind: str            # "kernel" | "plan_build" | "serve"
    why: str
    ops_per_block: int
    cal_per_op: int
    core_share: float = 1.0
    blocks_per_lap: int = 1
    warmup_blocks: int = 2
    n: int = 0           # transform size (kernel, ping-pong, bulk)
    batch: int = 1       # rows per op
    routed: bool = False  # serve: through ShardRouter instead of direct TCP
    connections: int = 1  # serve: client threads == connections (<= nproc)
    ladder_reps: int = 0  # traced round: calls per ladder rung


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "kernel_2p10_b1", "kernel",
        "In-L1 size at the paper's crossover: the kernel is a few us of a "
        "~15 us call, so Python stage-walk, ctypes and buffer costs dominate "
        "and whole-plan compilation must show here.",
        ops_per_block=1500, cal_per_op=1, n=1 << 10, batch=1,
        ladder_reps=1500,
    ),
    Workload(
        "kernel_2p16_b8", "kernel",
        "Kernel-dominated (8 MiB in + 8 MiB out per op, walk overhead under "
        "1 %): codelet, SIMD and layout work shows here and walk-overhead "
        "work must not move it.",
        ops_per_block=6, cal_per_op=40, core_share=0.3, n=1 << 16, batch=8,
        ladder_reps=30,
    ),
    Workload(
        "plan_build", "plan_build",
        "The write side of the plan and codelet caches every other workload "
        "only reads: one cold formula-to-shared-object build per op over "
        "n=2^6..2^12 x nu in {1,4}; sizes AOT work, guards emitter refactors.",
        # a build is 0.1-2 s and no two rungs cost the same, so each build
        # is its own block and a lap is one pass over the ladder
        ops_per_block=1, cal_per_op=300, blocks_per_lap=len(PLAN_LADDER),
        warmup_blocks=0,
    ),
    Workload(
        "route_pingpong_n64", "serve",
        "Per-request fixed cost is everything (kernel ~8 us of ~250 us): "
        "codec headers, queue hand-off, ticket wake-up, two socket hops via "
        "the router to a 1-shard fleet; the unbatched n=64 operating point.",
        ops_per_block=60, cal_per_op=3, n=64, batch=1, routed=True,
        ladder_reps=400,
    ),
    Workload(
        "serve_pipelined_mix", "serve",
        "The only workload where batching, vstack assembly, multi-key "
        "plan-cache hits and queue depth matter: 2 connections x pipeline "
        "depth 16 over sizes 64/256/1024/4096; throughput-bound, direct TCP.",
        # calibration follows each round (one burst per connection), and a
        # lap replays the whole pool, so every lap has the same size mix
        ops_per_block=MIX_ROUNDS_PER_BLOCK * 2 * MIX_DEPTH, cal_per_op=30,
        blocks_per_lap=MIX_POOL_ROUNDS // MIX_ROUNDS_PER_BLOCK,
        connections=2, ladder_reps=400,
    ),
    Workload(
        "serve_bulk_n16k", "serve",
        "The same serve layers used by bytes instead of by count: one "
        "(4, 16384) stack (1 MiB each way) per request, so frame codec, "
        "copies and the kernel dominate; must not move with ping-pong fixes.",
        ops_per_block=12, cal_per_op=15, core_share=0.3, n=1 << 14, batch=4,
        ladder_reps=150,
    ),
)


@dataclass(frozen=True)
class Metric:
    """An end-to-end metric: what a user of the system would see."""

    name: str
    unit: str
    better: str   # "lower" | "higher"
    bound: float  # allowed relative worsening of the median
    meaning: str


#: Every timing below is on the reference core's scale (``measure.Calibrator``)
#: and comes from the calmest third of a run's laps.  The timing bounds are
#: the contract's widest: on this sandbox ten runs of one tree spread by up
#: to 10 % (README, "A/A"), and a bound under three times that flags noise.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "cold start to first verified result: imports, cc probe, plan + "
           "gcc compile into an empty codelet cache, fleet spawn, connect, "
           "prewarm; each phase scaled by the core's speed around it; median "
           "of SETUP_REPEATS set-ups per run"),
    Metric("op_p50_us", "us", "lower", 0.25,
           "median wall of one operation; median over blocks of the "
           "per-block p50"),
    Metric("throughput_ops_s", "ops/s", "higher", 0.25,
           "correct ops per second of time an op was in flight; median over "
           "laps"),
    Metric("peak_rss_mb", "MiB", "lower", 0.10,
           "VmHWM of the workload process plus its server child at the end "
           "of the timed phase"),
)


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer diagnostic, measured in the traced round; never gated.

    ``moves`` names the end-to-end metric and the workload(s) a change to
    this layer should move; every pairing not listed is predicted unchanged.
    """

    name: str
    unit: str
    better: str
    moves: str
    meaning: str


_KERNELS = "kernel_2p10_b1, kernel_2p16_b8"
_SERVES = "route_pingpong_n64, serve_pipelined_mix, serve_bulk_n16k"


def _ladder(name, moves, meaning):
    return LayerMetric(name, "us", "lower", moves, meaning)


def _count(name, moves, meaning, better="lower", unit="count"):
    return LayerMetric(name, unit, better, moves, meaning)


PER_LAYER: tuple[LayerMetric, ...] = (
    # -- every workload ----------------------------------------------------
    LayerMetric("trace_overhead_frac", "ratio", "lower", "none",
                "traced op p50 / untraced op p50 - 1, from alternating laps "
                "of this run"),
    LayerMetric("verify.max_rel_err", "ratio", "lower", "none",
                "worst relative L2 error vs np.fft seen (demoted from "
                "end-to-end: varies with the seed by more than any bound "
                "<= 0.25)"),
    LayerMetric("verify.fail_frac", "ratio", "lower", "none",
                "(failed + wrong + refused ops) / attempted (demoted from "
                "end-to-end: 0 on a healthy tree, and a gated metric may "
                "not be 0; the result line's `failed` carries it)"),
    LayerMetric("harness.op_self_us", "us", "lower", "none",
                "self time of the harness's own `op` span: span + loop "
                "overhead around the call"),
    LayerMetric("harness.op_raw_p50_us", "us", "lower", "none",
                "median op wall as the clock read it, before scaling to the "
                "reference core: op_p50_us x host.slowdown"),
    LayerMetric("host.slowdown", "ratio", "lower", "none",
                "median factor the reported laps' timings were divided by: "
                "how much slower than the reference core they ran"),
    # -- kernel ladder -----------------------------------------------------
    LayerMetric("kernel.pseudo_mflops", "Mflop/s", "higher",
                f"op_p50_us on {_KERNELS}",
                "the paper's Figure-3 unit, 5 n log2 n batch / op_p50_us "
                "(demoted from end-to-end: undefined on plan_build and an "
                "exact function of op_p50_us elsewhere)"),
    _ladder("ref.npfft.call_us", "none", "np.fft.fft on the same input: "
            "the yardstick, not ours"),
    _ladder("codegen.python.call_us", "none",
            "GeneratedProgram called once per row"),
    _ladder("codegen.numpy.call_us",
            "op_p50_us on every workload on a host without cc",
            "run_batched over the NumPy backend's stages"),
    _ladder("codegen.compiled_nu1.call_us", f"op_p50_us on {_KERNELS}",
            "run_batched over compiled scalar stages"),
    _ladder("codegen.compiled_nu4.call_us",
            "op_p50_us on kernel_2p16_b8 (codelet/SIMD/layout work)",
            "run_batched over compiled nu=4 stages: the end-to-end op"),
    _ladder("smp.sequential.walk_us", "op_p50_us on kernel_2p10_b1 only",
            "SequentialRuntime.execute over the same stage list with no-op "
            "work: buffer copy + stage walk"),
    _count("codegen.compiled.stage_calls", "op_p50_us on kernel_2p10_b1",
           "stage entries per transform (exact)"),
    _count("codegen.compiled.work_items", "op_p50_us on kernel_2p10_b1",
           "ctypes calls per transform (exact)"),
    _ladder("smp.pthreads_t2.call_us", "op_p50_us only on idle cores",
            "run_batched of the threads=2 plan on PThreadsRuntime(2)"),
    _ladder("smp.pthreads_t2.walk_us", "op_p50_us only on idle cores",
            "the same with no-op work: pure barrier + wake cost"),
    _count("smp.pthreads_t2.barriers", "smp.pthreads_t2.call_us",
           "barrier episodes per transform (exact, ExecutionStats)"),
    _count("smp.pthreads_t2.parallel_stages", "smp.pthreads_t2.call_us",
           "parallel stages per transform (exact, ExecutionStats)"),
    _ladder("mp.process_t2.call_us", "op_p50_us only on idle cores",
            "ProcessPoolRuntime(2).execute_spec; kernel_2p16_b8 only"),
    _count("kernel.flops_nominal", "none", "5 n log2 n batch", unit="flop"),
    _count("kernel.bytes_moved_computed", "none",
           "2 x 16 B x n x batch x stages; computed, ignores cache misses",
           unit="B"),
    _count("kernel.stages", "op_p50_us on kernel_2p10_b1",
           "pipeline stages of the plan"),
    # -- plan pipeline (plan_build; seconds summed over the ladder) --------
    LayerMetric("rewrite.formula_s", "s", "lower",
                "throughput_ops_s on plan_build", "spiral_formula"),
    LayerMetric("vector.vectorize_s", "s", "lower",
                "throughput_ops_s on plan_build", "vectorize_formula"),
    LayerMetric("sigma.lower_s", "s", "lower",
                "throughput_ops_s on plan_build", "lower"),
    LayerMetric("codegen.python.generate_s", "s", "lower",
                "throughput_ops_s on plan_build", "generate"),
    LayerMetric("codegen.numpy.build_stages_s", "s", "lower",
                "throughput_ops_s on plan_build",
                "NumPy backend build_stages"),
    LayerMetric("codegen.compiled.emit_s", "s", "lower",
                "throughput_ops_s on plan_build", "emit_plan_source"),
    LayerMetric("codegen.compiled.cc_s", "s", "lower",
                "throughput_ops_s on plan_build; setup_s on every compiled "
                "workload",
                "compile_plan minus its emit: cc + dlopen"),
    LayerMetric("codegen.compiled.cache_hit_s", "s", "lower",
                "setup_s on a warm host",
                "compile_plan again after clear_compiled_memo(): the "
                "disk-cache read path"),
    _count("codegen.compiled.source_bytes", "codegen.compiled.cc_s",
           "emitted C over the ladder (exact)", unit="B"),
    _count("codegen.compiled.so_bytes", "peak_rss_mb",
           "shared objects over the ladder", unit="B"),
    _count("sigma.stages", "codegen.compiled.emit_s",
           "stages over the ladder (exact)"),
    _count("sigma.loops", "codegen.compiled.emit_s",
           "loops over the ladder (exact)"),
    # -- request ladder (serve workloads, same inputs) ---------------------
    _ladder("serve.protocol.encode_us", "op_p50_us on serve_bulk_n16k",
            "write_frame of the request plus of the response, on BytesIO"),
    _ladder("serve.protocol.decode_us", "op_p50_us on serve_bulk_n16k",
            "read_frame of the request plus of the response, on BytesIO"),
    _ladder("serve.plan_cache.hit_us", "op_p50_us on route_pingpong_n64",
            "PlanCache.get on a warm key"),
    _ladder("serve.batch_exec.run_us", "op_p50_us on serve_bulk_n16k",
            "run_batched of one request's rows, SequentialRuntime"),
    _ladder("serve.service.transform_us", f"op_p50_us on {_SERVES}",
            "FFTService.transform in this process, same ServeConfig"),
    _ladder("serve.service.overhead_us", "op_p50_us on route_pingpong_n64",
            "transform - hit - run: queue + dispatch + wake"),
    _ladder("serve.tcp.request_us", f"op_p50_us on {_SERVES}",
            "ServeClient.fft straight to the shard"),
    _ladder("serve.tcp.hop_us", "op_p50_us on route_pingpong_n64",
            "tcp - transform: one socket hop + handler threads"),
    _ladder("shard.router.request_us", "op_p50_us on route_pingpong_n64",
            "ServeClient.fft through ShardRouter"),
    _ladder("shard.router.hop_us", "op_p50_us on route_pingpong_n64",
            "routed - tcp: the router tax"),
    _ladder("serve.unattributed_us", f"op_p50_us on {_SERVES}",
            "op_p50_us - (encode + decode + hit + run)"),
    # -- boundary counts (deltas over the timed phase) ---------------------
    _count("serve.service.batches", "throughput_ops_s on serve_pipelined_mix",
           "stacked executions", better="lower"),
    _count("serve.service.avg_batch_occupancy",
           "throughput_ops_s on serve_pipelined_mix",
           "vectors per stacked execution", better="higher", unit="ratio"),
    _count("serve.service.rejected", "none", "admission rejections"),
    _count("serve.service.deadline_misses", "none", "queued past deadline"),
    _count("serve.service.failures", "none", "failed executions"),
    _count("serve.plan_cache.hit_rate", "none", "hits / lookups",
           better="higher", unit="ratio"),
    _count("serve.plan_cache.plans_built", "setup_s",
           "plans built during the timed phase (0 once warm)"),
    _count("serve.client.retries", "none", "client retries"),
    _count("serve.client.reconnects", "none", "client reconnects"),
    _count("shard.router.routed", "none", "requests the router placed"),
    _count("shard.router.replays", "none", "in-flight replays"),
    _count("shard.router.failovers", "none", "failovers"),
    # -- CPU split from outside --------------------------------------------
    _ladder("serve.client.cpu_us_per_op", f"op_p50_us on {_SERVES}",
            "process_time of the bench process per op (client + router)"),
    _ladder("serve.server.cpu_us_per_op", f"op_p50_us on {_SERVES}",
            "utime + stime of the shard child per op"),
    _ladder("serve.client.p99_us", "none",
            "tail latency at serve.client.tail_quantile (swings 2-3x "
            "between identical runs, hence not end-to-end)"),
    _count("serve.client.tail_quantile", "none",
           "highest of .5/.9/.95/.99 with >= 10 samples beyond it",
           unit="ratio"),
    _count("serve.client.tail_samples", "none",
           "latency samples behind serve.client.p99_us", better="higher"),
)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(
        f"unknown workload {name!r}; known: {[w.name for w in WORKLOADS]}"
    )


def manifest() -> dict:
    """The committed ``BENCHMARK.json``: exactly the driver contract's keys."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
