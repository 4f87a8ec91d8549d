"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``derive``    print the multicore Cooley-Tukey formula for (n, p, mu)
``generate``  generate a program and verify it; ``--emit-c`` writes C source
``bench``     sweep one simulated machine and print the Figure 3 panel rows
              (``--prune-cache`` instead GCs the compiled-codelet cache;
              measured speed lives in ``benchmarks/perf``)
``search``    autotune a factorization on a simulated machine, or with
              ``--measure`` rank candidates by measured wall-clock on
              the real executor registry (FFTW-planner style)
``tune``      offline measured-search sweep over sizes; persists the
              rankings as wisdom for serve/shard to reuse
``profile``   trace one transform end to end and print the per-stage report
``serve``     run the TCP/JSON FFT service (plan cache + request batching);
              ``--tune`` adds the online autotuner (knob walking + plan
              hot-swap; see docs/tuning.md)
``shard``     run a consistent-hash router over a fleet of serve shards
``loadgen``   drive a running server; throughput/latency report, JSON
              with ``--output`` (``--shards N`` instead spins up and
              drives a shard fleet; ``--tune`` runs the self-improving
              tuning-lifetime lane) — one driver, :mod:`repro.loadgen`
``check``     dynamic concurrency certification: replay the pipeline's
              plans and verify race freedom, false-sharing freedom at µ,
              and load balance (non-zero exit on any violation)
``hunt``      differential fuzzing: sweep seeded random plan configs
              across executors through the oracle stack, automatically
              reduce each failure to a 1-minimal SPL reproducer, and
              file it into the regression corpus (non-zero exit on any
              finding)

``generate``, ``bench``, ``search``, and ``profile`` accept ``--trace PATH``:
the whole command runs under a :mod:`repro.trace` tracer and the collected
timeline is written as Chrome trace-event JSON (open in ``chrome://tracing``
or Perfetto).  See ``docs/profiling.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys


@contextlib.contextmanager
def _maybe_tracing(args: argparse.Namespace):
    """Run the command under a tracer when ``--trace PATH`` was given."""
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        yield None
        return
    from .trace import Tracer, tracing, write_chrome_trace

    tracer = Tracer()
    with tracing(tracer):
        yield tracer
    out = write_chrome_trace(tracer, trace_path)
    print(f"# chrome trace written to {out}", file=sys.stderr)


def _chaos_plan(args: argparse.Namespace):
    """Context manager: ``--chaos SPEC`` installed as the process fault plan.

    Scoped (not a bare ``set_fault_plan``) so in-process callers — tests
    drive ``main()`` directly — get the null plan restored afterwards.
    """
    if not args.chaos:
        return contextlib.nullcontext()
    from .faults import fault_plan, parse_chaos_spec

    plan = parse_chaos_spec(args.chaos, seed=args.chaos_seed)
    print(
        f"# chaos mode: {args.chaos} (seed={args.chaos_seed})",
        file=sys.stderr,
    )
    return fault_plan(plan)


def _serve_config(args: argparse.Namespace, **extra):
    """The :class:`ServeConfig` the ``_add_serve_config_flags`` flags spell."""
    from .serve import ServeConfig

    return ServeConfig(
        threads=args.threads,
        mu=args.mu,
        window_s=args.window_ms / 1e3,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        cache_capacity=args.cache_capacity,
        wisdom_path=args.wisdom,
        runtime=args.runtime,
        backend=args.backend,
        **extra,
    )


def _cmd_derive(args: argparse.Namespace) -> int:
    from .rewrite import RewriteTrace, derive_multicore_ct
    from .spl import format_expr, is_fully_optimized

    trace = RewriteTrace()
    f = derive_multicore_ct(args.n, args.threads, args.mu, trace=trace)
    print(format_expr(f, unicode=not args.ascii))
    print(f"# rewrite steps: {len(trace)}", file=sys.stderr)
    print(
        f"# Definition 1 (p={args.threads}, mu={args.mu}): "
        f"{is_fully_optimized(f, args.threads, args.mu)}",
        file=sys.stderr,
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .frontend import feasible_threads, generate_fft, verify_program

    t = feasible_threads(args.n, args.threads, args.mu)
    with _maybe_tracing(args):
        gen = generate_fft(args.n, threads=t, mu=args.mu, nu=args.nu)
        ok = verify_program(gen)
        nu_note = f", nu={args.nu}" if args.nu > 1 else ""
        print(
            f"# DFT_{args.n}, p={args.threads}(t={t}), mu={args.mu}{nu_note}: "
            f"{len(gen.stages)} stages, verified={ok}",
            file=sys.stderr,
        )
        if args.emit_c:
            from .codegen import generate_c

            # the program just verified, not a second derivation of it
            print(generate_c(gen.program, mode=args.mode).source)
        else:
            print(gen.source)
    return 0 if ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.prune_cache:
        return _cmd_bench_prune_cache(args)
    if args.machine is None:
        print(
            "error: a machine name is required for the simulated-machine "
            "panel (measured speed: python3 benchmarks/perf/run.py)",
            file=sys.stderr,
        )
        return 2
    from .baselines import FFTWModel
    from .frontend import SpiralSMP
    from .machine import SyncProfile, machine

    spec = machine(args.machine)
    with _maybe_tracing(args):
        spiral = SpiralSMP(spec)
        fftw = FFTWModel(spec)
        print(f"# {spec.name} — pseudo Mflop/s (5 n log2 n / us)")
        print(
            "log2n,spiral_seq,spiral_pthreads,spiral_openmp,"
            "fftw_seq,fftw_best,fftw_threads"
        )
        for k in range(args.kmin, args.kmax + 1):
            n = 1 << k
            plan = fftw.plan(n)
            print(
                f"{k},{spiral.pseudo_mflops(n, 1):.0f},"
                f"{spiral.pseudo_mflops(n, spec.p, SyncProfile.POOLED):.0f},"
                f"{spiral.pseudo_mflops(n, spec.p, SyncProfile.FORK_JOIN):.0f},"
                f"{fftw.cost_sequential(n).pseudo_mflops(spec):.0f},"
                f"{plan.pseudo_mflops(spec):.0f},{plan.threads}"
            )
    return 0


def _cmd_bench_prune_cache(args: argparse.Namespace) -> int:
    """``bench --prune-cache``: GC the content-addressed codelet cache."""
    from .codegen import prune_codelet_cache

    report = prune_codelet_cache(max_entries=args.cache_max)
    print(
        f"# codelet cache: {report['entries']} entr(ies), "
        f"pruned {report['pruned']} "
        f"({report['bytes_freed']} bytes), kept {report['kept']}; "
        f"{report['codelets']} codelet object(s), "
        f"pruned {report['codelets_pruned']}"
    )
    if args.cache_max is None:
        print(
            "# (report only: pass --cache-max N, or set "
            "$REPRO_CODELET_CACHE_MAX to prune after every compile)",
            file=sys.stderr,
        )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.measure:
        return _cmd_search_measure(args)
    from .machine import machine, SyncProfile
    from .search import dp_search, model_objective

    spec = machine(args.machine)
    with _maybe_tracing(args):
        res = dp_search(
            args.n,
            model_objective(spec, 1, SyncProfile.NONE),
            leaf_max=args.leaf_max,
        )
        print(f"# best factorization tree for DFT_{args.n} on {spec.name}")
        print(f"tree: {res.tree}")
        print(f"modeled cycles: {res.value:.0f}")
        print(f"objective evaluations: {res.evaluations}")
    return 0


def _cmd_search_measure(args: argparse.Namespace) -> int:
    """``search --measure``: time real candidates instead of the model."""
    from .tune import measured_search
    from .wisdom import Wisdom

    wisdom = Wisdom(args.wisdom) if args.wisdom else None
    with _maybe_tracing(args):
        result = measured_search(
            args.n,
            threads=args.threads,
            mu=args.mu,
            backend=args.backend,
            runtime=args.runtime,
            budget=args.budget,
            repeats=args.repeats,
            batch=args.batch,
            seed=args.seed,
            wisdom=wisdom,
        )
    print(
        f"# measured search for DFT_{args.n} "
        f"(threads={result.threads}, mu={result.mu}, "
        f"backend={result.backend}, runtime={result.runtime}, "
        f"batch={result.batch}, best-of-{result.repeats}, "
        f"seed={result.seed})"
    )
    print("rank,candidate,per_vector_ms,pseudo_mflops")
    for i, m in enumerate(result.ranking):
        vec = f"/v{m.nu}" if m.nu > 1 else ""
        print(
            f"{i},{m.strategy}/leaf{m.min_leaf}{vec},"
            f"{m.per_vector_ms:.4f},{m.pseudo_mflops:.0f}"
        )
    if wisdom is not None:
        print(f"# ranking persisted to {args.wisdom}", file=sys.stderr)
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """Offline measured-search sweep; persists rankings as wisdom."""
    import json

    from .tune import measured_search
    from .hunt.oracles import ExecutorPools
    from .wisdom import Wisdom

    sizes = [int(s) for s in args.sizes.split(",") if s]
    wisdom = Wisdom(args.wisdom) if args.wisdom else None
    results = []
    pools = ExecutorPools()
    try:
        with _maybe_tracing(args):
            print(
                f"# measured tune sweep: sizes={sizes} "
                f"threads={args.threads} mu={args.mu} "
                f"backend={args.backend} runtime={args.runtime} "
                f"budget={args.budget} best-of-{args.repeats}"
            )
            print("n,best,per_vector_ms,pseudo_mflops,candidates")
            for n in sizes:
                result = measured_search(
                    n,
                    threads=args.threads,
                    mu=args.mu,
                    backend=args.backend,
                    runtime=args.runtime,
                    budget=args.budget,
                    repeats=args.repeats,
                    batch=args.batch,
                    seed=args.seed,
                    pools=pools,
                    wisdom=wisdom,
                )
                best = result.best
                vec = f"/v{best.nu}" if best.nu > 1 else ""
                print(
                    f"{n},{best.strategy}/leaf{best.min_leaf}{vec},"
                    f"{best.per_vector_ms:.4f},{best.pseudo_mflops:.0f},"
                    f"{len(result.ranking)}"
                )
                results.append(result.to_json())
    finally:
        pools.close()
    if wisdom is not None:
        print(f"# rankings persisted to {args.wisdom}", file=sys.stderr)
    if args.output:
        with open(args.output, "w") as f:
            json.dump({"sweeps": results}, f, indent=2)
        print(f"# report written to {args.output}", file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .trace import profile_transform

    result = profile_transform(
        args.size,
        threads=args.threads,
        mu=args.mu,
        machine_name=args.machine,
        runtime=args.runtime,
    )
    print(
        f"# DFT_{args.size}, p={args.threads}(t={result.threads}), "
        f"mu={args.mu}",
        file=sys.stderr,
    )
    print(result.render_text())
    if args.trace is not None:
        result.write_trace(args.trace)
        print(f"# chrome trace written to {args.trace}", file=sys.stderr)
    if result.verified is False:
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import FFTService
    from .serve.server import FFTServer, graceful_shutdown, \
        install_signal_handlers

    config = _serve_config(
        args,
        nu=args.nu,
        tune=args.tune,
        tune_interval_s=args.tune_interval_ms / 1e3,
        p99_target_ms=args.p99_target_ms,
    )
    with _chaos_plan(args), _maybe_tracing(args):
        service = FFTService(config)
        server = FFTServer((args.host, args.port), service)
        tune_note = (
            f", tuner on (interval={args.tune_interval_ms}ms, "
            f"p99-target={args.p99_target_ms}ms)" if args.tune else ""
        )
        print(
            f"# repro serve listening on {args.host}:{server.port} "
            f"(runtime={args.runtime}, backend={args.backend}, "
            f"threads={args.threads}, "
            f"mu={args.mu}, window={args.window_ms}ms, "
            f"max-batch={args.max_batch}, queue-limit={args.queue_limit}"
            f"{tune_note})",
            file=sys.stderr,
        )
        done = install_signal_handlers(server, service)
        try:
            server.serve_forever()
            # the signal handler's shutdown thread finishes the drain
            done.wait(timeout=60)
            print("# drained and shut down", file=sys.stderr)
        except KeyboardInterrupt:  # pragma: no cover - handler owns SIGINT
            print("# shutting down", file=sys.stderr)
            graceful_shutdown(server, service)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Sweep the pipeline's plans through the dynamic concurrency checker."""
    from .check import check_backend_program, check_program, compare_plans
    from .codegen import BackendUnavailable, resolve_backend
    from .mp.spec import PlanSpec
    from .serve.plan_cache import build_plan

    if args.backend != "numpy":
        # strict: an explicit --backend request on a host that cannot run
        # it should fail loudly, not silently certify the numpy fallback
        try:
            resolve_backend(args.backend, strict=True)
        except BackendUnavailable as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    threads_list = [int(t) for t in args.threads.split(",") if t]
    mu_list = [int(m) for m in args.mu.split(",") if m]
    failures = 0
    checked = 0
    with _chaos_plan(args), _maybe_tracing(args):
        for k in range(args.kmin, args.kmax + 1):
            n = 1 << k
            for p in threads_list:
                for mu in mu_list:
                    spec = PlanSpec.for_request(
                        n, p, mu, args.strategy, nu=args.nu
                    )
                    t = spec.threads
                    # every runtime runs this one record (a process-pool
                    # worker builds the same spec); a second build must
                    # reproduce it exactly
                    prog = build_plan(spec).program.program
                    report = check_program(prog, mu, max_skew=args.skew)
                    checked += 1
                    status = "OK" if report.ok else "FAIL"
                    print(
                        f"n=2^{k} p={p}(t={t}) mu={mu}: "
                        f"stages={report.stages} "
                        f"windows={report.windows} "
                        f"elided={report.elided_certified}/"
                        f"{report.elided} {status}"
                    )
                    for f in report.findings:
                        print(f"  {f}")
                    if not report.ok:
                        failures += 1
                    if args.backend != "numpy":
                        diffs = check_backend_program(prog, args.backend)
                        for f in diffs:
                            print(f"  backend: {f}")
                        if diffs:
                            failures += 1
                        else:
                            print(f"  backend={args.backend}: differential OK")
                    for f in compare_plans(
                        prog, build_plan(spec).program.program
                    ):
                        print(f"  {f}")
                        failures += 1
    print(
        f"# {checked} plan(s) checked, {failures} failure(s)",
        file=sys.stderr,
    )
    return 1 if failures else 0


def _cmd_hunt(args: argparse.Namespace) -> int:
    """Differential-fuzz the pipeline; reduce and file every failure."""
    from .codegen import BackendUnavailable, resolve_backend
    from .hunt import BACKENDS, HuntConfig, run_hunt

    if args.backend == "all":
        backends = BACKENDS
    else:
        backends = (args.backend,)
        if args.backend != "numpy":
            # strict: an explicit single-backend hunt on a host that
            # cannot run it should fail loudly, not fuzz the fallback
            try:
                resolve_backend(args.backend, strict=True)
            except BackendUnavailable as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2

    config = HuntConfig(
        budget=args.budget,
        seed=args.seed,
        backends=backends,
        reduce=args.reduce,
        corpus_dir=args.corpus,
        wisdom_path=args.wisdom,
        nus=tuple(int(v) for v in args.nus.split(",") if v),
    )
    with _chaos_plan(args), _maybe_tracing(args):
        report = run_hunt(config)
    print(report.render_text())
    print(
        f"# {report.cases} case(s), {len(report.findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if report.findings else 0


def _cmd_shard(args: argparse.Namespace) -> int:
    """Run a consistent-hash router fronting a fleet of serve shards."""
    import signal
    import threading

    from .shard import ShardFleet, ShardRouter

    config = _serve_config(args)
    with _chaos_plan(args), _maybe_tracing(args):
        fleet = ShardFleet(
            args.shards, config, vnodes=args.vnodes, replicas=args.replicas
        )
        router = ShardRouter((args.host, args.port), fleet)
        stop = threading.Event()
        for s in (signal.SIGTERM, signal.SIGINT):
            signal.signal(s, lambda *_: stop.set())
        router.serve_background()
        ports = {sid: fleet.address(sid)[1] for sid in fleet.shard_ids}
        print(
            f"# repro shard: router on {args.host}:{router.port} over "
            f"{args.shards} shard(s) {ports} "
            f"(vnodes={args.vnodes}, replicas={args.replicas}, "
            f"threads={args.threads}, mu={args.mu})",
            file=sys.stderr,
        )
        try:
            stop.wait()
            print("# shutting down fleet", file=sys.stderr)
        finally:
            router.close()
            fleet.close()
        print("# fleet drained and shut down", file=sys.stderr)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """``loadgen``: one driver, three lanes (server | --shards | --tune)."""
    from . import loadgen as lg

    sys.setswitchinterval(0.0005)  # same rationale as in serve
    traffic = dict(
        sizes=[int(s) for s in args.sizes.split(",") if s],
        clients=args.clients,
        pipeline=args.pipeline,
        threads=args.threads,
        mu=args.mu,
        output=args.output,
    )
    if args.seed is not None:
        traffic["seed"] = args.seed
    if args.tune:
        report = lg.run_tune_loadgen(lg.TuneLoadgenConfig(
            **traffic,
            windows=args.windows,
            window_duration_s=args.window_duration_ms / 1e3,
            p99_target_ms=args.p99_target_ms,
            initial_window_ms=args.initial_window_ms,
            tune_interval_s=args.tune_interval_ms / 1e3,
            swap_window=args.swap_window,
            chaos=args.chaos,
            chaos_seed=args.chaos_seed,
        ))
        print(lg.render_tune_report(report))
        integ = report["integrity"]
        failed = integ["lost"] or integ["corrupt"]
    elif args.shards is not None:
        report = lg.run_shard_loadgen(lg.ShardLoadgenConfig(
            **traffic,
            shards=args.shards,
            requests=args.requests,
            verify=args.verify,
            kill_after_s=args.kill_after,
            baseline=not args.no_baseline,
            replicas=args.replicas,
            window_ms=args.window_ms,
            queue_limit=args.queue_limit,
        ))
        print(lg.render_shard_report(report))
        failed = report["measured"]["lost"]
    else:
        report = lg.run_loadgen(lg.LoadgenConfig(
            **traffic,
            host=args.host,
            port=args.port,
            requests=args.requests,
            baseline_requests=args.baseline_requests,
            verify=args.verify,
        ))
        print(lg.render_report(report))
        failed = False
    if args.output:
        print(f"# report written to {args.output}", file=sys.stderr)
    return 1 if failed else 0


def _add_serve_config_flags(parser, scope: str = "") -> None:
    """The service knobs ``serve`` and ``shard`` share (see ``_serve_config``);
    ``scope`` prefixes the help of the knobs a fleet applies per shard."""
    parser.add_argument("--threads", "-p", type=int, default=1)
    parser.add_argument("--mu", type=int, default=4)
    parser.add_argument(
        "--window-ms",
        type=float,
        default=0.0,
        help=f"{scope}max batching wait in milliseconds; 0 (default) "
        "batches continuously: each execution coalesces whatever queued "
        "during the previous one",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=48,
        help=f"{scope}max vectors coalesced into one stacked execution",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=512,
        help=f"{scope}max pending vectors before requests are rejected",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=64,
        help=f"{scope}plan-cache entries kept (LRU beyond this)",
    )
    parser.add_argument(
        "--wisdom",
        metavar="PATH",
        default=None,
        help="build each lane's measured best from this wisdom JSON file "
        "and record into it (one file shared by every shard of a fleet: "
        "fleet-wide tuning reuse)",
    )
    parser.add_argument(
        "--runtime",
        choices=["threads", "process"],
        default="threads",
        help=f"{scope}worker pool kind: GIL-bound threads (default) or the "
        "multiprocess shared-memory runtime (real parallel speedup; "
        "see docs/parallel.md)",
    )
    parser.add_argument(
        "--backend",
        choices=["numpy", "compiled", "simulator"],
        default="numpy",
        help=f"{scope}execution backend for plan stages (compiled JITs C "
        "codelets when a compiler is present; falls back to numpy "
        "otherwise — see docs/codegen.md)",
    )


def _add_chaos_flags(parser, what: str) -> None:
    """``--chaos SPEC`` / ``--chaos-seed`` (consumed by ``_chaos_plan``)."""
    parser.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help=what + " — comma-separated 'point:rate[:delay_ms]' items",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the chaos fault plan's random stream",
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Spiral-SMP reproduction: FFT program generation for "
        "shared memory (SC'06)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_trace_flag(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--trace",
            metavar="PATH",
            default=None,
            help="write a Chrome trace-event JSON of this run to PATH",
        )

    d = sub.add_parser("derive", help="derive the multicore CT formula")
    d.add_argument("n", type=int)
    d.add_argument("--threads", "-p", type=int, default=2)
    d.add_argument("--mu", type=int, default=4)
    d.add_argument("--ascii", action="store_true")
    d.set_defaults(fn=_cmd_derive)

    g = sub.add_parser("generate", help="generate and verify a program")
    g.add_argument("n", type=int)
    g.add_argument("--threads", "-p", type=int, default=1)
    g.add_argument("--mu", type=int, default=4)
    g.add_argument("--emit-c", action="store_true")
    g.add_argument(
        "--nu",
        type=int,
        default=1,
        help="vec(ν) granularity: rewrite the formula into ν-way "
        "vector form before lowering (1 = scalar; inadmissible ν "
        "degrades to the scalar plan with a warning)",
    )
    g.add_argument(
        "--mode",
        choices=["pthreads", "openmp", "sequential"],
        default="pthreads",
    )
    add_trace_flag(g)
    g.set_defaults(fn=_cmd_generate)

    b = sub.add_parser(
        "bench",
        help="sweep a simulated machine (the Figure 3 panel), or GC the "
        "codelet cache (--prune-cache); measured speed is benchmarks/perf",
    )
    b.add_argument(
        "machine",
        nargs="?",
        default=None,
        choices=["core_duo", "pentium_d", "opteron", "xeon_mp", "cmp8"],
        help="simulated machine for the model panel (omit with "
        "--prune-cache)",
    )
    b.add_argument("--kmin", type=int, default=6)
    b.add_argument("--kmax", type=int, default=14)
    b.add_argument(
        "--prune-cache",
        action="store_true",
        help="garbage-collect the content-addressed compiled-codelet "
        "cache (LRU by last use) and exit; without --cache-max this "
        "only reports",
    )
    b.add_argument(
        "--cache-max",
        type=int,
        metavar="N",
        default=None,
        help="with --prune-cache: keep at most N cached codelet "
        "artifacts ($REPRO_CODELET_CACHE_MAX makes every compile "
        "auto-prune to the same bound)",
    )
    add_trace_flag(b)
    b.set_defaults(fn=_cmd_bench)

    s = sub.add_parser(
        "search",
        help="autotune a factorization (modeled cycles by default; "
        "--measure times real candidates on this host)",
    )
    s.add_argument("n", type=int)
    s.add_argument("--machine", default="core_duo")
    s.add_argument("--leaf-max", type=int, default=32)
    s.add_argument(
        "--measure",
        action="store_true",
        help="rank candidates by measured wall-clock on the real "
        "executor registry instead of the analytic cycle model "
        "(FFTW-planner style; see docs/tuning.md)",
    )
    s.add_argument(
        "--threads", "-p", type=int, default=1,
        help="with --measure: worker count for the timed executor",
    )
    s.add_argument(
        "--mu", type=int, default=4,
        help="with --measure: cache-line length of the timed plans",
    )
    s.add_argument(
        "--backend",
        choices=["numpy", "compiled", "simulator"],
        default="numpy",
        help="with --measure: execution backend the candidates run on",
    )
    s.add_argument(
        "--runtime",
        choices=["sequential", "pthreads", "process"],
        default="sequential",
        help="with --measure: runtime the candidates are timed under",
    )
    s.add_argument(
        "--budget", type=int, default=8,
        help="with --measure: max candidates timed (seeded-shuffle "
        "prefix of the space)",
    )
    s.add_argument(
        "--repeats", type=int, default=3,
        help="with --measure: timing repeats, best-of",
    )
    s.add_argument(
        "--batch", type=int, default=1,
        help="with --measure: stacked vectors per timed execution",
    )
    s.add_argument(
        "--wisdom", metavar="PATH", default=None,
        help="with --measure: persist the ranking into this wisdom "
        "JSON (the record repro serve --wisdom builds from)",
    )
    s.add_argument(
        "--seed", type=int, default=None,
        help="with --measure: candidate-order/input seed "
        "(default: $REPRO_SEED, else 0)",
    )
    add_trace_flag(s)
    s.set_defaults(fn=_cmd_search)

    tn = sub.add_parser(
        "tune",
        help="offline measured-search sweep over sizes; persists "
        "rankings as wisdom for serve/shard to reuse",
    )
    tn.add_argument(
        "--sizes",
        default="64,128,256",
        help="comma-separated transform sizes to tune",
    )
    tn.add_argument("--threads", "-p", type=int, default=1)
    tn.add_argument("--mu", type=int, default=4)
    tn.add_argument(
        "--backend",
        choices=["numpy", "compiled", "simulator"],
        default="numpy",
        help="execution backend the candidates run on",
    )
    tn.add_argument(
        "--runtime",
        choices=["sequential", "pthreads", "process"],
        default="sequential",
        help="runtime the candidates are timed under",
    )
    tn.add_argument(
        "--budget", type=int, default=8,
        help="max candidates timed per size",
    )
    tn.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats, best-of",
    )
    tn.add_argument(
        "--batch", type=int, default=8,
        help="stacked vectors per timed execution (serving-shaped)",
    )
    tn.add_argument(
        "--wisdom", metavar="PATH", default=None,
        help="persist rankings into this wisdom JSON file",
    )
    tn.add_argument(
        "--output", metavar="PATH", default=None,
        help="also write the full sweep report as JSON here",
    )
    tn.add_argument(
        "--seed", type=int, default=None,
        help="candidate-order/input seed (default: $REPRO_SEED, else 0)",
    )
    add_trace_flag(tn)
    tn.set_defaults(fn=_cmd_tune)

    pr = sub.add_parser(
        "profile",
        help="trace one transform end to end; per-stage cycle/miss report",
    )
    pr.add_argument("--size", "-n", type=int, required=True)
    pr.add_argument("--threads", "-p", type=int, default=1)
    pr.add_argument("--mu", type=int, default=4)
    pr.add_argument("--machine", default="core_duo")
    pr.add_argument(
        "--runtime",
        choices=["pthreads", "sequential"],
        default="pthreads",
    )
    add_trace_flag(pr)
    pr.set_defaults(fn=_cmd_profile)

    sv = sub.add_parser(
        "serve",
        help="TCP/JSON FFT service: shared plan cache, request batching, "
        "backpressure",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=7373)
    _add_serve_config_flags(sv)
    sv.add_argument(
        "--nu",
        type=int,
        default=1,
        help="default vec(ν) granularity for served plans (nu > 1 "
        "emits ν-wide SIMD stage bodies on the compiled backend; "
        "inadmissible ν degrades to the scalar plan)",
    )
    sv.add_argument(
        "--tune",
        action="store_true",
        help="run the background autotuner: records per-plan latency "
        "into wisdom, AIMD-tunes the batcher knobs toward "
        "--p99-target-ms, and hot-swaps regressed plans with zero "
        "dropped requests (see docs/tuning.md)",
    )
    sv.add_argument(
        "--tune-interval-ms",
        type=float,
        default=500.0,
        help="tuner tick period in milliseconds",
    )
    sv.add_argument(
        "--p99-target-ms",
        type=float,
        default=None,
        help="with --tune: latency goal the batcher knobs walk toward "
        "(omit to leave the knobs alone and only re-search regressions)",
    )
    _add_chaos_flags(
        sv,
        "inject faults, e.g. 'runtime.worker_crash:0.1,net.conn_reset:0.05' "
        "(see docs/serving.md for the injection points)",
    )
    add_trace_flag(sv)
    sv.set_defaults(fn=_cmd_serve)

    sh = sub.add_parser(
        "shard",
        help="consistent-hash router over a fleet of supervised serve "
        "shards (clients connect to the router unchanged)",
    )
    sh.add_argument("--host", default="127.0.0.1")
    sh.add_argument(
        "--port",
        type=int,
        default=7380,
        help="router listen port (shards bind ephemeral local ports)",
    )
    sh.add_argument(
        "--shards", type=int, default=2, help="shard worker processes"
    )
    sh.add_argument(
        "--vnodes",
        type=int,
        default=64,
        help="virtual nodes per shard on the hash ring",
    )
    sh.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="ring successors prewarmed per plan key (the failover heirs)",
    )
    _add_serve_config_flags(sh, scope="per-shard ")
    _add_chaos_flags(
        sh,
        "inject faults, e.g. 'shard.worker_crash:0.01' (the supervisor "
        "kills and heals shards) or 'shard.route_flap:0.05' (requests "
        "divert to ring successors); see docs/sharding.md",
    )
    add_trace_flag(sh)
    sh.set_defaults(fn=_cmd_shard)

    lg = sub.add_parser(
        "loadgen",
        help="drive a running 'repro serve'; report throughput and latency "
        "percentiles",
    )
    lg.add_argument("--host", default="127.0.0.1")
    lg.add_argument("--port", type=int, default=7373)
    lg.add_argument(
        "--sizes",
        default="64,128",
        help="comma-separated transform sizes to cycle through",
    )
    lg.add_argument(
        "--clients", type=int, default=4, help="concurrent closed-loop clients"
    )
    lg.add_argument(
        "--requests", type=int, default=500, help="requests per client"
    )
    lg.add_argument(
        "--pipeline",
        type=int,
        default=16,
        help="in-flight requests each client keeps on its connection",
    )
    lg.add_argument("--threads", "-p", type=int, default=None)
    lg.add_argument("--mu", type=int, default=None)
    lg.add_argument(
        "--baseline-requests",
        type=int,
        default=400,
        help="length of the unbatched one-request-at-a-time baseline phase",
    )
    lg.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the JSON report here (default: no file; the summary "
        "is printed either way)",
    )
    lg.add_argument(
        "--seed",
        type=int,
        default=None,
        help="payload-generator seed (default: $REPRO_SEED, else 0)",
    )
    lg.add_argument(
        "--verify",
        choices=["first", "all", "none"],
        default="first",
        help="check results against numpy: one per worker (first, "
        "default), every result (all), or skip (none)",
    )
    lg.add_argument(
        "--shards",
        type=int,
        default=None,
        help="measure an in-process shard fleet of this size instead of "
        "a running server (ignores --host/--port; reports per-shard "
        "percentiles and the fleet-vs-one-shard speedup)",
    )
    lg.add_argument(
        "--kill-after",
        type=float,
        metavar="SECONDS",
        default=None,
        help="with --shards: SIGKILL one shard this long into the "
        "measured phase (the chaos lane; the run must still complete "
        "every request)",
    )
    lg.add_argument(
        "--no-baseline",
        action="store_true",
        help="with --shards: skip the 1-shard reference fleet phase",
    )
    lg.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="with --shards: ring successors prewarmed per plan key",
    )
    lg.add_argument(
        "--window-ms",
        type=float,
        default=0.0,
        help="with --shards: per-shard batching window (dispatcher-bound "
        "workloads show the sharding speedup on any host; see "
        "docs/sharding.md)",
    )
    lg.add_argument(
        "--queue-limit",
        type=int,
        default=512,
        help="with --shards: per-shard pending-vector admission bound",
    )
    lg.add_argument(
        "--tune",
        action="store_true",
        help="tuning-lifetime lane: start an in-process, deliberately "
        "mistuned server with the autotuner on and report throughput/p99 "
        "per window over the run (a mid-run hot-swap under load must "
        "lose zero acknowledged requests)",
    )
    lg.add_argument(
        "--windows",
        type=int,
        default=6,
        help="with --tune: consecutive measurement windows",
    )
    lg.add_argument(
        "--window-duration-ms",
        type=float,
        default=600.0,
        help="with --tune: length of each measurement window",
    )
    lg.add_argument(
        "--p99-target-ms",
        type=float,
        default=5.0,
        help="with --tune: the tuner's latency goal",
    )
    lg.add_argument(
        "--initial-window-ms",
        type=float,
        default=25.0,
        help="with --tune: the deliberately mistuned starting batch "
        "window the tuner must walk down from",
    )
    lg.add_argument(
        "--tune-interval-ms",
        type=float,
        default=150.0,
        help="with --tune: tuner tick period",
    )
    lg.add_argument(
        "--swap-window",
        type=int,
        default=2,
        help="with --tune: window (0-based) at whose start every hot "
        "plan is force-retuned and hot-swapped under load (-1 disables)",
    )
    _add_chaos_flags(
        lg,
        "with --tune: inject faults, e.g. 'tune.swap_corrupt:1.0' (every "
        "swap dies mid-commit; the old plan must keep serving with a "
        "clean integrity block)",
    )
    lg.set_defaults(fn=_cmd_loadgen)

    ck = sub.add_parser(
        "check",
        help="replay generated plans; certify race freedom, false-sharing "
        "freedom at mu, and load balance (non-zero exit on violations)",
    )
    ck.add_argument("--kmin", type=int, default=4)
    ck.add_argument("--kmax", type=int, default=12)
    ck.add_argument(
        "--threads",
        "-p",
        default="2,4",
        help="comma-separated requested processor counts (clamped by "
        "feasible_threads per size)",
    )
    ck.add_argument(
        "--mu",
        default="1,2,4",
        help="comma-separated cache-line lengths (elements) to certify",
    )
    ck.add_argument(
        "--strategy",
        default="balanced",
        help="breakdown strategy for the generated plans",
    )
    ck.add_argument(
        "--skew",
        type=float,
        default=1.25,
        help="load-balance bound: max per-proc work over the mean",
    )
    ck.add_argument(
        "--backend",
        choices=["numpy", "compiled", "simulator"],
        default="numpy",
        help="also differentially verify this execution backend's "
        "stages against the DFT and the numpy backend on every "
        "checked plan (strict: errors if unavailable)",
    )
    ck.add_argument(
        "--nu",
        type=int,
        default=1,
        help="vec(ν) granularity for the checked plans: certifies the "
        "vector-lowered loop structure (and, with --backend, the ν-wide "
        "compiled stages) instead of the scalar plans",
    )
    _add_chaos_flags(
        ck,
        "sabotage plans before checking, e.g. 'check.overlapping_write:1.0' "
        "(the checker must fail)",
    )
    add_trace_flag(ck)
    ck.set_defaults(fn=_cmd_check)

    hu = sub.add_parser(
        "hunt",
        help="differential fuzzing across executors with automatic "
        "reduction of failures to 1-minimal SPL reproducers (non-zero "
        "exit on findings)",
    )
    hu.add_argument(
        "--budget",
        type=int,
        default=64,
        help="seeded random configurations to sweep",
    )
    hu.add_argument(
        "--seed",
        type=int,
        default=None,
        help="case-sampler seed (default: $REPRO_SEED, else 0)",
    )
    hu.add_argument(
        "--backend",
        choices=["numpy", "compiled", "simulator", "all"],
        default="numpy",
        help="execution backend pool to draw from; 'all' sweeps every "
        "registered backend (a single non-numpy choice is strict: "
        "errors if unavailable on this host)",
    )
    hu.add_argument(
        "--reduce",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="shrink each failure to a 1-minimal reproducer before "
        "filing (--no-reduce files the raw failing case)",
    )
    hu.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="file minimized reproducers into this directory as JSON "
        "(the committed lane uses tests/hunt/corpus)",
    )
    hu.add_argument(
        "--wisdom",
        metavar="PATH",
        default=None,
        help="extend the config space with tuned-plan provenance: cases "
        "whose lane carries a measured ranking in this wisdom file "
        "adopt its best strategy (provenance=wisdom), so the fuzzer "
        "hammers exactly the plans production would load",
    )
    hu.add_argument(
        "--nus",
        default="1,2,4",
        help="comma-separated vec(ν) pool for the vectorized-term lane "
        "(e.g. '1' restores the scalar-only sweep; '2,4' fuzzes only "
        "ν-way plans)",
    )
    _add_chaos_flags(
        hu,
        "sabotage the oracle pipeline, e.g. 'hunt.exec_corrupt:1.0' or "
        "'hunt.plan_sabotage:1.0' (the hunt must find and reduce the "
        "planted failure: the CI inverted lane)",
    )
    add_trace_flag(hu)
    hu.set_defaults(fn=_cmd_hunt)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
