"""The one load driver: closed-loop clients behind every ``repro loadgen`` lane.

Load for the acceptance lanes is generated in exactly one place.  One
worker loop (:func:`_worker`) keeps ``pipeline`` single-vector requests in
flight on its own TCP connection, rides out rejections, faults and resets
under :data:`_LOADGEN_RETRY`, and checks results against ``np.fft``; one
phase driver (:func:`_drive`) runs ping → verified warmup → workers →
optional ``during`` hook → join → final ``stats`` and returns the same
phase dict for every lane (``requests, completed, lost, corrupt, wall_s,
throughput_rps, latency, overload_retries, reconnects``); one writer
(:func:`_finish_report`) adds the host block and writes the JSON.

The three lanes only build a topology and add their own report blocks:

* :func:`run_loadgen` — an already-running server: the measured phase,
  an unbatched one-at-a-time baseline (the same driver with one client,
  nothing in flight, batching bypassed per request) and the single-flight
  check (plans built == unique plan keys);
* :func:`run_shard_loadgen` — an in-process fleet + router on ephemeral
  ports: per-shard percentiles, router/fleet counters, an optional
  1-shard baseline, and the chaos lane (``kill_after_s`` SIGKILLs one
  shard mid-run; every request must still complete, verified);
* :func:`run_tune_loadgen` — an in-process server with the
  :class:`~repro.tune.Tuner` on, driven through consecutive
  measurement windows with a forced hot-swap of every hot plan at
  ``swap_window``; every response is verified, so the integrity block
  proves zero lost and zero wrong answers across the swap (and, with
  ``chaos="tune.swap_corrupt:1.0"``, across swaps that die mid-commit).

Speed is not measured here — that is ``benchmarks/perf``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import platform
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .faults import fault_plan, parse_chaos_spec
from .seeding import default_seed, derive_seed
from .serve.client import RetryPolicy, ServeClient
from .serve.metrics import latency_summary
from .serve.server import FFTServer, graceful_shutdown
from .serve.service import FFTService, ServeConfig
from .shard.fleet import ShardFleet
from .shard.router import ShardRouter


@dataclass
class _Traffic:
    """The traffic every lane generates (declared once, inherited thrice)."""

    sizes: list[int] = field(default_factory=lambda: [64, 128])
    clients: int = 4             #: concurrent closed-loop workers
    pipeline: int = 16           #: in-flight requests per client
    threads: Optional[int] = None  #: plan hint (None: the server's default)
    mu: Optional[int] = None
    #: payload-generator seed; defaults from $REPRO_SEED (repro.seeding)
    seed: int = field(default_factory=default_seed)
    output: Optional[str] = None  #: JSON report path (None: no file)


@dataclass
class LoadgenConfig(_Traffic):
    """``repro loadgen``: drive an already-running server."""

    host: str = "127.0.0.1"
    port: int = 7373
    requests: int = 500          #: requests per client (measured phase)
    baseline_requests: int = 400   #: unbatched one-at-a-time phase length
    #: "first" checks one result per worker against numpy, "all" checks
    #: every result (the chaos suite's zero-wrong-answers mode), "none" skips
    verify: str = "first"


@dataclass
class ShardLoadgenConfig(_Traffic):
    """``repro loadgen --shards N``: an in-process fleet behind a router."""

    shards: int = 2
    requests: int = 150          #: requests per client (each phase)
    verify: str = "first"        #: "first" | "all" | "none" (as loadgen)
    queue_limit: int = 512       #: per-shard admission bound (as serve)
    baseline: bool = True        #: run the 1-shard reference fleet
    kill_after_s: Optional[float] = None  #: chaos: SIGKILL a shard mid-run
    replicas: int = 1


@dataclass
class TuneLoadgenConfig(_Traffic):
    """``repro loadgen --tune``: a server re-tuning its plans live."""

    windows: int = 6             #: consecutive measurement windows
    window_duration_s: float = 0.6
    tune_interval_s: float = 0.15
    #: force measured re-search + hot-swap of every hot plan at the start
    #: of this window (0-based); -1 disables the forced swap
    swap_window: int = 2
    chaos: Optional[str] = None  #: e.g. "tune.swap_corrupt:1.0"
    chaos_seed: int = 0


#: generous policy for load tests: ride out bursts, resets, and faults
_LOADGEN_RETRY = RetryPolicy(attempts=10, base_s=0.005, max_s=0.25)

#: how long a worker gets to notice ``stop``; one still alive after this
#: is reported as an error, never as a clean run
_JOIN_TIMEOUT_S = 30.0


@dataclass
class _WorkerLog:
    """What one worker leaves behind; the driver owns it, so the part a
    worker that never exits has written so far is still counted."""

    records: list = field(default_factory=list)  #: (t_done, latency_s, ok)
    issued: int = 0
    retries: int = 0
    reconnects: int = 0
    errors: list = field(default_factory=list)
    t_end: Optional[float] = None


def _worker(wid: int, host: str, port: int, cfg: _Traffic,
            requests: Optional[int], verify: str, no_batch: bool,
            start: threading.Event, stop: threading.Event,
            log: _WorkerLog) -> None:
    """Closed-loop pipelined client: ``requests`` of them, or until ``stop``.

    Appends one ``(t_done, latency_s, ok)`` record per acknowledged
    response; ``ok`` is None when that response was not verified.
    """
    rng = np.random.default_rng(derive_seed(cfg.seed, "loadgen", wid))

    def draw(i: int) -> np.ndarray:
        n = cfg.sizes[(wid + i) % len(cfg.sizes)]
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    stream = map(draw, itertools.count())
    if requests is not None:
        # pre-generate every payload so the measured window times the
        # server, not the client's random number generator
        stream = iter(list(itertools.islice(stream, requests)))
    try:
        client = ServeClient(
            host, port,
            retry=RetryPolicy(
                attempts=_LOADGEN_RETRY.attempts,
                seed=derive_seed(cfg.seed, "retry-jitter", wid),
            ),
        )
    except OSError as exc:
        log.errors.append(f"worker {wid}: connect failed: {exc}")
        return

    def one(x: np.ndarray) -> tuple:
        """The slow path: one request, retrying rejections, faults, resets."""
        before = client.retries_total
        t0 = time.perf_counter()
        y = client.fft_retry(x, threads=cfg.threads, mu=cfg.mu,
                             no_batch=no_batch, policy=_LOADGEN_RETRY)
        log.retries += client.retries_total - before
        return y, time.perf_counter() - t0, None

    depth = max(1, cfg.pipeline)
    try:
        start.wait()
        verified = False
        while not stop.is_set():
            xs = list(itertools.islice(stream, depth))
            if not xs:
                break
            log.issued += len(xs)
            outcomes = None
            if not no_batch:
                try:
                    outcomes = client.fft_pipeline(xs, threads=cfg.threads,
                                                   mu=cfg.mu)
                except (ConnectionError, OSError):
                    # the connection died mid-burst (e.g. an injected reset)
                    log.retries += 1
            if outcomes is None:
                # redial and replay this chunk one request at a time — fft
                # is idempotent, so resending cannot corrupt anything (the
                # unbatched phase always comes this way: ``no_batch`` is a
                # per-request bypass)
                outcomes = [one(x) for x in xs]
            for x, (y, dt, err) in zip(xs, outcomes):
                if err is not None:
                    if err.code not in _LOADGEN_RETRY.retry_codes:
                        raise err
                    # polite backoff, then the slow path for this one
                    log.retries += 1
                    time.sleep(err.retry_after or 0.005)
                    y, dt, _ = one(x)
                ok = None
                if verify == "all" or (verify == "first" and not verified):
                    verified = True
                    ok = bool(np.allclose(y, np.fft.fft(x), atol=1e-6))
                    if not ok:
                        log.errors.append(
                            f"worker {wid}: result mismatch for n={len(x)}"
                        )
                log.records.append((time.perf_counter(), dt, ok))
    except Exception as exc:  # noqa: BLE001 - thread boundary: reported
        log.errors.append(f"worker {wid}: {exc}")
    finally:
        client.close()
        log.reconnects = client.reconnects_total
        log.t_end = time.perf_counter()


@dataclass
class _Run:
    """One driven phase: the shared phase dict plus what lanes build on."""

    phase: dict
    records: list        #: every worker's (t_done, latency_s, ok)
    errors: list
    stats_warm: dict     #: server stats after warmup, before the workers
    stats: dict          #: server stats after the last worker exited


def _drive(host: str, port: int, cfg: _Traffic, requests: Optional[int],
           verify: str, no_batch: bool = False,
           during: Optional[Callable[[], None]] = None,
           raise_on_error: bool = True) -> _Run:
    """One closed-loop phase against ``host:port``.

    ``requests`` per client, or — when None — for as long as ``during``
    runs.  ``during`` is called once traffic is flowing (the shard lane's
    kill timer, the tune lane's window loop).  Any worker error, result
    mismatch, or worker that never stops fails the phase: raised here
    unless ``raise_on_error`` is off, in which case it is left in
    ``errors`` / ``lost`` / ``corrupt`` for the lane to report.
    """
    probe = ServeClient(host, port)
    try:
        probe.ping()
        rng = np.random.default_rng(cfg.seed)
        for n in cfg.sizes:  # warmup: build every plan once, verify once
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = probe.fft_retry(x, threads=cfg.threads, mu=cfg.mu,
                                no_batch=True, policy=_LOADGEN_RETRY)
            if not np.allclose(y, np.fft.fft(x), atol=1e-6):
                raise RuntimeError(f"warmup: result mismatch for n={n}")
        stats_warm = probe.stats()

        start, stop = threading.Event(), threading.Event()
        logs = [_WorkerLog() for _ in range(cfg.clients)]
        workers = [
            threading.Thread(
                target=_worker,
                args=(wid, host, port, cfg, requests, verify, no_batch,
                      start, stop, log),
                daemon=True,
            )
            for wid, log in enumerate(logs)
        ]
        for w in workers:
            w.start()
        t0 = time.perf_counter()
        start.set()
        try:
            if during is not None:
                during()
            if requests is not None:
                for w in workers:  # a counted run takes as long as it takes
                    w.join()
        finally:
            stop.set()
        for w in workers:
            w.join(_JOIN_TIMEOUT_S)
        now = time.perf_counter()
        # to the last worker's exit, so a hook that outlasts the traffic
        # (a kill landing after the run) does not dilute the throughput
        wall = max((log.t_end or now for log in logs), default=now) - t0
        errors = [e for log in logs for e in log.errors] + [
            f"worker {wid}: still running {_JOIN_TIMEOUT_S:g} s after stop"
            for wid, w in enumerate(workers) if w.is_alive()
        ]
        if errors and raise_on_error:
            raise RuntimeError("loadgen workers failed: " + "; ".join(errors))
        stats = probe.stats()
    finally:
        probe.close()

    records = [r for log in logs for r in list(log.records)]
    total = (cfg.clients * requests if requests is not None
             else sum(log.issued for log in logs))
    phase = {
        "requests": total,
        "completed": len(records),
        "lost": total - len(records),
        "corrupt": sum(ok is False for _, _, ok in records),
        "wall_s": wall,
        "throughput_rps": len(records) / wall if wall else 0.0,
        "latency": latency_summary([dt for _, dt, _ in records]),
        "overload_retries": sum(log.retries for log in logs),
        "reconnects": sum(log.reconnects for log in logs),
    }
    return _Run(phase, records, errors, stats_warm, stats)


def _finish_report(report: dict, output: Optional[str]) -> dict:
    """Prepend the host block; write the JSON when a path was given."""
    report = {
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        **report,
    }
    if output:
        with open(output, "w") as fh:
            json.dump(report, fh, indent=1)
    return report


def _server_hints(cfg: _Traffic) -> dict:
    """``threads`` / ``mu`` for an in-process server, where the lane set them."""
    hints = {"threads": cfg.threads, "mu": cfg.mu}
    return {k: v for k, v in hints.items() if v is not None}


def _rate_line(label: str, phase: dict) -> str:
    return (
        f"{label} {phase['throughput_rps']:>9.1f} req/s   "
        f"p50 {phase['latency']['p50_ms']:.2f} ms   "
        f"p99 {phase['latency']['p99_ms']:.2f} ms"
    )


# -- lane 1: an already-running server ----------------------------------------


def run_loadgen(cfg: LoadgenConfig) -> dict:
    """Drive a running server; returns (and optionally writes) the report."""
    run = _drive(cfg.host, cfg.port, cfg, cfg.requests, cfg.verify)
    # the unbatched reference the batched throughput is compared to: one
    # client, one request at a time, the server's batching bypassed
    base = _drive(cfg.host, cfg.port, replace(cfg, clients=1, pipeline=1),
                  cfg.baseline_requests, "none", no_batch=True)

    cache_warm = run.stats_warm["plan_cache"]
    cache = run.stats["plan_cache"]
    hits = cache["hits"] - cache_warm["hits"]
    lookups = hits + cache["misses"] - cache_warm["misses"]
    base_tp = base.phase["throughput_rps"]
    return _finish_report({
        "config": {
            "host": cfg.host,
            "port": cfg.port,
            "sizes": cfg.sizes,
            "clients": cfg.clients,
            "requests_per_client": cfg.requests,
            "pipeline_depth": cfg.pipeline,
            "threads": cfg.threads,
            "mu": cfg.mu,
            "server": base.stats.get("config", {}),
        },
        "measured": {
            **run.phase,
            "plan_cache_hit_rate": hits / lookups if lookups else 1.0,
            "avg_batch_occupancy": run.stats["avg_batch_occupancy"],
        },
        "baseline_unbatched": base.phase,
        "single_flight": {
            "unique_plan_keys": len(set(cfg.sizes)),
            "plans_built": cache["plans_built"],
            "single_flight_waits": cache["single_flight_waits"],
            "ok": cache["plans_built"] == len(set(cfg.sizes)),
        },
        "server_stats": base.stats,
        "speedup_batched_vs_unbatched": (
            run.phase["throughput_rps"] / base_tp if base_tp else 0.0
        ),
    }, cfg.output)


def render_report(report: dict) -> str:
    """Human summary of a loadgen report (the CLI output)."""
    c = report["config"]
    m = report["measured"]
    sf = report["single_flight"]
    lines = [
        f"# repro loadgen: {c['clients']} clients x "
        f"{c['requests_per_client']} requests "
        f"(pipeline {c['pipeline_depth']}), sizes={c['sizes']}",
        _rate_line("batched:  ", m)
        + f"   occupancy {m['avg_batch_occupancy']:.2f}",
        _rate_line("unbatched:", report["baseline_unbatched"])
        + "   (one-at-a-time baseline)",
        f"speedup:   {report['speedup_batched_vs_unbatched']:.2f}x "
        f"batched over unbatched",
        f"plan cache: hit rate {m['plan_cache_hit_rate']:.1%} after warmup; "
        f"{sf['plans_built']} plans built for {sf['unique_plan_keys']} "
        f"unique keys (single-flight "
        f"{'OK' if sf['ok'] else 'VIOLATED'}, "
        f"{sf['single_flight_waits']} waits)",
        f"retries: {m['overload_retries']} (reconnects: {m['reconnects']})",
    ]
    health = report["server_stats"].get("health")
    if health is not None:
        lines.append(
            f"server health: {health['status']} "
            f"(rebuilds {health['counters']['pool_rebuilds']}, "
            f"failovers {health['counters']['failovers']})"
        )
    return "\n".join(lines)


# -- lane 2: an in-process shard fleet behind a router ------------------------


def _shard_phase(router: ShardRouter, cfg: ShardLoadgenConfig,
                 fleet: ShardFleet,
                 kill_after_s: Optional[float] = None) -> dict:
    """One driven phase against ``router`` plus the shard lane's blocks."""
    killed: list = []

    def kill() -> None:
        time.sleep(kill_after_s)
        killed.append(fleet.kill_shard())

    run = _drive("127.0.0.1", router.port, cfg, cfg.requests, cfg.verify,
                 during=kill if kill_after_s is not None else None)
    routed = run.stats["router"]
    return {
        **run.phase,
        "killed_shard": killed[0] if killed else None,
        "per_shard_latency": routed["per_shard_latency"],
        "router_counters": routed["counters"],
        "fleet_counters": routed["fleet"],
        "avg_batch_occupancy": run.stats["avg_batch_occupancy"],
        "plan_cache": run.stats["plan_cache"],
        "health": run.stats["health"],
    }


def _run_topology(cfg: ShardLoadgenConfig, shards: int,
                  kill_after_s: Optional[float]) -> dict:
    """Spin up fleet + router, drive one phase, tear down."""
    shard_cfg = ServeConfig(queue_limit=cfg.queue_limit,
                            **_server_hints(cfg))
    with ShardFleet(shards, shard_cfg, replicas=cfg.replicas) as fleet:
        router = ShardRouter(("127.0.0.1", 0), fleet)
        router.serve_background()
        try:
            return _shard_phase(router, cfg, fleet, kill_after_s)
        finally:
            router.close()


def run_shard_loadgen(cfg: ShardLoadgenConfig) -> dict:
    """Measure the fleet (and the 1-shard baseline); write the report.

    The baseline is the same driver against a 1-shard fleet, so the
    router relay cost is included and the ratio isolates what sharding
    adds.
    """
    baseline = None
    if cfg.baseline and cfg.shards > 1:
        baseline = _run_topology(cfg, shards=1, kill_after_s=None)
    measured = _run_topology(cfg, cfg.shards, cfg.kill_after_s)
    speedup = None
    if baseline is not None and baseline["throughput_rps"]:
        speedup = measured["throughput_rps"] / baseline["throughput_rps"]
    return _finish_report({
        "config": {
            "shards": cfg.shards,
            "sizes": cfg.sizes,
            "clients": cfg.clients,
            "requests_per_client": cfg.requests,
            "pipeline_depth": cfg.pipeline,
            "threads": cfg.threads,
            "mu": cfg.mu,
            "queue_limit": cfg.queue_limit,
            "replicas": cfg.replicas,
            "kill_after_s": cfg.kill_after_s,
            "seed": cfg.seed,
        },
        "measured": measured,
        "baseline_one_shard": baseline,
        "speedup_shards_vs_one": speedup,
    }, cfg.output)


def render_shard_report(report: dict) -> str:
    """Human summary of a shard loadgen report (the CLI output)."""
    c = report["config"]
    m = report["measured"]
    lines = [
        f"# repro loadgen --shards {c['shards']}: {c['clients']} clients x "
        f"{c['requests_per_client']} requests "
        f"(pipeline {c['pipeline_depth']}), sizes={c['sizes']}",
        _rate_line(f"fleet ({c['shards']} shards):", m)
        + f"   ({m['completed']}/{m['requests']} completed, "
        f"{m['lost']} lost)",
    ]
    b = report["baseline_one_shard"]
    if b is not None:
        lines.append(_rate_line("one shard:       ", b))
        speed = report["speedup_shards_vs_one"]
        if speed is not None:
            lines.append(
                f"speedup:          {speed:.2f}x fleet over one shard"
            )
    for sid in sorted(m["per_shard_latency"]):
        s = m["per_shard_latency"][sid]
        lines.append(
            f"  {sid}: {s['requests']} reqs   p50 {s['p50_ms']:.2f} ms   "
            f"p95 {s['p95_ms']:.2f} ms   p99 {s['p99_ms']:.2f} ms"
        )
    rc = m["router_counters"]
    fc = m["fleet_counters"]
    lines.append(
        f"router: {rc['routed']} routed, {rc['failovers']} failovers, "
        f"{rc['replays']} replays, {rc['prewarms_sent']} prewarms; "
        f"fleet: {fc['ejections']} ejections, {fc['rejoins']} rejoins, "
        f"{fc['restarts']} restarts"
    )
    if m["killed_shard"]:
        lines.append(
            f"chaos: killed {m['killed_shard']} mid-run; "
            f"health={m['health']['status']}; lost acks={m['lost']}"
        )
    return "\n".join(lines)


# -- lane 3: an in-process server with the tuner on ---------------------------


def run_tune_loadgen(cfg: TuneLoadgenConfig) -> dict:
    """Run the tune lane end to end; returns (and optionally writes) the report."""
    chaos_ctx = (
        fault_plan(parse_chaos_spec(cfg.chaos, seed=cfg.chaos_seed))
        if cfg.chaos else contextlib.nullcontext()
    )
    with chaos_ctx:
        return _run_tune(cfg)


def _run_tune(cfg: TuneLoadgenConfig) -> dict:
    service = FFTService(ServeConfig(
        tune=True,
        tune_interval_s=cfg.tune_interval_s,
        **_server_hints(cfg),
    ))
    server = FFTServer(("127.0.0.1", 0), service)
    server.serve_background()

    edges: list[float] = []  # window boundaries; edges[0] is the start
    forced = {"attempted": 0, "committed": 0}

    def windows() -> None:
        edges.append(time.perf_counter())
        for w in range(cfg.windows):
            if w == cfg.swap_window and service.tuner is not None:
                # the acceptance scenario: hot-swap every hot plan while
                # the clients are mid-flight
                for n in cfg.sizes:
                    key = service.config.plan_key(n, cfg.threads, cfg.mu)
                    forced["attempted"] += 1
                    if service.tuner.retune(key):
                        forced["committed"] += 1
            time.sleep(cfg.window_duration_s)
            edges.append(time.perf_counter())

    try:
        # every response is verified: the integrity block is the point
        run = _drive("127.0.0.1", server.port, cfg, None, "all",
                     during=windows, raise_on_error=False)
    finally:
        graceful_shutdown(server, service)

    # -- bin every response into its measurement window -----------------------
    per_window: list[list[float]] = [[] for _ in range(cfg.windows)]
    for t_done, dt, _ in run.records:
        idx = bisect_left(edges, t_done, lo=1) - 1
        per_window[min(idx, cfg.windows - 1)].append(dt)
    rows = []
    for w, lat in enumerate(per_window):
        # the measured boundary delta, not the nominal length: the forced
        # retune runs inside its window, which is longer by the search
        duration = edges[w + 1] - edges[w]
        rows.append({
            "window": w,
            "requests": len(lat),
            "duration_s": duration,
            "throughput_rps": len(lat) / duration,
            **latency_summary(lat),
        })
    return _finish_report({
        "config": {
            "sizes": list(cfg.sizes),
            "threads": cfg.threads,
            "mu": cfg.mu,
            "clients": cfg.clients,
            "pipeline": cfg.pipeline,
            "windows": cfg.windows,
            "window_duration_s": cfg.window_duration_s,
            "swap_window": cfg.swap_window,
            "chaos": cfg.chaos,
            "seed": cfg.seed,
        },
        "measured": run.phase,
        "windows": rows,
        "integrity": {
            "acknowledged": run.phase["completed"],
            "corrupt": run.phase["corrupt"],
            "lost": run.phase["lost"],
            "errors": run.errors[:20],
        },
        "forced_retunes": forced,
        "tuner": run.stats.get("tuner"),
        "plan_cache": run.stats.get("plan_cache"),
        "server_stats": run.stats,
    }, cfg.output)


def render_tune_report(report: dict) -> str:
    """Human summary of a tune-lane report (the CLI output)."""
    cfg = report["config"]
    lines = [
        f"# repro loadgen --tune: {cfg['clients']} clients x pipeline "
        f"{cfg['pipeline']}, sizes={cfg['sizes']}"
        + (f", chaos={cfg['chaos']}" if cfg["chaos"] else ""),
        f"{'win':>4} {'req':>6} {'req/s':>8} {'p50 ms':>8} {'p99 ms':>8}",
    ]
    for w in report["windows"]:
        lines.append(
            f"{w['window']:>4} {w['requests']:>6} "
            f"{w['throughput_rps']:>8.1f} {w['p50_ms']:>8.2f} "
            f"{w['p99_ms']:>8.2f}"
        )
    tuner = report.get("tuner") or {}
    forced = report["forced_retunes"]
    lines.append(
        f"tuner: {tuner.get('ticks', 0)} ticks, "
        f"{tuner.get('swaps', 0)} swaps "
        f"({forced['attempted']} forced, {forced['committed']} committed, "
        f"{tuner.get('swap_failures', 0)} failures, "
        f"{tuner.get('swaps_deferred', 0)} deferred)"
    )
    integ = report["integrity"]
    lines.append(
        f"integrity: {integ['acknowledged']} acknowledged, "
        f"{integ['corrupt']} corrupt, {integ['lost']} lost "
        f"({'OK' if not integ['corrupt'] and not integ['lost'] else 'BAD'})"
    )
    return "\n".join(lines)
