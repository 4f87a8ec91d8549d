"""Load generator for the shard tier: fleet vs one shard, plus chaos.

``run_shard_loadgen`` owns the whole topology (fleet + router are spun
up in-process on ephemeral ports), so one call produces the full
acceptance picture:

1. **baseline** — a 1-shard fleet behind a router, driven by the same
   closed-loop pipelined workers as ``repro loadgen`` (the router relay
   cost is *included* in the baseline, so the speedup isolates what
   sharding adds);
2. **measured** — the ``shards``-wide fleet under identical load, with
   per-shard latency percentiles taken from the router's
   :class:`~repro.serve.metrics.LatencyRecorder`;
3. optional **chaos** — ``kill_after_s`` SIGKILLs one shard mid-run; the
   router replays orphaned in-flight requests on the ring successors and
   the workers' retry policy rides out any transient ``internal``
   errors, so the run must still complete every request with verified
   results (the zero-lost-acks acceptance lane).

The report lands in ``BENCH_shard.json`` with aggregate throughput,
``speedup_shards_vs_one``, per-shard p50/p95/p99, and the fleet's
ejection/rejoin/restart counters.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..seeding import default_seed
from ..serve.client import ServeClient
from ..serve.loadgen import LoadgenConfig, _request_with_backoff, _worker
from ..serve.metrics import latency_summary
from ..serve.service import ServeConfig
from .fleet import ShardFleet
from .router import ShardRouter


@dataclass
class ShardLoadgenConfig:
    shards: int = 2
    #: several sizes so the ring actually spreads keys across the fleet
    sizes: list[int] = field(
        default_factory=lambda: [128, 256, 512, 1024, 2048, 4096]
    )
    clients: int = 4
    requests: int = 150          #: requests per client (each phase)
    pipeline: int = 16           #: in-flight requests per client
    threads: Optional[int] = None  #: per-shard plan threads (None: 1)
    mu: Optional[int] = None
    queue_limit: int = 512       #: per-shard admission bound (as serve)
    max_batch: int = 48          #: per-shard batch coalescing bound
    #: per-shard batching window; a large window makes the workload
    #: dispatcher-bound, the regime where sharding pays on any host
    #: (see docs/sharding.md "Scaling regimes")
    window_ms: float = 0.0
    output: Optional[str] = "BENCH_shard.json"
    seed: int = field(default_factory=default_seed)
    verify: str = "first"        #: "first" | "all" | "none" (as loadgen)
    baseline: bool = True        #: run the 1-shard reference fleet
    kill_after_s: Optional[float] = None  #: chaos: SIGKILL a shard mid-run
    vnodes: int = 64
    replicas: int = 1
    wisdom_path: Optional[str] = None  #: shared across every shard


def _phase_config(cfg: ShardLoadgenConfig, port: int) -> LoadgenConfig:
    """The serve-loadgen worker config pointed at one router port."""
    return LoadgenConfig(
        host="127.0.0.1", port=port, sizes=cfg.sizes,
        clients=cfg.clients, requests=cfg.requests, pipeline=cfg.pipeline,
        threads=cfg.threads, mu=cfg.mu, output=None, seed=cfg.seed,
        verify=cfg.verify,
    )


def _drive(router: ShardRouter, cfg: ShardLoadgenConfig,
           fleet: ShardFleet,
           kill_after_s: Optional[float] = None) -> dict:
    """One measured closed-loop phase against ``router``; the phase dict."""
    lcfg = _phase_config(cfg, router.port)
    probe = ServeClient("127.0.0.1", router.port)
    probe.ping()
    rng = np.random.default_rng(cfg.seed)
    for n in cfg.sizes:  # warmup: build every plan once, verify once
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y, _ = _request_with_backoff(probe, x, lcfg)
        if not np.allclose(y, np.fft.fft(x), atol=1e-6):
            raise RuntimeError(f"warmup: routed result mismatch for n={n}")

    latencies: list[float] = []
    retries: list[int] = []
    reconnects: list[int] = []
    errors: list[str] = []
    start = threading.Event()
    workers = [
        threading.Thread(
            target=_worker,
            args=(wid, lcfg, start, latencies, retries, reconnects, errors),
            daemon=True,
        )
        for wid in range(cfg.clients)
    ]
    for w in workers:
        w.start()

    killed: Optional[str] = None
    killer: Optional[threading.Thread] = None
    if kill_after_s is not None:
        def _kill() -> None:
            nonlocal killed
            time.sleep(kill_after_s)
            killed = fleet.kill_shard()
        killer = threading.Thread(target=_kill, daemon=True)
        killer.start()

    t0 = time.perf_counter()
    start.set()
    for w in workers:
        w.join()
    wall = time.perf_counter() - t0
    if killer is not None:
        killer.join(timeout=(kill_after_s or 0) + 5)
    if errors:
        raise RuntimeError(
            "shard loadgen workers failed: " + "; ".join(errors)
        )
    stats = probe.stats()
    probe.close()

    total = cfg.clients * cfg.requests
    completed = len(latencies)
    return {
        "requests": total,
        "completed": completed,
        "lost": total - completed,
        "wall_s": wall,
        "throughput_rps": total / wall if wall else 0.0,
        "latency": latency_summary(latencies),
        "overload_retries": sum(retries),
        "reconnects": sum(reconnects),
        "killed_shard": killed,
        "per_shard_latency": stats["router"]["per_shard_latency"],
        "router_counters": stats["router"]["counters"],
        "fleet_counters": stats["router"]["fleet"],
        "avg_batch_occupancy": stats["avg_batch_occupancy"],
        "plan_cache": stats["plan_cache"],
        "health": stats["health"],
    }


def _run_topology(cfg: ShardLoadgenConfig, shards: int,
                  kill_after_s: Optional[float]) -> dict:
    """Spin up fleet + router, drive one phase, tear down."""
    shard_cfg = ServeConfig(
        threads=cfg.threads if cfg.threads is not None else 1,
        mu=cfg.mu if cfg.mu is not None else 4,
        queue_limit=cfg.queue_limit,
        max_batch=cfg.max_batch,
        window_s=cfg.window_ms / 1e3,
        wisdom_path=cfg.wisdom_path,
    )
    with ShardFleet(shards, shard_cfg, vnodes=cfg.vnodes,
                    replicas=cfg.replicas) as fleet:
        router = ShardRouter(("127.0.0.1", 0), fleet)
        router.serve_background()
        try:
            return _drive(router, cfg, fleet, kill_after_s)
        finally:
            router.close()


def run_shard_loadgen(cfg: ShardLoadgenConfig) -> dict:
    """Measure the fleet (and the 1-shard baseline); write the report."""
    baseline = None
    if cfg.baseline and cfg.shards > 1:
        baseline = _run_topology(cfg, shards=1, kill_after_s=None)
    measured = _run_topology(cfg, cfg.shards, cfg.kill_after_s)

    import os
    import platform

    report = {
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": {
            "shards": cfg.shards,
            "sizes": cfg.sizes,
            "clients": cfg.clients,
            "requests_per_client": cfg.requests,
            "pipeline_depth": cfg.pipeline,
            "threads": cfg.threads,
            "mu": cfg.mu,
            "window_ms": cfg.window_ms,
            "queue_limit": cfg.queue_limit,
            "vnodes": cfg.vnodes,
            "replicas": cfg.replicas,
            "kill_after_s": cfg.kill_after_s,
            "seed": cfg.seed,
        },
        "measured": measured,
        "baseline_one_shard": baseline,
    }
    if baseline is not None and baseline["throughput_rps"]:
        report["speedup_shards_vs_one"] = (
            measured["throughput_rps"] / baseline["throughput_rps"]
        )
    else:
        report["speedup_shards_vs_one"] = None
    if cfg.output:
        with open(cfg.output, "w") as fh:
            json.dump(report, fh, indent=1)
    return report


def render_shard_report(report: dict) -> str:
    """Human summary of a shard loadgen report (the CLI output)."""
    c = report["config"]
    m = report["measured"]
    lines = [
        f"# repro loadgen --shards {c['shards']}: {c['clients']} clients x "
        f"{c['requests_per_client']} requests "
        f"(pipeline {c['pipeline_depth']}), sizes={c['sizes']}",
        f"fleet ({c['shards']} shards): {m['throughput_rps']:>9.1f} req/s   "
        f"p50 {m['latency']['p50_ms']:.2f} ms   "
        f"p99 {m['latency']['p99_ms']:.2f} ms   "
        f"({m['completed']}/{m['requests']} completed, {m['lost']} lost)",
    ]
    b = report.get("baseline_one_shard")
    if b is not None:
        lines.append(
            f"one shard:        {b['throughput_rps']:>9.1f} req/s   "
            f"p50 {b['latency']['p50_ms']:.2f} ms   "
            f"p99 {b['latency']['p99_ms']:.2f} ms"
        )
        speed = report.get("speedup_shards_vs_one")
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
    if m.get("killed_shard"):
        lines.append(
            f"chaos: killed {m['killed_shard']} mid-run; "
            f"health={m['health']['status']}; lost acks={m['lost']}"
        )
    return "\n".join(lines)
