"""`ShardRouter`: the consistent-hash front end of a shard fleet.

Clients connect to the router exactly as they would to a single
``repro serve`` — same framed protocol, same ops, same error codes — and
the router places every ``fft`` request on the shard owning its plan key
``(n, threads, mu, strategy, backend)`` in the fleet's
:class:`~repro.shard.ring.HashRing`.  Routing by *plan key* (not by
request) is the point: all traffic for one plan lands in one shard's
batcher, so the fleet keeps the single-server batching economics while
multiplying address spaces — the paper's decomposition argument carried
one substrate further.

Mechanics per client connection:

* requests are **relayed raw** (:func:`~repro.serve.protocol.
  read_frame_raw`): the router parses headers for routing but never
  decodes payload arrays;
* one upstream connection per (client connection, shard), pipelined both
  ways; responses return to the client as shards produce them (the
  protocol is id-matched, so cross-shard reordering is legal);
* every in-flight request is remembered (header + payload bytes) until
  its response arrives, so when an upstream dies mid-request the router
  ejects the shard from the ring and **replays** the orphaned requests
  on the ranges' new owners — FFT is idempotent, which is what makes
  transparent failover sound;
* the first sighting of a plan key triggers an async **prewarm** of the
  owner's ring successors (the shards that inherit the key's range on
  failure), so failover lands on a warm plan cache;
* the ``health`` op aggregates per-shard health into the familiar
  :meth:`~repro.serve.service.FFTService.health` shape, and ``stats``
  sums shard counters and adds per-shard *and per-plan* latency
  percentiles measured at the router; when the fleet shares a wisdom
  file, each stats poll also flushes the windowed per-plan latencies
  into it as tuning observations (see :mod:`repro.tune`), so
  router-measured truth feeds the same records the serving tuner reads.

The ``shard.route_flap`` fault point diverts single requests to the
owner's successor — exercising the invariant that *any* shard can serve
*any* key (shards are stateless but for their caches).
"""

from __future__ import annotations

import queue
import socket
import socketserver
import threading
import time
from typing import Optional

from ..faults import get_fault_plan
from ..serve.client import ServeClient
from ..serve.metrics import LatencyRecorder, latency_summary
from ..serve.protocol import dump_line, error_response, read_frame_raw, \
    write_frame_raw
from ..smp.runtime import lane_name
from ..trace import get_tracer
from ..wisdom import Wisdom
from .fleet import NoShardsAvailable, ShardFleet

#: replay attempts for a request orphaned by a dying shard
MAX_ROUTE_ATTEMPTS = 4

#: ops the router answers itself; everything else is per-shard state
_LOCAL_OPS = ("ping", "health", "stats")


def _request_n(msg: dict) -> Optional[int]:
    """The transform size, read off an fft header's ``shape``."""
    shape = msg.get("shape")
    if isinstance(shape, list) and shape:
        try:
            return int(shape[-1])
        except (TypeError, ValueError):
            pass
    return None


class _Pending:
    """One in-flight routed request: everything needed to replay it."""

    __slots__ = ("msg", "payload", "key", "shard_id", "attempts", "t0")

    def __init__(self, msg: dict, payload: Optional[bytes], key: str,
                 shard_id: str):
        self.msg = msg
        self.payload = payload
        self.key = key
        self.shard_id = shard_id
        self.attempts = 1
        self.t0 = time.perf_counter()


class _Upstream:
    """The router's pipelined connection to one shard, for one client."""

    def __init__(self, shard_id: str, address: tuple[str, int],
                 session: "_Session", timeout: float = 60.0):
        self.shard_id = shard_id
        self.dead = False
        self._session = session
        self._sock = socket.create_connection(address, timeout=5.0)
        self._sock.settimeout(timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        self._wlock = threading.Lock()
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"shard-upstream-{shard_id}",
            daemon=True,
        )
        self._reader.start()

    def send(self, msg: dict, payload: Optional[bytes]) -> None:
        """Forward one framed request; raises OSError on a dead pipe."""
        with self._wlock:
            write_frame_raw(self._wfile, msg, payload)
            self._wfile.flush()

    def _read_loop(self) -> None:
        try:
            while True:
                frame = read_frame_raw(self._rfile)
                if frame is None:
                    break
                self._session.on_upstream_response(self.shard_id, *frame)
        except (OSError, ValueError):
            pass
        finally:
            if not self.dead:
                self.dead = True
                self._session.on_upstream_dead(self.shard_id)

    def close(self) -> None:
        self.dead = True
        for f in (self._wfile, self._rfile):
            try:
                f.close()
            except OSError:
                pass
        try:
            self._sock.close()
        except OSError:
            pass


class _Session:
    """Per-client-connection routing state (pending table + upstreams)."""

    def __init__(self, router: "ShardRouter", wfile):
        self.router = router
        self._wfile = wfile
        self._wlock = threading.Lock()
        self._lock = threading.Lock()
        self._pending: dict[object, _Pending] = {}
        self._upstreams: dict[str, _Upstream] = {}
        self._closed = False

    # -- client side -----------------------------------------------------------

    def reply(self, msg: dict, payload: Optional[bytes] = None) -> None:
        """Write one response frame to the client (thread-safe)."""
        try:
            with self._wlock:
                write_frame_raw(self._wfile, msg, payload)
                self._wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client is gone; teardown happens in the read loop

    # -- routing ---------------------------------------------------------------

    def route_fft(self, msg: dict, payload: Optional[bytes]) -> None:
        """Place one fft request on its owning shard (or its successor)."""
        req_id = msg.get("id")
        n = _request_n(msg)
        if n is None:
            self.reply(error_response(
                req_id, "bad-request",
                "cannot infer n: fft needs a binary payload "
                "('shape' + 'nbytes' header)"
            ))
            return
        fleet = self.router.fleet
        key = fleet.route_key_for(
            n, msg.get("threads"), msg.get("mu"), msg.get("strategy")
        )
        try:
            shard_id = fleet.owner(key)
        except NoShardsAvailable:
            self._no_shards(req_id)
            return
        fp = get_fault_plan()
        if fp.enabled and fp.fired("shard.route_flap"):
            flapped = fleet.successors(key, 1)
            if flapped:
                shard_id = flapped[0]
                self.router.count("flapped_routes")
        pend = _Pending(msg, payload, key, shard_id)
        self._dispatch(pend, first=True)

    def _no_shards(self, req_id) -> None:
        """The empty-ring reply: a retryable ``overloaded``, counted."""
        self.reply(error_response(
            req_id, "overloaded", "no live shards in the ring",
            retry_after=0.05,
        ))
        self.router.count("no_shard_errors")

    def _reroute(self, pend: _Pending) -> bool:
        """Re-own ``pend`` after its shard failed; True when it has a new
        owner.  Otherwise the client has been answered: ``internal`` once
        attempts are spent, else the empty-ring reply."""
        if pend.attempts >= MAX_ROUTE_ATTEMPTS:
            self.reply(error_response(
                pend.msg.get("id"), "internal",
                f"shard {pend.shard_id} failed and all {pend.attempts} "
                f"route attempts are spent",
            ))
            self.router.count("route_failures")
            return False
        pend.attempts += 1
        try:
            pend.shard_id = self.router.fleet.owner(pend.key)
        except NoShardsAvailable:
            self._no_shards(pend.msg.get("id"))
            return False
        self.router.count("failovers")
        return True

    def _dispatch(self, pend: _Pending, first: bool = False) -> None:
        """Send ``pend`` to its shard, failing over while attempts remain."""
        while True:
            req_id = pend.msg.get("id")
            try:
                up = self._upstream(pend.shard_id)
                with self._lock:
                    if self._closed:
                        return
                    self._pending[req_id] = pend
                up.send(pend.msg, pend.payload)
            except NoShardsAvailable:
                with self._lock:
                    self._pending.pop(req_id, None)
                self._no_shards(req_id)
                return
            except (OSError, ConnectionError):
                with self._lock:
                    self._pending.pop(req_id, None)
                self.router.fleet.eject(pend.shard_id, reason="connect")
                self._drop_upstream(pend.shard_id)
                if self._reroute(pend):
                    continue
                return
            if first:
                self.router.count("routed")
                self.router.note_key(pend.key, pend.msg)
            else:
                self.router.count("replays")
            return

    def _upstream(self, shard_id: str) -> _Upstream:
        with self._lock:
            if self._closed:
                raise OSError("session closed")
            up = self._upstreams.get(shard_id)
            if up is not None and not up.dead:
                return up
        # dial outside the lock; losing a benign race just means the
        # loser's connection replaces the winner's identical one
        address = self.router.fleet.address(shard_id)
        up = _Upstream(shard_id, address, self)
        with self._lock:
            old = self._upstreams.get(shard_id)
            if old is not None and not old.dead:
                up.close()
                return old
            self._upstreams[shard_id] = up
        return up

    def _drop_upstream(self, shard_id: str) -> None:
        with self._lock:
            up = self._upstreams.pop(shard_id, None)
        if up is not None:
            up.close()

    # -- upstream callbacks ----------------------------------------------------

    def on_upstream_response(self, shard_id: str, msg: dict,
                             payload: Optional[bytes]) -> None:
        with self._lock:
            pend = self._pending.pop(msg.get("id"), None)
        if pend is not None:
            dt = time.perf_counter() - pend.t0
            self.router.record_latency(shard_id, dt)
            self.router.record_plan_latency(pend.key, dt)
        self.reply(msg, payload)

    def on_upstream_dead(self, shard_id: str) -> None:
        """An upstream broke: eject the shard, replay its orphans."""
        with self._lock:
            if self._closed:
                return
            orphans = [p for p in self._pending.values()
                       if p.shard_id == shard_id]
            for p in orphans:
                self._pending.pop(p.msg.get("id"), None)
        self._drop_upstream(shard_id)
        if self.router.fleet.eject(shard_id, reason="upstream-eof"):
            self.router.count("ejections_seen")
        if not orphans:
            return
        get_tracer().count("shard.orphans_replayed", len(orphans),
                           shard=shard_id)
        for pend in orphans:
            if self._reroute(pend):
                self._dispatch(pend)

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            upstreams = list(self._upstreams.values())
            self._upstreams.clear()
            self._pending.clear()
        for up in upstreams:
            up.close()


class _RouterHandler(socketserver.StreamRequestHandler):
    wbufsize = -1
    disable_nagle_algorithm = True

    def handle(self) -> None:
        router: ShardRouter = self.server  # type: ignore[assignment]
        session = _Session(router, self.wfile)
        tr = get_tracer()
        try:
            while True:
                try:
                    frame = read_frame_raw(self.rfile)
                except ValueError as exc:
                    session.reply(
                        error_response(None, "bad-json", str(exc))
                    )
                    continue
                except OSError:
                    break
                if frame is None:
                    break
                msg, payload = frame
                op = msg.get("op", "fft")
                req_id = msg.get("id")
                tr.count("shard.router_requests", 1, op=op)
                if op == "ping":
                    session.reply(
                        {"id": req_id, "ok": True, "pong": True,
                         "role": "router"}
                    )
                elif op == "health":
                    session.reply(
                        {"id": req_id, "ok": True,
                         "health": router.health_snapshot()}
                    )
                elif op == "stats":
                    session.reply(
                        {"id": req_id, "ok": True,
                         "stats": router.stats_snapshot()}
                    )
                elif op == "fft":
                    session.route_fft(msg, payload)
                elif op == "prewarm":
                    router.prewarm_now(msg, session)
                else:
                    session.reply(error_response(
                        req_id, "bad-request", f"unknown op {op!r}"
                    ))
        finally:
            session.close()


class ShardRouter(socketserver.ThreadingTCPServer):
    """Threading TCP server routing the framed protocol onto a fleet."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], fleet: ShardFleet,
                 prewarm: bool = True):
        super().__init__(address, _RouterHandler)
        self.fleet = fleet
        self.prewarm_enabled = prewarm
        self.latencies = LatencyRecorder()
        # per-plan observations: cumulative (for stats) + a window the
        # wisdom flush drains, mirroring FFTService.latencies/tune_window
        self.plan_latencies = LatencyRecorder()
        self._wisdom_window = LatencyRecorder()
        self._wisdom: Optional[Wisdom] = (
            Wisdom(fleet.config.wisdom_path)
            if fleet.config.wisdom_path else None
        )
        self._mlock = threading.Lock()
        self._counters = {
            "routed": 0,
            "replays": 0,
            "failovers": 0,
            "flapped_routes": 0,
            "ejections_seen": 0,
            "route_failures": 0,
            "no_shard_errors": 0,
            "prewarms_sent": 0,
            "prewarm_errors": 0,
        }
        self._seen_keys: set[str] = set()
        self._prewarm_q: queue.Queue = queue.Queue()
        self._prewarmer = threading.Thread(
            target=self._prewarm_loop, name="shard-router-prewarm",
            daemon=True,
        )
        self._prewarmer.start()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def serve_background(self) -> threading.Thread:
        t = threading.Thread(
            target=self.serve_forever, name="shard-router-tcp", daemon=True
        )
        t.start()
        return t

    # -- metrics ---------------------------------------------------------------

    def count(self, key: str, by: int = 1) -> None:
        with self._mlock:
            self._counters[key] += by

    def counters(self) -> dict:
        with self._mlock:
            return dict(self._counters)

    def record_latency(self, shard_id: str, seconds: float) -> None:
        self.latencies.record(shard_id, seconds)

    def record_plan_latency(self, key: str, seconds: float) -> None:
        """One routed response, keyed by its plan routing string."""
        self.plan_latencies.record(key, seconds)
        if self._wisdom is not None:
            self._wisdom_window.record(key, seconds)

    def flush_observations(self) -> int:
        """Merge windowed per-plan latencies into the fleet's wisdom file.

        Route keys are ``n:threads:mu:strategy:backend``
        (:func:`~repro.shard.ring.route_key`); each becomes one
        :meth:`~repro.wisdom.Wisdom.record_observation` under the lane
        the fleet actually runs (sequential / pthreads / process per the
        shard :class:`~repro.serve.ServeConfig`), so router-measured
        latency lands in the same records the serve-side Tuner reads.
        Returns the number of plan keys flushed.  Called from
        :meth:`stats_snapshot`, so any stats poller doubles as the
        flush cadence.
        """
        if self._wisdom is None:
            return 0
        drained = self._wisdom_window.drain()
        if not drained:
            return 0
        cfg = self.fleet.config
        flushed = 0
        with self._wisdom.transaction():  # one file rewrite per flush
            for key, samples in drained.items():
                try:
                    n_s, threads_s, mu_s, _strategy, backend = \
                        key.split(":", 4)
                    n, threads, mu = int(n_s), int(threads_s), int(mu_s)
                except ValueError:
                    continue
                summary = {"requests": len(samples),
                           **latency_summary(samples)}
                self._wisdom.record_observation(
                    n, threads, mu, backend,
                    lane_name(cfg.runtime, threads), summary,
                )
                flushed += 1
        if flushed:
            get_tracer().count("shard.wisdom_flushes", flushed)
        return flushed

    # -- aggregation -----------------------------------------------------------

    def health_snapshot(self) -> dict:
        """Fleet health plus router counters, in the service-health shape."""
        snap = self.fleet.health()
        counters = dict(snap.get("counters", {}))
        counters.update(self.counters())
        snap["counters"] = counters
        snap["router"] = {"live_shards": len(self.fleet.live_shards),
                          "shards": len(self.fleet.shard_ids)}
        return snap

    def stats_snapshot(self) -> dict:
        """Summed shard stats + router-side routing/latency metrics.

        Shape-compatible with :meth:`FFTService.stats` for the fields the
        load generator consumes (``plan_cache``, ``avg_batch_occupancy``,
        ``config``), with the per-shard breakdown preserved under
        ``"shards"`` and router-only metrics under ``"router"``.
        """
        per_shard = self.fleet.stats()
        summed_keys = (
            "requests", "vectors", "batches", "batched_vectors",
            "rejected", "deadline_misses", "failures",
        )
        agg: dict = {k: 0 for k in summed_keys}
        cache = {"hits": 0, "misses": 0, "evictions": 0,
                 "single_flight_waits": 0, "plans_built": 0}
        plans_cached = 0
        for stats in per_shard.values():
            for k in summed_keys:
                agg[k] += stats.get(k, 0)
            for k in cache:
                cache[k] += stats.get("plan_cache", {}).get(k, 0)
            plans_cached += stats.get("plans_cached", 0)
        total = cache["hits"] + cache["misses"]
        cache["hit_rate"] = cache["hits"] / total if total else 0.0
        agg["avg_batch_occupancy"] = (
            agg["batched_vectors"] / agg["batches"] if agg["batches"]
            else 0.0
        )
        agg["plan_cache"] = cache
        agg["plans_cached"] = plans_cached
        cfg = self.fleet.config
        agg["config"] = {
            "shards": len(self.fleet.shard_ids),
            "threads": cfg.threads,
            "mu": cfg.mu,
            "window_ms": cfg.window_s * 1e3,
            "max_batch": cfg.max_batch,
            "queue_limit": cfg.queue_limit,
            "cache_capacity": cfg.cache_capacity,
            "backend": cfg.backend,
        }
        agg["router"] = {
            "counters": self.counters(),
            "per_shard_latency": self.latencies.summary(),
            "per_plan_latency": self.plan_latencies.summary(),
            "wisdom_flushed": self.flush_observations(),
            "fleet": self.fleet.counters(),
        }
        agg["shards"] = per_shard
        agg["health"] = self.health_snapshot()
        return agg

    # -- prewarm ---------------------------------------------------------------

    def note_key(self, key: str, msg: dict) -> None:
        """First sighting of a plan key → queue successor prewarms."""
        if not self.prewarm_enabled:
            return
        with self._mlock:
            if key in self._seen_keys:
                return
            self._seen_keys.add(key)
        self._prewarm_q.put((key, {
            "n": _request_n(msg),
            "threads": msg.get("threads"),
            "mu": msg.get("mu"),
            "strategy": msg.get("strategy"),
        }))

    def prewarm_now(self, msg: dict, session: _Session) -> None:
        """A client-issued prewarm: build on the owner *and* successors."""
        req_id = msg.get("id")
        n = msg.get("n")
        if not isinstance(n, int):
            session.reply(error_response(
                req_id, "bad-request", "prewarm needs an integer 'n'"
            ))
            return
        key = self.fleet.route_key_for(
            n, msg.get("threads"), msg.get("mu"), msg.get("strategy")
        )
        try:
            targets = [self.fleet.owner(key)]
        except NoShardsAvailable:
            session._no_shards(req_id)
            return
        targets += self.fleet.successors(key)
        built = self._prewarm_shards(targets, msg)
        session.reply({"id": req_id, "ok": True, "plan": built,
                       "shards": targets})

    def _prewarm_loop(self) -> None:
        while True:
            key, spec = self._prewarm_q.get()
            if key is None:
                return
            targets = self.fleet.successors(key)
            if targets:
                self._prewarm_shards(targets, spec)

    def _prewarm_shards(self, targets: list, spec: dict) -> Optional[dict]:
        built = None
        for sid in targets:
            try:
                host, port = self.fleet.address(sid)
                with ServeClient(host, port, timeout=30.0) as c:
                    built = c.prewarm(
                        spec["n"],
                        threads=spec.get("threads"),
                        mu=spec.get("mu"),
                        strategy=spec.get("strategy"),
                    )
                self.count("prewarms_sent")
                get_tracer().count("shard.prewarms", 1, shard=sid)
            except Exception:
                self.count("prewarm_errors")
        return built

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop serving and the prewarm worker (fleet is closed by owner)."""
        self.shutdown()
        self._prewarm_q.put((None, None))
        self.server_close()
