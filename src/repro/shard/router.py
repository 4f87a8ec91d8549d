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

* the request loop, frame validation and op ladder are the server's
  (:mod:`repro.serve.protocol`), so nothing malformed reaches the pending
  table; requests are **relayed raw** — headers are read for routing,
  payload arrays never decoded;
* one upstream :class:`~repro.serve.protocol.FrameConn` per (client
  connection, shard), pipelined both ways and read without a timeout (an
  idle client is not a dead shard); responses return to the client as
  shards produce them (the protocol is id-matched, so cross-shard
  reordering is legal);
* every in-flight request is remembered (header + the payload buffer it
  was received into) until its response arrives, so when an upstream dies
  mid-request the router ejects the shard from the ring and **replays**
  the orphaned requests on the ranges' new owners — FFT is idempotent,
  which is what makes transparent failover sound;
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
import threading
import time
from typing import Optional

from ..faults import get_fault_plan
from ..serve.client import ServeClient
from ..serve.metrics import LatencyRecorder, latency_summary
from ..serve.protocol import FrameConn, FrameServer, Session, error_response
from ..serve.server import exception_response
from ..smp.runtime import lane_name
from ..trace import Counters
from ..wisdom import Wisdom
from .fleet import NoShardsAvailable, ShardFleet

#: replay attempts for a request orphaned by a dying shard
MAX_ROUTE_ATTEMPTS = 4


class _Pending:
    """One in-flight routed request: everything needed to replay it."""

    __slots__ = ("msg", "payload", "key", "shard_id", "attempts", "t0")

    def __init__(self, msg: dict, payload: Optional[memoryview], key: str,
                 shard_id: str):
        self.msg = msg
        self.payload = payload
        self.key = key
        self.shard_id = shard_id
        self.attempts = 1
        self.t0 = time.perf_counter()


#: shard counters that are high-water marks: the fleet's is the largest
_MAXED = ("max_queue_depth", "queue_depth")


def _sum_numeric(blocks) -> dict:
    """Every numeric value the blocks carry, summed key by key."""
    out: dict = {}
    for block in blocks:
        for k, v in block.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                out[k] = (max(out.get(k, 0), v) if k in _MAXED
                          else out.get(k, 0) + v)
    return out


def _ratio(block: dict, num: str, den: str) -> float:
    return block.get(num, 0) / block[den] if block.get(den) else 0.0


class _Upstream:
    """The router's pipelined connection to one shard, for one client."""

    def __init__(self, shard_id: str, address: tuple[str, int],
                 session: "_Session"):
        self.shard_id = shard_id
        self.dead = False
        self._session = session
        # the timeout bounds the dial only: reads block while the client
        # stays quiet
        self._conn = FrameConn.dial(address, connect_timeout=5.0)
        #: forward one framed request; raises OSError on a dead pipe
        self.send = self._conn.send
        threading.Thread(
            target=self._read_loop,
            name=f"shard-upstream-{shard_id}",
            daemon=True,
        ).start()

    def _read_loop(self) -> None:
        recv, respond = self._conn.recv, self._session.on_upstream_response
        try:
            while True:
                frame = recv()
                if frame is None:
                    break
                respond(self.shard_id, *frame)
        except (OSError, ValueError):
            pass
        finally:
            if not self.dead:
                self.dead = True
                self._session.on_upstream_dead(self.shard_id)

    def close(self) -> None:
        self.dead = True
        self._conn.close()


class _Session(Session):
    """The router's half of a client connection: relay raw, remember every
    in-flight request, answer as shards answer."""

    ping_extra = {"role": "router"}
    counter = "shard.router_requests"

    def __init__(self, conn: FrameConn, router: "ShardRouter"):
        super().__init__(conn)
        self.router = router
        self.health = router.health_snapshot
        self.stats = router.stats_snapshot
        self._lock = threading.Lock()
        self._pending: dict[object, _Pending] = {}
        self._upstreams: dict[str, _Upstream] = {}
        self._closed = False

    # -- client side -----------------------------------------------------------

    def reply(self, msg: dict, payload: Optional[memoryview] = None) -> None:
        """Write one response frame to the client (thread-safe)."""
        try:
            self.conn.send(msg, payload)
        except (OSError, ValueError):
            pass  # client is gone; teardown happens in the request loop

    # -- routing ---------------------------------------------------------------

    def _route(self, req_id, n: int, msg: dict) -> Optional[tuple[str, str]]:
        """``(route key, owner shard)`` of the plan ``msg`` asks for, or None
        with the client answered: hints that name no plan get the reply the
        owning shard would give them, an empty ring ``overloaded``."""
        fleet = self.router.fleet
        try:
            key = fleet.route_key_for(
                n, msg.get("threads"), msg.get("mu"), msg.get("strategy")
            )
            return key, fleet.owner(key)
        except NoShardsAvailable:
            self._no_shards(req_id)
        except Exception as exc:
            self.reply(exception_response(req_id, exc))
        return None

    def fft(self, req_id, msg: dict, payload: memoryview) -> None:
        """Place one fft request on its owning shard (or its successor)."""
        routed = self._route(req_id, msg["shape"][-1], msg)
        if routed is None:
            return
        key, shard_id = routed
        fp = get_fault_plan()
        if fp.enabled and fp.fired("shard.route_flap"):
            flapped = self.router.fleet.successors(key, 1)
            if flapped:
                shard_id = flapped[0]
                self.router.count("flapped_routes")
        pend = _Pending(msg, payload, key, shard_id)
        self._forward(pend, first=True)

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

    def _forward(self, pend: _Pending, first: bool = False) -> None:
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
            except OSError:
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

    def prewarm(self, req_id, msg: dict) -> None:
        """A client-issued prewarm: build on the owner *and* successors."""
        routed = self._route(req_id, msg["n"], msg)
        if routed is None:
            return
        key, owner = routed
        targets = [owner] + self.router.fleet.successors(key)
        built = self.router.prewarm_shards(targets, msg)
        self.reply({"id": req_id, "ok": True, "plan": built,
                    "shards": targets})

    # -- upstream callbacks ----------------------------------------------------

    def on_upstream_response(self, shard_id: str, msg: dict,
                             payload: Optional[memoryview]) -> None:
        with self._lock:
            pend = self._pending.pop(msg.get("id"), None)
        if pend is not None:
            dt = time.perf_counter() - pend.t0
            self.router.record(shard_id, pend.key, dt)
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
        self.router.count("orphans_replayed", len(orphans), shard=shard_id)
        for pend in orphans:
            if self._reroute(pend):
                self._forward(pend)

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


class ShardRouter(FrameServer):
    """The framed endpoint routing every connection onto a fleet."""

    #: every count the router keeps (``counters()``; tracer ``shard.<name>``)
    COUNTERS = ("routed", "replays", "failovers", "flapped_routes",
                "ejections_seen", "route_failures", "no_shard_errors",
                "prewarms_sent", "prewarm_errors", "orphans_replayed",
                "wisdom_flushes")

    def __init__(self, address: tuple[str, int], fleet: ShardFleet,
                 prewarm: bool = True):
        super().__init__(address)
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
        self._counts = Counters("shard", self.COUNTERS)
        #: ``count(name, by=1, **tracer_attrs)``: one routing event
        self.count = self._counts.add
        self._seen_lock = threading.Lock()
        self._seen_keys: set[str] = set()
        self._prewarm_q: queue.Queue = queue.Queue()
        threading.Thread(
            target=self._prewarm_loop, name="shard-router-prewarm",
            daemon=True,
        ).start()

    def session(self, conn: FrameConn) -> _Session:
        return _Session(conn, self)

    # -- metrics ---------------------------------------------------------------

    def counters(self) -> dict:
        return self._counts.snapshot()

    def record(self, shard_id: str, key: str, seconds: float) -> None:
        """One routed response, by shard and by plan routing string."""
        self.latencies.record(shard_id, seconds)
        self.plan_latencies.record(key, seconds)
        if self._wisdom is not None:
            self._wisdom_window.record(key, seconds)

    def flush_observations(self) -> int:
        """Merge windowed per-plan latencies into the fleet's wisdom file.

        A route key names the plan its shard built (*effective* threads),
        so each becomes one :meth:`~repro.wisdom.Wisdom.record_observation`
        in the very lane that shard's Tuner reads and writes (sequential /
        pthreads / process per the shard :class:`~repro.serve.ServeConfig`).
        Returns the number of plan keys flushed.  Called from
        :meth:`stats_snapshot`, so any stats poller is the flush cadence.
        """
        if self._wisdom is None:
            return 0
        drained = self._wisdom_window.drain()
        if not drained:
            return 0
        cfg = self.fleet.config
        with self._wisdom.transaction():  # one file rewrite per flush
            for key, samples in drained.items():
                n, threads, mu = map(int, key.split(":")[:3])
                self._wisdom.record_observation(
                    n, threads, mu, cfg.backend,
                    lane_name(cfg.runtime, threads),
                    {"requests": len(samples), **latency_summary(samples)},
                )
        self.count("wisdom_flushes", len(drained))
        return len(drained)

    # -- aggregation -----------------------------------------------------------

    def health_snapshot(self) -> dict:
        """Fleet health plus router counters, in the service-health shape."""
        snap = self.fleet.health()
        snap["counters"] = {**snap["counters"], **self.counters()}
        snap["router"] = {"live_shards": len(self.fleet.live_shards),
                          "shards": len(self.fleet.shard_ids)}
        return snap

    def stats_snapshot(self) -> dict:
        """Summed shard stats + router-side routing/latency metrics.

        Every numeric counter a shard's :meth:`FFTService.stats` reports
        (top level and ``plan_cache``) is summed over the shards that
        answered — queue depths are maxima, the ratios are recomputed —
        and ``config`` is a shard's own plus ``shards``; the per-shard
        breakdown is under ``"shards"``, router-only metrics ``"router"``.
        """
        per_shard = self.fleet.stats()
        agg = _sum_numeric(per_shard.values())
        cache = _sum_numeric(s["plan_cache"] for s in per_shard.values())
        agg["avg_batch_occupancy"] = _ratio(agg, "batched_vectors", "batches")
        agg["avg_request_wall_s"] = _ratio(agg, "request_wall_s", "vectors")
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        cache["hit_rate"] = cache.get("hits", 0) / lookups if lookups else 0.0
        agg["plan_cache"] = cache
        agg["config"] = {
            **next((s["config"] for s in per_shard.values()), {}),
            "shards": len(self.fleet.shard_ids),
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
        with self._seen_lock:
            if key in self._seen_keys:
                return
            self._seen_keys.add(key)
        self._prewarm_q.put((key, dict(msg, n=msg["shape"][-1])))

    def _prewarm_loop(self) -> None:
        while True:
            key, spec = self._prewarm_q.get()
            if key is None:
                return
            targets = self.fleet.successors(key)
            if targets:
                self.prewarm_shards(targets, spec)

    def prewarm_shards(self, targets: list, spec: dict) -> Optional[dict]:
        """Build ``spec``'s plan on each target shard; the last plan built."""
        built = None
        for sid in targets:
            try:
                with ServeClient(*self.fleet.address(sid),
                                 timeout=30.0) as c:
                    built = c.prewarm(
                        spec["n"],
                        threads=spec.get("threads"),
                        mu=spec.get("mu"),
                        strategy=spec.get("strategy"),
                    )
                self.count("prewarms_sent", shard=sid)
            except Exception:
                self.count("prewarm_errors")
        return built

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop serving and the prewarm worker (fleet is closed by owner)."""
        self.shutdown()
        self._prewarm_q.put((None, None))
        self.server_close()
