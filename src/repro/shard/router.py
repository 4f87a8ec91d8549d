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
  (:mod:`repro.serve.protocol`), so nothing malformed is ever in flight;
  requests are **relayed as read** — each header is parsed once, for
  routing, and forwarded as the line the client sent; replies come back
  the same way (parsed for their ``nbytes``, relayed as their line), and
  payload arrays are never decoded;
* one upstream :class:`~repro.serve.protocol.FrameConn` per (client
  connection, shard), pipelined both ways and read without a timeout (an
  idle client is not a dead shard); responses return to the client as
  shards produce them (cross-shard reordering is legal: the client
  matches by ``id``);
* a shard answers a connection in request order, so each upstream keeps
  its in-flight requests in send order (header line + the payload buffer
  it was received into) and matches each reply to the oldest — never by
  the client's ``id``, which may repeat or be any JSON value.  When an
  upstream dies mid-request the router ejects the shard from the ring and
  **replays** the orphaned requests on the ranges' new owners — FFT is
  idempotent, which is what makes transparent failover sound;
* the first sighting of a plan key triggers an async **prewarm** of the
  owner's ring successors (the shards that inherit the key's range on
  failure), so failover lands on a warm plan cache;
* the ``health`` op aggregates per-shard health into the familiar
  :meth:`~repro.serve.service.FFTService.health` shape, and ``stats``
  sums shard counters and adds per-shard *and per-plan* latency
  percentiles measured at the router — for operators to read; the
  router writes nothing into the fleet's wisdom file, which its shards
  only read (:mod:`repro.wisdom`).

The ``shard.route_flap`` fault point diverts single requests to the
owner's successor — exercising the invariant that *any* shard can serve
*any* key (shards are stateless but for their caches).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Optional

from ..faults import get_fault_plan
from ..serve.client import ServeClient
from ..serve.metrics import LatencyRecorder
from ..serve.protocol import FrameConn, FrameServer, Session, error_response
from ..serve.server import exception_response
from ..trace import Counters
from .fleet import NoShardsAvailable, ShardFleet

#: replay attempts for a request orphaned by a dying shard
MAX_ROUTE_ATTEMPTS = 4
#: route keys a router remembers, one per spelling of a plan request
ROUTE_MEMO_SIZE = 256


class _Pending:
    """One in-flight routed request: everything needed to replay it."""

    __slots__ = ("msg", "line", "payload", "key", "shard_id", "attempts",
                 "sent", "t0")

    def __init__(self, msg: dict, line: bytes, payload: memoryview,
                 key: str, shard_id: str):
        self.msg = msg
        self.line = line
        self.payload = payload
        self.key = key
        self.shard_id = shard_id
        self.attempts = 1
        self.sent = False  # a send has succeeded: the next one is a replay
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
    """The router's pipelined connection to one shard, for one client.

    A shard answers a connection in request order, so ``_sent`` — the
    requests forwarded and not yet answered, in send order — pairs each
    reply with its request: the reply is the oldest's.
    """

    def __init__(self, shard_id: str, address: tuple[str, int],
                 session: "_Session"):
        self.shard_id = shard_id
        self.dead = False
        self._session = session
        # the timeout bounds the dial only: reads block while the client
        # stays quiet
        self._conn = FrameConn.dial(address, connect_timeout=5.0)
        self._sent: deque[_Pending] = deque()
        # keeps _sent in wire order when two threads forward here at once
        # (a client's handler and a replay); the reader pops unlocked
        self._send_lock = threading.Lock()
        threading.Thread(
            target=self._read_loop,
            name=f"shard-upstream-{shard_id}",
            daemon=True,
        ).start()

    def forward(self, pend: _Pending) -> bool:
        """Send ``pend`` as received; False when this upstream is already
        dead (``pend`` was not taken).  A write that fails closes the
        connection, and ``pend`` is then replayed with the other orphans
        when the reader sees the close."""
        with self._send_lock:
            if self.dead:
                return False
            self._sent.append(pend)
            try:
                self._conn.send(pend.line, pend.payload)
            except (OSError, ValueError):
                self._conn.close()
        return True

    def _read_loop(self) -> None:
        recv, answered = self._conn.recv, self._session.on_upstream_response
        oldest = self._sent.popleft
        try:
            while True:
                frame = recv()
                if frame is None:
                    break
                answered(self.shard_id, oldest(), *frame)
        except (OSError, ValueError):
            pass
        finally:
            with self._send_lock:  # no forward lands after this
                broken = not self.dead
                self.dead = True
                orphans = list(self._sent)
                self._sent.clear()
            self._conn.close()
            if broken:
                self._session.lost(self, orphans)

    def close(self) -> None:
        """Close on purpose: what is still in flight is dropped, not
        replayed (the client left, or a dial race made this one spare)."""
        self.dead = True
        self._conn.close()


class _Session(Session):
    """The router's half of a client connection: relay as read, keep every
    in-flight request on its upstream, answer as shards answer."""

    ping_extra = {"role": "router"}
    counter = "shard.router_requests"

    def __init__(self, conn: FrameConn, router: "ShardRouter"):
        super().__init__(conn)
        self.router = router
        self.health = router.health_snapshot
        self.stats = router.stats_snapshot
        self._lock = threading.Lock()
        self._upstreams: dict[str, _Upstream] = {}
        self._closed = False

    # -- client side -----------------------------------------------------------

    def reply(self, msg, payload: Optional[memoryview] = None) -> None:
        """Write one response frame to the client (thread-safe): a header
        dict, or a shard's header line relayed with its payload."""
        try:
            self.conn.send(msg, payload)
        except (OSError, ValueError):
            pass  # client is gone; teardown happens in the request loop

    # -- routing ---------------------------------------------------------------

    def _route(self, req_id, n: int, msg: dict) -> Optional[tuple[str, str]]:
        """``(route key, owner shard)`` of the plan ``msg`` asks for, or None
        with the client answered: hints that name no plan get the reply the
        owning shard would give them, an empty ring ``overloaded``."""
        try:
            key = self.router.route_key_for(
                n, msg.get("threads"), msg.get("mu"), msg.get("strategy")
            )
            return key, self.router.fleet.owner(key)
        except NoShardsAvailable:
            self._no_shards(req_id)
        except Exception as exc:
            self.reply(exception_response(req_id, exc))
        return None

    def fft(self, req_id, msg: dict, payload: memoryview,
            line: bytes) -> None:
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
        self._forward(_Pending(msg, line, payload, key, shard_id))

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

    def _forward(self, pend: _Pending) -> None:
        """Send ``pend`` to its shard, failing over while attempts remain."""
        while True:
            try:
                up = self._upstream(pend.shard_id)
            except OSError:  # the dial failed: that shard is gone
                self.router.fleet.eject(pend.shard_id, reason="connect")
            else:
                if up is None:
                    return  # the client left
                if up.forward(pend):
                    break
            if not self._reroute(pend):
                return
        if pend.sent:
            self.router.count("replays")
        else:
            pend.sent = True
            self.router.count("routed")
            self.router.note_key(pend.key, pend.msg)

    def _upstream(self, shard_id: str) -> Optional[_Upstream]:
        """``shard_id``'s live upstream, dialed if need be (``OSError``
        when the dial fails); None once the session has closed."""
        with self._lock:
            if self._closed:
                return None
            up = self._upstreams.get(shard_id)
        if up is not None and not up.dead:
            return up
        # dial outside the lock; losing a benign race just means the
        # loser's connection replaces the winner's identical one
        address = self.router.fleet.address(shard_id)
        up = _Upstream(shard_id, address, self)
        with self._lock:
            old = self._upstreams.get(shard_id)
            if self._closed or (old is not None and not old.dead):
                up.close()
                return None if self._closed else old
            self._upstreams[shard_id] = up
        return up

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

    def on_upstream_response(self, shard_id: str, pend: _Pending, msg: dict,
                             payload: Optional[memoryview],
                             line: bytes) -> None:
        """``pend``'s reply: recorded, and relayed as the shard wrote it."""
        self.router.record(shard_id, pend.key, time.perf_counter() - pend.t0)
        self.reply(line, payload)

    def lost(self, up: _Upstream, orphans: list[_Pending]) -> None:
        """An upstream broke: eject its shard, replay what it still owed."""
        with self._lock:
            if self._upstreams.get(up.shard_id) is up:
                del self._upstreams[up.shard_id]
            if self._closed:
                return
        if self.router.fleet.eject(up.shard_id, reason="upstream-eof"):
            self.router.count("ejections_seen")
        if not orphans:
            return
        self.router.count("orphans_replayed", len(orphans), shard=up.shard_id)
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
        for up in upstreams:
            up.close()


class ShardRouter(FrameServer):
    """The framed endpoint routing every connection onto a fleet."""

    #: every count the router keeps (``counters()``; tracer ``shard.<name>``)
    COUNTERS = ("routed", "replays", "failovers", "flapped_routes",
                "ejections_seen", "route_failures", "no_shard_errors",
                "prewarms_sent", "prewarm_errors", "orphans_replayed")

    def __init__(self, address: tuple[str, int], fleet: ShardFleet,
                 prewarm: bool = True):
        super().__init__(address)
        self.fleet = fleet
        self.prewarm_enabled = prewarm
        self.latencies = LatencyRecorder()
        self.plan_latencies = LatencyRecorder()
        self._counts = Counters("shard", self.COUNTERS)
        #: ``count(name, by=1, **tracer_attrs)``: one routing event
        self.count = self._counts.add
        self._route_keys: dict[tuple, str] = {}  # see route_key_for
        self._seen_lock = threading.Lock()
        self._seen_keys: set[str] = set()
        self._prewarm_q: queue.Queue = queue.Queue()
        threading.Thread(
            target=self._prewarm_loop, name="shard-router-prewarm",
            daemon=True,
        ).start()

    def session(self, conn: FrameConn) -> _Session:
        return _Session(conn, self)

    def route_key_for(self, n: int, threads, mu, strategy) -> str:
        """:meth:`ShardFleet.route_key_for`, remembered per spelling of a
        request — each hint's value *and* type, so ``2`` and ``2.0`` (an
        error) never share an entry.  What raises is not remembered and
        raises again; an unhashable hint is computed every time.  At most
        :data:`ROUTE_MEMO_SIZE` spellings are kept."""
        spelling = (n, threads, mu, strategy,
                    type(threads), type(mu), type(strategy))
        memo = self._route_keys
        try:
            return memo[spelling]
        except KeyError:
            pass
        except TypeError:  # a list or object hint
            return self.fleet.route_key_for(n, threads, mu, strategy)
        key = self.fleet.route_key_for(n, threads, mu, strategy)
        if len(memo) >= ROUTE_MEMO_SIZE:
            memo.clear()
        memo[spelling] = key
        return key

    # -- metrics ---------------------------------------------------------------

    def counters(self) -> dict:
        return self._counts.snapshot()

    def record(self, shard_id: str, key: str, seconds: float) -> None:
        """One routed response, by shard and by plan routing string."""
        self.latencies.record(shard_id, seconds)
        self.plan_latencies.record(key, seconds)

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
            "fleet": self.fleet.counters(),
        }
        agg["shards"] = per_shard
        agg["health"] = self.health_snapshot()
        return agg

    # -- prewarm ---------------------------------------------------------------

    def note_key(self, key: str, msg: dict) -> None:
        """First sighting of a plan key → queue successor prewarms."""
        if not self.prewarm_enabled or key in self._seen_keys:
            return  # the set only grows: an unlocked hit is final
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
