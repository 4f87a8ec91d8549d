"""`ShardFleet`: a supervised fleet of FFTServer shards plus the ring.

The fleet owns the :class:`~repro.shard.worker.ShardWorker` handles, the
:class:`~repro.shard.ring.HashRing` mapping plan keys onto the *live*
subset of shards, and a supervisor thread in the mold of
:class:`~repro.serve.service.FFTService`'s: every tick it ejects dead
shards from the ring, respawns them, and re-admits a respawned shard
once its server answers ``ping`` — so a killed shard's hash ranges move
to its ring successors for the outage and flap back when it returns.
Plan keys are the shards' own (:meth:`ServeConfig.plan_key`), so the
ring places a request by the plan it will build, not by its spelling.

Two chaos hooks live here: ``shard.worker_crash`` (the supervisor
SIGKILLs a live shard — the full ejection/failover/restart path under a
seeded plan) and the ejection/rejoin counters the router's aggregated
``health`` op reports.
"""

from __future__ import annotations

import atexit
import threading
import time
from typing import Optional

from ..faults import get_fault_plan
from ..serve.client import ServeClient
from ..serve.service import ServeConfig
from ..trace import Counters
from .ring import HashRing, route_key
from .worker import ShardWorker, ShardWorkerDead

#: fleets with unreaped (non-daemon) children, swept at interpreter exit
_LIVE_FLEETS: "set[ShardFleet]" = set()
_ATEXIT_INSTALLED = False


def _atexit_sweep() -> None:  # pragma: no cover - interpreter teardown
    for fleet in list(_LIVE_FLEETS):
        try:
            fleet.close()
        except Exception:
            pass


class NoShardsAvailable(RuntimeError):
    """Every shard is ejected; the router cannot place the request."""


class ShardFleet:
    """Spawn, supervise, and route across ``shards`` FFTServer children.

    ::

        with ShardFleet(2, ServeConfig()) as fleet:
            sid = fleet.owner(fleet.route_key_for(4096))  # ring owner
            host, port = fleet.address(sid)

    ``config`` is the per-shard :class:`ServeConfig` (every shard gets an
    identical copy; a shared ``wisdom_path`` makes measured rankings
    fleet-wide).  ``vnodes`` tunes ring balance, ``replicas`` is how many
    ring successors get plan prewarms and failover retries.
    """

    #: every count the fleet keeps (``counters()``; tracer ``shard.<name>``)
    COUNTERS = ("ejections", "rejoins", "restarts", "chaos_kills")

    def __init__(
        self,
        shards: int,
        config: Optional[ServeConfig] = None,
        vnodes: int = 64,
        replicas: int = 1,
        supervise_interval_s: float = 0.05,
        start_method: Optional[str] = None,
        max_restarts: int = 8,
    ):
        if shards < 1:
            raise ValueError(f"need >= 1 shard, got {shards}")
        self.config = config or ServeConfig()
        self.replicas = max(0, min(replicas, shards - 1))
        self.max_restarts = max_restarts
        self._lock = threading.RLock()
        self._ring = HashRing(vnodes=vnodes)
        self._workers: dict[str, ShardWorker] = {}
        self._ejected: set[str] = set()
        self._closing = False
        self._counts = Counters("shard", self.COUNTERS)
        for i in range(shards):
            sid = f"shard-{i}"
            self._workers[sid] = ShardWorker(
                sid, self.config, start_method=start_method
            )
        global _ATEXIT_INSTALLED
        _LIVE_FLEETS.add(self)
        if not _ATEXIT_INSTALLED:
            atexit.register(_atexit_sweep)
            _ATEXIT_INSTALLED = True
        try:
            for sid, w in self._workers.items():
                w.spawn()
                self._ring.add(sid)
        except ShardWorkerDead:
            self.close()
            raise
        self._interval = supervise_interval_s
        self._stop = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="shard-fleet-supervise",
            daemon=True,
        )
        self._supervisor.start()

    # -- routing --------------------------------------------------------------

    @property
    def shard_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._workers)

    @property
    def live_shards(self) -> list[str]:
        with self._lock:
            return self._ring.members

    def route_key_for(self, n: int, threads: Optional[int] = None,
                      mu: Optional[int] = None,
                      strategy: Optional[str] = None) -> str:
        """The routing string for a request: the plan its shard will build
        (:meth:`ServeConfig.plan_key` — defaults filled in, ``threads``
        clamped), so every spelling of one effective plan has one owner,
        one batcher and one ``per_plan_latency`` row at the router."""
        key = self.config.plan_key(n, threads, mu, strategy)
        return route_key(key.n, key.threads, key.mu, key.strategy,
                         self.config.backend)

    def owner(self, key: str) -> str:
        """The live shard owning ``key``'s hash range."""
        with self._lock:
            sid = self._ring.owner(key)
        if sid is None:
            raise NoShardsAvailable("no live shards in the ring")
        return sid

    def successors(self, key: str, k: Optional[int] = None) -> list[str]:
        with self._lock:
            return self._ring.successors(
                key, self.replicas if k is None else k
            )

    def address(self, shard_id: str) -> tuple[str, int]:
        with self._lock:
            return self._workers[shard_id].address

    # -- failure handling ------------------------------------------------------

    def eject(self, shard_id: str, reason: str = "failure") -> bool:
        """Remove a shard from the ring; True if it was a live member.

        Called by the router on an upstream connection failure and by the
        supervisor on a dead child.  The worker itself is left to the
        supervisor, which respawns and later re-admits it.
        """
        with self._lock:
            if shard_id not in self._workers or shard_id in self._ejected:
                return False
            self._ring.remove(shard_id)
            self._ejected.add(shard_id)
        self._counts.add("ejections", shard=shard_id, reason=reason)
        return True

    def _try_rejoin(self, shard_id: str) -> None:
        """Probe a respawned shard; re-admit it once it answers ping."""
        try:
            host, port = self.address(shard_id)
            with ServeClient(host, port, timeout=2.0) as probe:
                if not probe.ping():
                    return
        except (OSError, ConnectionError, ShardWorkerDead):
            return
        with self._lock:
            if self._closing or shard_id not in self._ejected:
                return
            self._ejected.discard(shard_id)
            self._ring.add(shard_id)
        self._counts.add("rejoins", shard=shard_id)

    def _supervise_loop(self) -> None:
        while not self._stop.wait(self._interval):
            if self._closing:
                return
            fp = get_fault_plan()
            if fp.enabled and fp.fired("shard.worker_crash"):
                self._chaos_kill()
            with self._lock:
                workers = dict(self._workers)
            for sid, w in workers.items():
                if not w.alive:
                    self.eject(sid, reason="dead")
                    if w.restarts >= self.max_restarts:
                        continue  # crash-looping: leave it ejected
                    try:
                        w.respawn()
                    except ShardWorkerDead:
                        continue
                    self._counts.add("restarts", shard=sid)
                elif sid in self._ejected:
                    self._try_rejoin(sid)

    def _chaos_kill(self) -> None:
        """Chaos: SIGKILL the last live shard (deterministic victim)."""
        with self._lock:
            live = [sid for sid in sorted(self._workers)
                    if sid not in self._ejected]
            if len(live) < 2:
                return  # never chaos-kill the only shard
            victim = self._workers[live[-1]]
        victim.kill()
        self._counts.add("chaos_kills", shard=victim.shard_id)

    def kill_shard(self, shard_id: Optional[str] = None) -> str:
        """SIGKILL one shard (tests, ``loadgen --kill-after``); its id."""
        with self._lock:
            if shard_id is None:
                live = [s for s in sorted(self._workers)
                        if s not in self._ejected]
                shard_id = (live or sorted(self._workers))[-1]
            victim = self._workers[shard_id]
        victim.kill()
        return shard_id

    # -- observability ---------------------------------------------------------

    def counters(self) -> dict:
        return self._counts.snapshot()

    def health(self, probe_timeout: float = 2.0) -> dict:
        """Aggregate fleet health in the ``FFTService.health`` shape.

        ``status`` is ``"ok"`` only when every shard is live, in the
        ring, and itself reports ``"ok"``; any ejection, death, or
        degraded shard turns the verdict ``"degraded"`` (mirroring the
        single-service contract so chaos tests poll it identically).
        """
        shards: dict[str, dict] = {}
        with self._lock:
            workers = dict(self._workers)
            ejected = set(self._ejected)
        for sid, w in sorted(workers.items()):
            entry: dict = {
                "alive": w.alive,
                "in_ring": sid not in ejected,
                "port": w.port,
                "restarts": w.restarts,
                "status": "ejected",
                "healthy": False,
            }
            if w.alive and sid not in ejected:
                try:
                    with ServeClient(*w.address,
                                     timeout=probe_timeout) as probe:
                        snap = probe.health()
                    entry["status"] = snap["status"]
                    entry["healthy"] = snap["status"] == "ok"
                    entry["queue_depth"] = snap["queue_depth"]
                    entry["counters"] = snap["counters"]
                except Exception:
                    entry["status"] = "unreachable"
            shards[sid] = entry
        all_ok = shards and all(s["healthy"] for s in shards.values())
        with self._lock:
            ring_members = self._ring.members
            closing = self._closing
        return {
            "status": (
                "closed" if closing else ("ok" if all_ok else "degraded")
            ),
            "shards": shards,
            "ring": {"members": ring_members,
                     "ejected": sorted(ejected)},
            "counters": self.counters(),
            "faults": get_fault_plan().snapshot(),
        }

    def stats(self, probe_timeout: float = 5.0) -> dict:
        """Per-shard service stats (best effort; unreachable shards omitted)."""
        out: dict[str, dict] = {}
        with self._lock:
            workers = dict(self._workers)
        for sid, w in sorted(workers.items()):
            if not w.alive:
                continue
            try:
                with ServeClient(*w.address, timeout=probe_timeout) as c:
                    out[sid] = c.stats()
            except (OSError, ConnectionError, RuntimeError):
                continue
        return out

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop supervision and gracefully terminate every shard child."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
        if hasattr(self, "_stop"):
            self._stop.set()
            self._supervisor.join(timeout=10)
        for w in self._workers.values():
            w.terminate()
        _LIVE_FLEETS.discard(self)

    def __enter__(self) -> "ShardFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
