"""`FFTService`: the in-process plan-and-execute engine behind ``repro serve``.

One long-lived service owns the whole serving pipeline:

* a :class:`~repro.serve.plan_cache.PlanCache` (LRU + single-flight)
  building what the :class:`~repro.wisdom.Wisdom` file's measured
  rankings say is fastest;
* a **request batcher**: a dispatcher thread coalesces requests for the
  same :class:`~repro.serve.plan_cache.PlanKey` that arrive within
  ``window_s`` (or until ``max_batch`` vectors are pending) into one
  stacked ``(b, n)`` execution of the plan's batched stages — and a
  request with nothing to wait for (zero window, nothing queued or
  executing, nothing further from its sender) runs on the thread that
  submitted it instead, as a batch of its own rows: one baton, so one
  batch executes at a time, always through ``_execute_batch``;
* **persistent runtimes**: one worker pool per thread count — a
  :class:`~repro.smp.runtime.PThreadsRuntime` by default, or a
  :class:`~repro.mp.ProcessPoolRuntime` with ``ServeConfig(runtime=
  "process")`` for true parallel speedup, built by
  :func:`~repro.smp.runtime.make_runtime` — created lazily, reused across
  every request, and closed exactly once on shutdown;
* **admission control**: a bounded queue (``queue_limit`` pending vectors);
  an over-full queue rejects with :class:`Overloaded` carrying a
  ``retry_after`` hint, and each request carries a deadline — requests
  whose deadline passes while queued fail *at expiry time* with a typed
  :class:`DeadlineExceeded` instead of wasting an execution slot;
* **self-healing**: a supervisor thread restarts a dead dispatcher and
  rebuilds broken :class:`~repro.smp.runtime.PThreadsRuntime` pools; a
  batch whose pool dies mid-plan fails over to the sequential runtime,
  and a thread count that keeps failing is *degraded* to sequential
  execution until it has been quiet for ``degrade_cooldown_s`` (the
  ``health()`` snapshot / wire op reports all of this).  Failure seams
  are exercised deterministically through :mod:`repro.faults`.

Every event is counted once, in the service's :class:`~repro.trace.Counters`
(``stats`` / ``health`` read its snapshot; an active tracer sees the same
counts as ``serve.<name>``), and every stage emits ``serve.*`` spans.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..codegen.registry import counters as codegen_counters, get_backend
from ..faults import get_fault_plan
from ..frontend import counters as vector_counters, feasible_threads
from ..smp.runtime import (
    Runtime,
    SequentialRuntime,
    WorkerPoolBroken,
    make_runtime,
)
from ..trace import Counters, get_tracer
from ..wisdom import Wisdom
from .metrics import LatencyRecorder
from .plan_cache import PlanCache, PlanKey, plan_builder


class ServeError(Exception):
    """Base class for serving-layer failures."""


class ServiceClosed(ServeError):
    """The service is shutting down; no new requests are admitted."""


class Overloaded(ServeError):
    """Admission control rejected the request; retry after ``retry_after``."""

    def __init__(self, retry_after: float, pending: int):
        super().__init__(
            f"queue full ({pending} vectors pending); "
            f"retry after {retry_after * 1e3:.1f} ms"
        )
        self.retry_after = retry_after
        self.pending = pending


class DeadlineExceeded(ServeError):
    """The request's deadline passed before a result was produced."""


@dataclass
class ServeConfig:
    """Tunables of one :class:`FFTService`."""

    threads: int = 1          #: default plan thread count
    mu: int = 4               #: default cache-line size (complex elements)
    strategy: str = "balanced"
    nu: int = 1               #: default vec(ν) granularity (SIMD width hint)
    runtime: str = "threads"  #: worker pool kind: "threads" or "process"
    backend: str = "numpy"    #: execution backend: numpy|compiled|simulator
    window_s: float = 0.0     #: max batching wait; 0 = continuous batching
    max_batch: int = 48       #: max vectors per stacked execution
    queue_limit: int = 512    #: max pending vectors (admission control)
    cache_capacity: int = 64  #: plan-cache entries (LRU beyond this)
    default_timeout_s: Optional[float] = 30.0  #: per-request deadline
    wisdom_path: Optional[str] = None  #: measured rankings: built from, recorded to
    supervise_interval_s: float = 0.05  #: supervisor health-check period
    max_pool_rebuilds: int = 2  #: pool failures tolerated before degrading
    degrade_cooldown_s: float = 1.0  #: quiet time before re-promoting a pool
    tune: bool = False  #: run a background Tuner (see repro.tune)
    tune_interval_s: float = 0.5  #: tuner tick period
    p99_target_ms: Optional[float] = None  #: batcher-knob autotuning goal

    def plan_key(self, n: int, threads: Optional[int] = None,
                 mu: Optional[int] = None, strategy: Optional[str] = None,
                 nu: Optional[int] = None) -> PlanKey:
        """The plan a request builds: defaults filled in and ``threads``
        clamped to the feasible count.  The batcher coalesces on this key
        and the shard tier routes by it."""
        threads = self.threads if threads is None else threads
        mu = self.mu if mu is None else mu
        return PlanKey(n, feasible_threads(n, threads, mu), mu,
                       strategy or self.strategy,
                       self.nu if nu is None else nu)


class FFTTicket:
    """A pending request's future; ``result()`` blocks for the answer."""

    __slots__ = ("_event", "_result", "_error")

    def __init__(self):
        self._event = threading.Event()
        self._result: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def _resolve(self, result=None, error=None) -> None:
        self._result = result
        self._error = error
        self._event.set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        if not self._event.wait(timeout):
            raise DeadlineExceeded("timed out waiting for result")
        if self._error is not None:
            raise self._error
        return self._result


def _always() -> bool:
    return True


class _Request:
    __slots__ = ("key", "x", "rows", "arrival", "deadline", "no_batch",
                 "squeeze", "ticket")

    def __init__(self, key, x, deadline, no_batch, squeeze=False):
        self.key = key
        self.x = x
        self.rows = int(x.shape[0])
        self.squeeze = squeeze
        self.arrival = time.monotonic()
        self.deadline = deadline
        self.no_batch = no_batch
        self.ticket = FFTTicket()


class FFTService:
    """Concurrent FFT plan-and-execute service (in-process API).

    ::

        with FFTService(ServeConfig(threads=2, window_s=0.002)) as svc:
            y = svc.transform(x)            # blocking convenience
            t = svc.submit(x)               # or a ticket ...
            y = t.result(timeout=1.0)       # ... resolved by the batcher
    """

    #: every count the service keeps (``stats()``; tracer ``serve.<name>``)
    COUNTERS = (
        "requests", "vectors", "batches", "batched_vectors", "rejected",
        "deadline_misses", "failures", "max_queue_depth", "request_wall_s",
        "failovers", "pool_rebuilds", "dispatcher_restarts",
        "degraded_executions", "pool_degraded", "pool_promoted", "prewarms",
    )
    #: the self-healing subset ``health()["counters"]`` carries
    HEALTH_COUNTERS = (
        "failovers", "pool_rebuilds", "dispatcher_restarts",
        "degraded_executions", "deadline_misses", "failures", "rejected",
    )

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        if self.config.runtime not in ("threads", "process"):
            raise ValueError(
                f"unknown runtime {self.config.runtime!r}; "
                "expected 'threads' or 'process'"
            )
        get_backend(self.config.backend)  # reject unknown names up front
        wisdom = (
            Wisdom(self.config.wisdom_path)
            if self.config.wisdom_path
            else None
        )
        self.wisdom = wisdom
        self.plans = PlanCache(
            capacity=self.config.cache_capacity,
            wisdom=wisdom,
            builder=plan_builder(
                wisdom, self.config.backend, self.config.runtime
            ),
            backend=self.config.backend,
        )
        #: cumulative per-plan-key latency (stats endpoint), and the
        #: tuner's observation window (drained every tick; keys are
        #: PlanKey tuples, stringified only at the stats boundary).  The
        #: window belongs to its drainer: None until a Tuner attaches and
        #: creates it, so an untuned service retains nothing per request
        self.latencies = LatencyRecorder()
        self.tune_window: Optional[LatencyRecorder] = None
        self._cond = threading.Condition()
        self._queue: list[_Request] = []
        self._pending_vectors = 0
        #: the baton: a batch is executing (dispatched or inline; _cond)
        self._executing = False
        self._closing = False
        self._runtimes: dict[int, Runtime] = {}
        self._runtime_lock = threading.Lock()
        #: per-thread-count pool health bookkeeping (guarded by _runtime_lock)
        self._pool_state: dict[int, dict] = {}
        #: the always-safe execution fallback degraded pools route through
        self._fallback = SequentialRuntime()
        self.counters = Counters("serve", self.COUNTERS)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="fft-serve-dispatch", daemon=True
        )
        self._dispatcher.start()
        self._stop_supervisor = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="fft-serve-supervise",
            daemon=True,
        )
        self._supervisor.start()
        self.tuner = None
        if self.config.tune:
            from ..tune import Tuner, TunerConfig

            self.tuner = Tuner(
                self,
                TunerConfig(
                    interval_s=self.config.tune_interval_s,
                    p99_target_ms=self.config.p99_target_ms,
                ),
                wisdom=wisdom,
            )
            self.tuner.start()

    # -- public API ----------------------------------------------------------

    def submit(
        self,
        x: np.ndarray,
        threads: Optional[int] = None,
        mu: Optional[int] = None,
        strategy: Optional[str] = None,
        nu: Optional[int] = None,
        timeout: Optional[float] = None,
        no_batch: bool = False,
        inline: Optional[Callable[[], bool]] = None,
    ) -> FFTTicket:
        """Enqueue a request (one vector or a ``(b, n)`` stack); returns a ticket.

        Raises :class:`Overloaded` when the queue is full and
        :class:`ServiceClosed` during shutdown.  ``no_batch=True`` flushes
        the request immediately instead of waiting out the batching window
        (the one-request-at-a-time baseline path).

        ``inline`` says whether the caller has nothing further to submit
        behind this request (a server session passes ``FrameConn.idle``);
        it is asked only when the window is zero and nothing is queued or
        executing, and if it holds the request runs on this thread and the
        returned ticket is already resolved.  Without it a request is
        always queued, so a burst of ``submit`` calls batches.
        """
        x = np.asarray(x, dtype=np.complex128)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[np.newaxis, :]
        if x.ndim != 2 or x.shape[1] < 2:
            raise ValueError(f"expected (batch, n) input, got shape {x.shape}")
        n = int(x.shape[1])
        key = self.config.plan_key(n, threads, mu, strategy, nu)
        if timeout is None:
            timeout = self.config.default_timeout_s
        deadline = None if timeout is None else time.monotonic() + timeout
        req = _Request(key, x, deadline, no_batch, squeeze=squeeze)

        fp = get_fault_plan()
        with self._cond:
            if self._closing:
                raise ServiceClosed("service is shutting down")
            # chaos: a queue-full burst rejects admissions regardless of the
            # real backlog, exercising the client's retry-after handling
            burst = fp.enabled and fp.fired("serve.queue_burst")
            depth = self._pending_vectors + req.rows
            if burst or depth > self.config.queue_limit:
                retry = self._retry_after_locked()
                self.counters.add("rejected")
                raise Overloaded(retry, self._pending_vectors)
            run_here = (inline is not None and not self._queue
                        and not self._executing
                        and (no_batch or self.config.window_s == 0)
                        and inline())
            if run_here:
                self._executing = True
            else:
                self._queue.append(req)
                self._pending_vectors = depth
                self._cond.notify_all()
        get_tracer().sample("serve.queue_depth", depth)
        self.counters.add("requests")
        self.counters.add("vectors", req.rows)
        self.counters.peak("max_queue_depth", depth)
        if run_here:
            try:
                self._execute_batch(key, [req])
            finally:
                self._release_baton()
        return req.ticket

    def transform(self, x: np.ndarray, **kw) -> np.ndarray:
        """Blocking convenience: ``submit(...).result()``, run on this
        thread when the service is idle (nothing can follow a blocking
        call from this caller)."""
        timeout = kw.get("timeout", self.config.default_timeout_s)
        # grace so queue-side deadline handling (not the ticket wait) decides
        wait = None if timeout is None else timeout + 1.0
        return self.submit(x, inline=_always, **kw).result(wait)

    def stats(self) -> dict:
        """A JSON-able snapshot of service and plan-cache metrics."""
        m = self.counters.snapshot()
        m["avg_batch_occupancy"] = (
            m["batched_vectors"] / m["batches"] if m["batches"] else 0.0
        )
        m["avg_request_wall_s"] = (
            m["request_wall_s"] / m["vectors"] if m["vectors"] else 0.0
        )
        with self._cond:
            m["queue_depth"] = self._pending_vectors
        m["plan_cache"] = self.plans.stats_snapshot()
        m["plans_cached"] = len(self.plans)
        m["health"] = self.health()
        m["per_plan_latency"] = {
            k.label(): block for k, block in self.latencies.summary().items()
        }
        m["tuner"] = self.tuner.snapshot() if self.tuner else None
        # process-wide degradations no plan record carries yet
        m["codegen"] = codegen_counters.snapshot()
        m["vector"] = vector_counters.snapshot()
        m["config"] = {
            "threads": self.config.threads,
            "mu": self.config.mu,
            "nu": self.config.nu,
            "window_ms": self.config.window_s * 1e3,
            "max_batch": self.config.max_batch,
            "queue_limit": self.config.queue_limit,
            "cache_capacity": self.config.cache_capacity,
            "backend": self.config.backend,
            "tune": self.config.tune,
        }
        return m

    def health(self) -> dict:
        """Liveness/degradation snapshot (the wire protocol's ``health`` op).

        ``status`` is ``"ok"`` only while the dispatcher is alive, no pool
        is degraded, every existing worker pool is healthy and no cached
        plan runs on another backend than the configured one
        (``fallbacks`` names each that does); chaos tests poll this until
        the service reports recovery after faults stop.
        """
        want = self.config.backend
        fallbacks = [
            f"{plan.key.label()} {want}->{plan.backend}"
            for plan in self.plans.values() if plan.backend != want
        ]
        with self._runtime_lock:
            pools = {}
            # every pool has a state record: _runtime_for makes it first
            for t, st in self._pool_state.items():
                rt = self._runtimes.get(t)
                pools[str(t)] = {
                    "workers": t,
                    "healthy": bool(rt.healthy)
                    if rt is not None
                    else None,  # dropped; rebuilt on next use
                    "degraded": st["degraded"],
                    "rebuilds": st["rebuilds"],
                }
        dispatcher_alive = self._dispatcher.is_alive()
        degraded = any(p["degraded"] for p in pools.values())
        unhealthy = any(p["healthy"] is False for p in pools.values())
        if self._closing:
            status = "closed"
        elif (dispatcher_alive and not degraded and not unhealthy
              and not fallbacks):
            status = "ok"
        else:
            status = "degraded"
        snap = self.counters.snapshot()
        with self._cond:
            depth = self._pending_vectors
        return {
            "status": status,
            "dispatcher_alive": dispatcher_alive,
            "queue_depth": depth,
            "pools": pools,
            "fallbacks": fallbacks,
            "counters": {k: snap[k] for k in self.HEALTH_COUNTERS},
            "faults": get_fault_plan().snapshot(),
        }

    def prewarm(self, n: int, threads: Optional[int] = None,
                mu: Optional[int] = None,
                strategy: Optional[str] = None) -> dict:
        """Build (or touch) the plan for a configuration without executing.

        The shard tier's plan-distribution hook: a router that planned a
        key on one shard calls this on the shards owning neighboring hash
        ranges, so a failover lands on an already-warm cache.  Plan
        building is single-flight, and the compiled backend's codelet
        cache is content-addressed on disk, so concurrent prewarms of the
        same key across a fleet cost one search and one compile.
        """
        if self._closing:
            raise ServiceClosed("service is shutting down")
        key = self.config.plan_key(int(n), threads, mu, strategy)
        plan = self.plans.get(key)
        self.counters.add("prewarms", n=key.n)
        return {
            "n": key.n,
            "threads": key.threads,
            "mu": key.mu,
            "strategy": key.strategy,
            "backend": plan.backend,
        }

    def drain(self, timeout: Optional[float] = 5.0) -> bool:
        """Wait for the request queue to empty and the executing batch to
        finish; True when fully drained.

        The graceful-shutdown half-step between "stop accepting" and
        :meth:`close`: callers cut off intake first (stop the TCP
        accept loop, or simply stop submitting), then drain, then close —
        so supervised shard children exiting on SIGTERM never drop
        batches that were already admitted.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._cond:
            while self._pending_vectors > 0 or self._executing:
                if deadline is None:
                    self._cond.wait(0.02)
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.02))
        return True

    def close(self) -> None:
        """Flush in-flight work, fail queued requests, stop the runtimes."""
        with self._cond:
            if self._closing:
                return
            self._closing = True
            self._cond.notify_all()
        # stop the tuner first so no hot-swap lands mid-shutdown, then the
        # supervisor so it cannot resurrect the dispatcher (or rebuild
        # pools) underneath the shutdown sequence
        if self.tuner is not None:
            self.tuner.close()
        self._stop_supervisor.set()
        self._supervisor.join(timeout=10)
        self._dispatcher.join(timeout=10)
        with self._cond:
            # a batch run inline may still hold the baton and its pool
            self._cond.wait_for(lambda: not self._executing, timeout=10)
            leftovers = list(self._queue)
            self._queue.clear()
            self._pending_vectors = 0
        for req in leftovers:
            req.ticket._resolve(error=ServiceClosed("service closed"))
        with self._runtime_lock:
            for rt in self._runtimes.values():
                rt.close()
            self._runtimes.clear()

    def __enter__(self) -> "FFTService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _retry_after_locked(self) -> float:
        """Backpressure hint: roughly the time to drain the current backlog."""
        backlog_batches = 1 + self._pending_vectors // max(
            1, self.config.max_batch
        )
        return max(self.config.window_s, 0.001) * backlog_batches

    def _pool_state_for(self, threads: int) -> dict:
        """This thread-count's health record (``_runtime_lock`` held)."""
        return self._pool_state.setdefault(
            threads,
            {"rebuilds": 0, "degraded": False, "last_failure": 0.0},
        )

    def _retire_pool_locked(self, threads: int, rt: Runtime) -> dict:
        """Drop a broken pool and record the failure (``_runtime_lock`` held).

        After ``max_pool_rebuilds`` failures the thread count is *degraded*:
        execution falls back to the sequential runtime until the pool has
        been failure-free for ``degrade_cooldown_s``.
        """
        self._runtimes.pop(threads, None)
        rt.close()
        st = self._pool_state_for(threads)
        st["rebuilds"] += 1
        st["last_failure"] = time.monotonic()
        if st["rebuilds"] > self.config.max_pool_rebuilds and not st["degraded"]:
            st["degraded"] = True
            self.counters.add("pool_degraded", threads=threads)
        return st

    def _runtime_for(self, threads: int) -> Runtime:
        if threads <= 1:
            return self._fallback
        with self._runtime_lock:
            st = self._pool_state_for(threads)
            if st["degraded"]:
                since = time.monotonic() - st["last_failure"]
                if since < self.config.degrade_cooldown_s:
                    self.counters.add("degraded_executions", threads=threads)
                    return self._fallback
                # failure-free cooldown passed: promote back to a real pool
                st["degraded"] = False
                st["rebuilds"] = 0
            rt = self._runtimes.get(threads)
            if rt is not None and not rt.healthy:
                st = self._retire_pool_locked(threads, rt)
                if st["degraded"]:
                    self.counters.add("degraded_executions", threads=threads)
                    return self._fallback
                rt = None
            if rt is None:
                rt = make_runtime(self.config.runtime, threads)
                self._runtimes[threads] = rt
                if st["rebuilds"] > 0:
                    self.counters.add("pool_rebuilds", threads=threads)
            return rt

    def _note_pool_failure(self, threads: int) -> None:
        """A pool broke mid-execution: retire it so the next use rebuilds."""
        with self._runtime_lock:
            rt = self._runtimes.get(threads)
            if rt is not None and not rt.healthy:
                self._retire_pool_locked(threads, rt)

    def _supervise_loop(self) -> None:
        """Self-healing: restart a dead dispatcher, rebuild broken pools.

        Runs every ``supervise_interval_s``.  Broken pools of a
        non-degraded thread count are rebuilt eagerly (so ``health``
        recovers without waiting for traffic); degraded thread counts are
        promoted back once they have been quiet for ``degrade_cooldown_s``.
        """
        while not self._stop_supervisor.wait(self.config.supervise_interval_s):
            if self._closing:
                return
            if not self._dispatcher.is_alive():
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name="fft-serve-dispatch",
                    daemon=True,
                )
                self._dispatcher.start()
                self.counters.add("dispatcher_restarts")
            now = time.monotonic()
            with self._runtime_lock:
                for t, rt in list(self._runtimes.items()):
                    if not rt.healthy:
                        st = self._retire_pool_locked(t, rt)
                        if not st["degraded"]:
                            self._runtimes[t] = make_runtime(
                                self.config.runtime, t
                            )
                            self.counters.add("pool_rebuilds", threads=t)
                for t, st in self._pool_state.items():
                    if (
                        st["degraded"]
                        and now - st["last_failure"]
                        >= self.config.degrade_cooldown_s
                    ):
                        st["degraded"] = False
                        st["rebuilds"] = 0
                        self.counters.add("pool_promoted", threads=t)

    def _sweep_expired_locked(self) -> None:
        """Fail queued requests whose deadline has passed (``_cond`` held).

        Resolving at expiry time — not when the batch eventually flushes —
        is what turns a missed deadline into a *typed* ``DeadlineExceeded``
        for the client instead of a late generic timeout.
        """
        if not self._queue:
            return
        for r in self._fail_expired(self._queue, time.monotonic()):
            self._queue.remove(r)
            self._pending_vectors -= r.rows

    def _fail_expired(self, reqs, now: float) -> list[_Request]:
        """Resolve (typed, counted once) those of ``reqs`` past their
        deadline; returns them."""
        expired = [
            r for r in reqs if r.deadline is not None and now > r.deadline
        ]
        for r in expired:
            r.ticket._resolve(error=DeadlineExceeded(
                f"deadline passed while queued (waited {now - r.arrival:.3f}s)"
            ))
        if expired:
            self.counters.add("deadline_misses", len(expired))
        return expired

    def _dispatch_loop(self) -> None:
        while True:
            fp = get_fault_plan()  # re-read: chaos may start/stop mid-run
            if fp.enabled:
                # chaos: the dispatcher dies here; the supervisor restarts
                # it without losing anything already queued
                fp.raise_if("serve.dispatcher_crash")
            with self._cond:
                self._sweep_expired_locked()
                # an inline batch holds the baton: its release notifies
                while self._executing or not (self._queue or self._closing):
                    self._cond.wait()
                    self._sweep_expired_locked()
                if not self._queue:
                    return  # closing, and nothing left to run
                head = self._queue[0]
                key = head.key
                window = 0.0 if head.no_batch else self.config.window_s
                flush_at = head.arrival + window
                # the window is a *maximum* wait: once the queue goes
                # quiescent (no arrival within a fraction of the window)
                # the batch flushes early, so closed-loop clients never
                # pay the full window once all their requests are in
                quiescence = max(window / 8.0, 0.0002)
                prev_vectors = -1
                quiet_deadline = 0.0
                while not self._closing:
                    self._sweep_expired_locked()
                    group = [r for r in self._queue if r.key == key]
                    if not group:
                        break  # the whole key expired while queued
                    vectors = sum(r.rows for r in group)
                    now = time.monotonic()
                    if (
                        vectors >= self.config.max_batch
                        or now >= flush_at
                        or any(r.no_batch for r in group)
                    ):
                        break
                    if vectors != prev_vectors:  # group grew: restart timer
                        prev_vectors = vectors
                        quiet_deadline = now + quiescence
                    elif now >= quiet_deadline:
                        break  # quiescent: this key saw no new arrivals
                    # never sleep past the earliest queued deadline
                    wake_at = min(flush_at, quiet_deadline)
                    for r in self._queue:
                        if r.deadline is not None and r.deadline < wake_at:
                            wake_at = r.deadline
                    self._cond.wait(timeout=max(wake_at - now, 0.0001))
                group = [r for r in self._queue if r.key == key]
                take: list[_Request] = []
                total = 0
                for r in group:
                    if take and total + r.rows > self.config.max_batch:
                        break
                    take.append(r)
                    total += r.rows
                for r in take:
                    self._queue.remove(r)
                self._pending_vectors -= total
                self._executing = bool(take)
            if take:
                try:
                    self._execute_batch(key, take)
                finally:
                    self._release_baton()

    def _release_baton(self) -> None:
        """A batch finished: free the baton, waking the dispatcher if work
        queued behind it and ``close`` if it waits."""
        with self._cond:
            self._executing = False
            if self._queue or self._closing:
                self._cond.notify_all()

    def _execute_batch(self, key: PlanKey, batch: list[_Request]) -> None:
        tr = get_tracer()
        expired = self._fail_expired(batch, time.monotonic())
        live = [r for r in batch if r not in expired] if expired else batch
        if not live:
            return
        try:
            runtime = self._runtime_for(key.threads)
            X = (
                live[0].x
                if len(live) == 1
                else np.vstack([r.x for r in live])
            )
            with tr.span("serve.execute", "serve", n=key.n,
                         threads=key.threads, vectors=int(X.shape[0]),
                         requests=len(live)):
                # whatever the pool kind, it runs the plan the cache holds
                plan = self.plans.get(key)
                try:
                    Y, _ = runtime.run(plan, X)
                except WorkerPoolBroken:
                    # the pool died under this batch; the input stack is
                    # untouched (no runtime writes its input), so re-run the
                    # same plan on the sequential fallback rather than fail
                    # the tickets
                    self._note_pool_failure(key.threads)
                    self.counters.add("failovers", threads=key.threads)
                    Y, _ = self._fallback.run(plan, X)
        except BaseException as exc:
            for req in live:
                req.ticket._resolve(error=exc)
            self.counters.add("failures", len(live))
            return
        done = time.monotonic()
        window = self.tune_window
        row = 0
        for req in live:
            result = Y[row] if req.squeeze else Y[row:row + req.rows]
            req.ticket._resolve(result=result)
            row += req.rows
            wall = done - req.arrival
            self.latencies.record(key, wall)
            if window is not None:
                window.record(key, wall)
        self.counters.add("batches")
        self.counters.add("batched_vectors", int(Y.shape[0]))
        self.counters.add("request_wall_s",
                          sum(done - r.arrival for r in live))
        tr.sample("serve.batch_occupancy", int(Y.shape[0]))
