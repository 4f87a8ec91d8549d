"""`FFTService`: the in-process plan-and-execute engine behind ``repro serve``.

One long-lived service owns the whole serving pipeline:

* a :class:`~repro.serve.plan_cache.PlanCache` (LRU + single-flight)
  building what the :class:`~repro.wisdom.Wisdom` file's measured
  rankings say is fastest;
* **one admission path**, :meth:`FFTService.admit`: a group of requests
  (a server session's held burst; one request for ``submit`` and
  ``transform``) is admitted in one lock round.  A group with nothing to
  wait for — nothing queued or executing, nothing further from its
  sender — runs on the thread that admitted it, one stacked ``(b, n)``
  batch per :class:`~repro.serve.plan_cache.PlanKey` in arrival order;
  any other group queues, and **whoever waits runs the queue**
  (:meth:`FFTService._serve`; the service has no thread of its own): the
  head key's queued requests, up to ``max_batch`` vectors, taken whenever
  the baton is free — nobody waits for more to arrive.  One baton, so
  one batch executes at a time, always through ``_execute_batch``;
* **persistent runtimes**: one worker pool per thread count — a
  :class:`~repro.smp.runtime.PThreadsRuntime` by default, or a
  :class:`~repro.mp.ProcessPoolRuntime` with ``ServeConfig(runtime=
  "process")`` for true parallel speedup, built by
  :func:`~repro.smp.runtime.make_runtime` — created lazily, reused across
  every request, and closed exactly once on shutdown;
* **admission control**: a bounded queue (``queue_limit`` pending vectors);
  an over-full queue rejects with :class:`Overloaded` carrying a
  ``retry_after`` hint (a request larger than the whole queue is a
  ``ValueError``: no wait would admit it), and each request carries a
  deadline — requests whose deadline passes while queued fail *at expiry
  time* with a typed :class:`DeadlineExceeded`, wasting no execution slot;
* **self-healing where the pool is used**: the batch that breaks a
  worker pool retires it (and fails over to the sequential runtime when
  the pool died under it), the next batch that needs the pool rebuilds
  it, and a thread count that fails more than ``MAX_POOL_REBUILDS`` times
  runs *degraded* — sequentially — until ``DEGRADE_COOLDOWN_S`` has
  passed since its last failure.  No thread watches: the ``health()``
  snapshot / wire op brings the same records up to date when it reads
  them.  Failure seams are exercised deterministically through
  :mod:`repro.faults`.

Every event is counted once, in the service's :class:`~repro.trace.Counters`
(``stats`` / ``health`` read its snapshot; an active tracer sees the same
counts as ``serve.<name>``), and every stage emits ``serve.*`` spans.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..codegen.registry import counters as codegen_counters, get_backend
from ..faults import get_fault_plan
from ..frontend import counters as vector_counters, feasible_threads
from ..smp.runtime import (
    Runtime,
    SequentialRuntime,
    WorkerPoolBroken,
    check_out,
    make_runtime,
)
from ..trace import Counters, get_tracer
from ..wisdom import Wisdom
from .metrics import LatencyRecorder
from .plan_cache import PlanCache, PlanKey, plan_builder

#: pool failures a thread count absorbs before it runs degraded
MAX_POOL_REBUILDS = 2
#: failure-free time after which a degraded thread count gets a pool again
DEGRADE_COOLDOWN_S = 1.0
#: plan keys a service remembers, one per spelling of a request's hints
PLAN_KEY_MEMO_SIZE = 256
#: consecutive batch passes that may raise with one request at the queue's
#: head before that request fails (``internal``) and leaves the queue
MAX_RAISING_PASSES = 3


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
    #: only 0.0: there is no batching wait (any other value is refused);
    #: the field goes once nothing builds a config with it (ROADMAP item 1)
    window_s: float = 0.0
    max_batch: int = 48       #: max vectors per stacked execution
    queue_limit: int = 512    #: max pending vectors (admission control)
    cache_capacity: int = 64  #: plan-cache entries (LRU beyond this)
    default_timeout_s: Optional[float] = 30.0  #: per-request deadline
    wisdom_path: Optional[str] = None  #: measured rankings: built from, recorded to
    tune: bool = False  #: run a background Tuner (see repro.tune)
    tune_interval_s: float = 0.5  #: tuner tick period

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
    """A request's future, resolved once; ``result()`` blocks for the
    answer, and any number of waiters all get it.  A queued ticket makes
    progress only while some thread waits on the service (``result``,
    ``drain``, ``close``): waiting is running the queue.  One made with
    ``queued=False`` was run by the thread that admitted it, or refused
    at admission (with its ``error``)."""

    __slots__ = ("_done", "_result", "_error", "_service")

    def __init__(self, queued: bool = True, service=None, error=None):
        self._done = not queued
        self._result: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = error
        self._service: Optional[FFTService] = service

    def done(self) -> bool:
        """Resolved; a queued ticket nobody waits on stays unresolved."""
        return self._done

    def _resolve(self, result=None, error=None) -> None:
        self._result = result
        self._error = error
        self._done = True

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """The result, or the request's error raised; meanwhile this thread
        runs the queue (:meth:`FFTService._serve`) — a batch run here
        overruns ``timeout``, after which :class:`DeadlineExceeded` is
        raised — and a batch pass that raises raises here."""
        if not self._done:
            if timeout is not None:
                timeout = min(max(timeout, 0.0), threading.TIMEOUT_MAX)
            if not self._service._serve(self.done, timeout):
                raise DeadlineExceeded("timed out waiting for result")
        if self._error is not None:
            raise self._error
        return self._result


class _Request:
    __slots__ = ("key", "x", "out", "rows", "arrival", "deadline",
                 "no_batch", "squeeze", "ticket", "raised")

    def __init__(self, key, x, arrival, deadline, no_batch, squeeze, out):
        self.key = key
        self.x = x
        self.out = out  # (rows, n), like x; None: a fresh result
        self.rows = x.shape[0]
        self.squeeze = squeeze
        self.arrival = arrival
        self.deadline = deadline
        self.no_batch = no_batch
        self.ticket: Optional[FFTTicket] = None  # set once admitted
        self.raised = 0  # batch passes that raised with this one at the head


class FFTService:
    """Concurrent FFT plan-and-execute service (in-process API).

    ::

        with FFTService(ServeConfig(threads=2)) as svc:
            y = svc.transform(x)            # blocking convenience
            t = svc.submit(x)               # or a ticket: queued ...
            y = t.result(timeout=1.0)       # ... and run by its waiter
            group = [svc.request(x), svc.request(z)]
            svc.admit(group, here=True)     # one admission for both
            ys = [r.ticket.result() for r in group]
    """

    #: every count the service keeps (``stats()``; tracer ``serve.<name>``)
    COUNTERS = (
        "requests", "vectors", "batches", "batched_vectors", "rejected",
        "deadline_misses", "failures", "max_queue_depth", "request_wall_s",
        "failovers", "pool_rebuilds", "degraded_executions",
        "pool_degraded", "pool_promoted", "prewarms", "pass_failures",
    )
    #: the self-healing subset ``health()["counters"]`` carries
    HEALTH_COUNTERS = (
        "failovers", "pool_rebuilds", "degraded_executions",
        "deadline_misses", "failures", "rejected",
    )

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        if self.config.runtime not in ("threads", "process"):
            raise ValueError(
                f"unknown runtime {self.config.runtime!r}; "
                "expected 'threads' or 'process'"
            )
        if self.config.window_s != 0.0:
            raise ValueError(
                f"window_s must be 0.0, got {self.config.window_s!r}: "
                "there is no batching window"
            )
        get_backend(self.config.backend)  # reject unknown names up front
        wisdom = (
            Wisdom(self.config.wisdom_path)
            if self.config.wisdom_path
            else None
        )
        self.plans = PlanCache(
            capacity=self.config.cache_capacity,
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
        #: a request's spelling of its hints -> its PlanKey (_plan_key_for)
        self._plan_keys: dict[tuple, PlanKey] = {}
        self._cond = threading.Condition()
        self._queue: list[_Request] = []
        self._pending_vectors = 0
        #: the baton: a thread is running batches (_cond)
        self._executing = False
        #: threads waiting in _serve (_cond)
        self._waiting = 0
        self._closing = False
        self._runtimes: dict[int, Runtime] = {}
        self._runtime_lock = threading.Lock()
        #: per-thread-count pool failures: {"failures", "last_failure"}
        #: (guarded by _runtime_lock; see _pool_locked)
        self._pool_state: dict[int, dict] = {}
        #: the always-safe execution fallback degraded pools route through
        self._fallback = SequentialRuntime()
        self.counters = Counters("serve", self.COUNTERS)
        self.tuner = None
        if self.config.tune:
            from ..tune import Tuner, TunerConfig

            self.tuner = Tuner(
                self, TunerConfig(interval_s=self.config.tune_interval_s),
                wisdom=wisdom,
            )
            self.tuner.start()

    # -- public API ----------------------------------------------------------

    def request(
        self,
        x: np.ndarray,
        threads: Optional[int] = None,
        mu: Optional[int] = None,
        strategy: Optional[str] = None,
        nu: Optional[int] = None,
        timeout: Optional[float] = None,
        no_batch: bool = False,
        out: Optional[np.ndarray] = None,
    ) -> _Request:
        """One request (one vector or a ``(b, n)`` stack), checked and not
        yet admitted: its plan key, its deadline (counted from now) and its
        rows.  Raises ``ValueError`` for a bad shape, for more rows than
        ``queue_limit`` (no wait would ever admit them), and for a
        ``timeout`` that is not ``None`` (the configured default) or a
        number of seconds no larger in magnitude than
        ``threading.TIMEOUT_MAX`` — a bool, NaN, an infinity.
        ``no_batch=True`` makes the request a batch of its own (the
        one-request-at-a-time baseline path).

        ``out`` names where the result goes (as ``Runtime.run``'s ``out``:
        ``x``'s shape, C-contiguous, writable ``complex128``, apart from
        ``x``; anything else is a ``ValueError`` here).  The ticket's
        result is then ``out``: a batch of one is run into it, a batch of
        several copies the request's rows into it as its ticket resolves.

        The plan key is worked out once per spelling of the hints and then
        remembered (:meth:`_plan_key_for`)."""
        x = np.asarray(x, dtype=np.complex128)
        if out is not None:
            check_out(x, out)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[np.newaxis, :]
            if out is not None:
                out = out[np.newaxis, :]
        if x.ndim != 2 or x.shape[1] < 2:
            raise ValueError(f"expected (batch, n) input, got shape {x.shape}")
        rows, n = x.shape
        if rows > self.config.queue_limit:
            raise ValueError(
                f"{rows} vectors exceed queue_limit "
                f"{self.config.queue_limit}; split the request")
        spelling = (n, threads, mu, strategy, nu,
                    type(threads), type(mu), type(strategy), type(nu))
        try:
            key = self._plan_keys[spelling]
        except (KeyError, TypeError):  # a new spelling, or unhashable
            key = None
        if key is None:
            key = self._plan_key_for(spelling)
        if timeout is None:
            timeout = self.config.default_timeout_s
        elif (type(timeout) not in (float, int)  # else: a number, not bool
              and (type(timeout) is bool
                   or not isinstance(timeout, (int, float)))
              or not -threading.TIMEOUT_MAX <= timeout
              <= threading.TIMEOUT_MAX):
            raise ValueError(
                "timeout must be a number of seconds within "
                f"±threading.TIMEOUT_MAX, got {timeout!r}")
        now = time.monotonic()
        deadline = None if timeout is None else now + timeout
        return _Request(key, x, now, deadline, no_batch, squeeze, out)

    def admit(self, reqs: list[_Request], here: bool = False) -> None:
        """Admit a group of requests in one lock round, giving each its
        ``ticket``.

        Each request must fit under ``queue_limit`` on top of what is
        pending and what the group admitted before it; one that does not
        gets a ticket already failed with :class:`Overloaded`, and during
        shutdown every ticket fails with :class:`ServiceClosed`.

        ``here`` says nothing further will follow the group from its
        caller (a server session whose connection has nothing more to
        read; ``transform``).  When it holds and the service is idle —
        nothing queued or executing — the group runs on this
        thread before ``admit`` returns, in arrival order as one batch per
        :class:`PlanKey` of at most ``max_batch`` rows (a ``no_batch``
        request alone), and its tickets are resolved.  Otherwise it queues
        with one notify, and is run by whoever waits for it first.

        A group of one takes this same path and pays only for what it
        uses: two ``_cond`` rounds (claim and release the baton), one
        plan-cache round, and one counter round for everything it counts —
        admission, batch and wall time in one ``add_many``.
        """
        fp = get_fault_plan()
        limit = self.config.queue_limit
        rejected = 0
        cond = self._cond
        cond.acquire()  # not ``with``: Condition's __enter__ is Python
        try:
            base = depth = self._pending_vectors
            admitted = []
            for req in reqs:
                if self._closing:
                    req.ticket = FFTTicket(False, error=ServiceClosed(
                        "service is shutting down"))
                # chaos: a queue-full burst rejects admissions regardless of
                # the real backlog, exercising the client's retry-after path
                elif ((fp.enabled and fp.fired("serve.queue_burst"))
                        or depth + req.rows > limit):
                    req.ticket = FFTTicket(False, error=Overloaded(
                        self._retry_after(depth), depth))
                    rejected += 1
                else:
                    depth += req.rows
                    admitted.append(req)
            run_here = (here and bool(admitted) and not self._queue
                        and not self._executing)
            for req in admitted:
                req.ticket = FFTTicket(not run_here, self)
            if run_here:
                self._executing = True
            elif admitted:
                self._queue += admitted
                self._pending_vectors = depth
                cond.notify_all()
        finally:
            cond.release()
        counts = [("rejected", rejected)] if rejected else []
        if admitted:
            tr = get_tracer()
            if tr.enabled:
                tr.sample("serve.queue_depth", depth)
            self.counters.peak("max_queue_depth", depth)
            counts += [("requests", len(admitted)), ("vectors", depth - base)]
            if run_here:  # one lock round counts the admission and batches
                try:
                    for key, batch in self._batches(admitted):
                        counts += self._execute_batch(key, batch)
                finally:
                    self._release_baton()
        if counts:
            self.counters.add_many(counts)

    def submit(self, x: np.ndarray, **kw) -> FFTTicket:
        """Queue one request (see :meth:`request` for ``kw``); returns its
        ticket.  Raises :class:`Overloaded` when the queue is full and
        :class:`ServiceClosed` during shutdown.  It never runs here: a
        burst of ``submit`` calls batches on the first thread that waits,
        and a ticket nobody waits on (only polled with ``done()``) stays
        queued, its deadline unswept."""
        req = self.request(x, **kw)
        self.admit([req])
        if req.ticket._service is None:  # refused at admission
            req.ticket.result()
        return req.ticket

    def transform(self, x: np.ndarray, **kw) -> np.ndarray:
        """Blocking convenience: one request's result, run on this thread
        when the service is idle (nothing can follow a blocking call from
        this caller)."""
        timeout = kw.get("timeout", self.config.default_timeout_s)
        # grace so queue-side deadline handling (not the ticket wait) decides
        wait = None if timeout is None else timeout + 1.0
        req = self.request(x, **kw)
        self.admit([req], here=True)
        return req.ticket.result(wait)

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
            "max_batch": self.config.max_batch,
            "queue_limit": self.config.queue_limit,
            "cache_capacity": self.config.cache_capacity,
            "backend": self.config.backend,
            "tune": self.config.tune,
        }
        return m

    def health(self) -> dict:
        """Liveness/degradation snapshot (the wire protocol's ``health`` op).

        ``status`` is ``"ok"`` only while no pool is degraded and no
        cached plan runs on another backend than the
        configured one (``fallbacks`` names each that does); chaos tests
        poll this until the service reports recovery after faults stop.
        Reading brings each pool record up to date first, exactly as the
        next batch would: a broken pool is retired (``healthy: None`` until
        a batch rebuilds it) and an expired degradation is promoted.
        """
        want = self.config.backend
        fallbacks = [
            f"{plan.key.label()} {want}->{plan.backend}"
            for plan in self.plans.values() if plan.backend != want
        ]
        now = time.monotonic()
        pools, retired = {}, []
        with self._runtime_lock:
            # every pool has a state record: _runtime_for makes it first
            for t in list(self._pool_state):
                st, broken = self._pool_locked(t, now)
                if broken is not None:
                    retired.append(broken)
                pools[str(t)] = {
                    "workers": t,
                    "healthy": True if t in self._runtimes else None,
                    "degraded": st["failures"] > MAX_POOL_REBUILDS,
                    "rebuilds": st["failures"],
                }
        for rt in retired:
            rt.close()
        degraded = any(p["degraded"] for p in pools.values())
        if self._closing:
            status = "closed"
        elif not degraded and not fallbacks:
            status = "ok"
        else:
            status = "degraded"
        snap = self.counters.snapshot()
        with self._cond:
            depth = self._pending_vectors
        return {
            "status": status,
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
        """Run the queue on this thread until it is empty and no batch
        executes; True when fully drained within ``timeout`` seconds (a
        batch this thread runs overruns it).  A batch pass that raises is
        counted (``pass_failures``) and drained past; a request at the
        head of :data:`MAX_RAISING_PASSES` such passes in a row fails, so
        even ``drain(None)`` ends.

        The graceful-shutdown half-step between "stop accepting" and
        :meth:`close`: callers cut off intake first (stop the TCP accept
        loop, or simply stop submitting), then drain, then close — so
        supervised shard children exiting on SIGTERM never drop batches
        that were already admitted."""
        return self._settle(timeout)

    def close(self) -> None:
        """Run what is queued, fail what a batch stuck for 10 s leaves
        queued, stop the runtimes."""
        with self._cond:
            if self._closing:
                return
            self._closing = True
        # stop the tuner first so no hot-swap lands mid-shutdown
        if self.tuner is not None:
            self.tuner.close()
        self._settle(10)
        with self._cond:
            leftovers, self._queue = self._queue, []
            self._pending_vectors = 0
            for req in leftovers:
                req.ticket._resolve(error=ServiceClosed("service closed"))
            self._cond.notify_all()
        with self._runtime_lock:
            for rt in self._runtimes.values():
                rt.close()
            self._runtimes.clear()

    def __enter__(self) -> "FFTService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _plan_key_for(self, spelling: tuple) -> PlanKey:
        """:meth:`ServeConfig.plan_key` of a request's ``(n, threads, mu,
        strategy, nu)``, remembered per spelling — each hint's value *and*
        type, so ``2`` and ``2.0`` (an error) never share an entry.  What
        raises is not remembered and raises again; an unhashable hint is
        worked out every time.  At most :data:`PLAN_KEY_MEMO_SIZE`
        spellings are kept."""
        key = self.config.plan_key(*spelling[:5])
        try:
            hash(spelling)
        except TypeError:  # a list or object hint
            return key
        memo = self._plan_keys
        if len(memo) >= PLAN_KEY_MEMO_SIZE:
            memo.clear()
        memo[spelling] = key
        return key

    def _retry_after(self, pending: int) -> float:
        """Backpressure hint: roughly the time to drain ``pending`` vectors."""
        backlog_batches = 1 + pending // max(1, self.config.max_batch)
        return 0.001 * backlog_batches

    def _pool_locked(self, threads: int, now: float):
        """``threads``' failure record, brought up to date
        (``_runtime_lock`` held) → ``(record, retired pool or None)``.

        A pool found broken is popped and its failure counted; the caller
        closes it outside the lock.  The count is *degraded* while it has
        failed more than ``MAX_POOL_REBUILDS`` times and its last failure
        is less than ``DEGRADE_COOLDOWN_S`` old; the first look after that
        promotes it, so traffic and ``health()`` count a promotion once.
        """
        st = self._pool_state.setdefault(
            threads, {"failures": 0, "last_failure": 0.0}
        )
        retired = None
        rt = self._runtimes.get(threads)
        if rt is not None and not rt.healthy:
            retired = self._runtimes.pop(threads)
            st["failures"] += 1
            st["last_failure"] = now
            if st["failures"] == MAX_POOL_REBUILDS + 1:
                self.counters.add("pool_degraded", threads=threads)
        if (st["failures"] > MAX_POOL_REBUILDS
                and now - st["last_failure"] >= DEGRADE_COOLDOWN_S):
            st["failures"] = 0
            self.counters.add("pool_promoted", threads=threads)
        return st, retired

    def _runtime_for(self, threads: int) -> Runtime:
        """The runtime a batch on ``threads`` runs on: the sequential
        fallback for one thread or a degraded count, else its pool —
        rebuilt here when a failure retired the last one."""
        if threads <= 1:
            return self._fallback
        with self._runtime_lock:
            rebuild = threads in self._pool_state
            st, retired = self._pool_locked(threads, time.monotonic())
            rt = self._runtimes.get(threads)
            if rt is None and st["failures"] > MAX_POOL_REBUILDS:
                self.counters.add("degraded_executions", threads=threads)
                rt = self._fallback
            elif rt is None:
                rt = make_runtime(self.config.runtime, threads)
                self._runtimes[threads] = rt
                if rebuild:
                    self.counters.add("pool_rebuilds", threads=threads)
        if retired is not None:
            retired.close()
        return rt

    def _retire_if_broken(self, threads: int) -> None:
        """A batch raised on ``threads``' pool: retire the pool if that
        broke it, so the next batch that needs one rebuilds it."""
        with self._runtime_lock:
            _, retired = self._pool_locked(threads, time.monotonic())
        if retired is not None:
            retired.close()

    def _sweep_expired_locked(self) -> None:
        """Fail queued requests whose deadline has passed (``_cond`` held).

        Resolving at expiry time — not when the batch eventually flushes —
        is what turns a missed deadline into a *typed* ``DeadlineExceeded``
        for the client instead of a late generic timeout.
        """
        if not self._queue:
            return
        expired = self._fail_expired(self._queue, time.monotonic())
        for r in expired:
            self._queue.remove(r)
            self._pending_vectors -= r.rows
        if expired:  # their waiters learn it now, not at the release
            self._cond.notify_all()

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

    def _settle(self, timeout: Optional[float]) -> bool:
        """:meth:`_serve` until idle, past passes that raise (counted)."""
        end = None if timeout is None else time.monotonic() + timeout
        while True:
            with contextlib.suppress(Exception):
                return self._serve(
                    lambda: not self._queue and not self._executing,
                    None if end is None else end - time.monotonic())

    def _serve(self, done, timeout: Optional[float] = None,
               interrupt=None) -> Optional[bool]:
        """Wait until ``done()`` (under ``_cond``), running the queue:
        while the baton is free and work is queued, take it and run
        :meth:`_next_batch` here.  True once ``done()``; False once
        ``timeout`` has passed (checked before and after each batch, so a
        batch run here overruns it); None once ``interrupt()`` — a
        session's "bytes wait on my socket" — holds.  A pass that raises
        is counted (:meth:`_pass_raised`) and raises here, the baton
        freed."""
        deadline = None if timeout is None else time.monotonic() + timeout
        cond = self._cond
        while True:
            with cond:
                while True:
                    if done():
                        return True
                    if interrupt is not None and interrupt():
                        return None
                    wait = (None if deadline is None
                            else deadline - time.monotonic())
                    if wait is not None and wait <= 0:
                        return False
                    if self._queue and not self._executing:
                        self._executing = True
                        break
                    self._waiting += 1
                    try:
                        cond.wait(wait)
                    finally:
                        self._waiting -= 1
            take: list = []
            try:
                key, take = self._next_batch()
                if take:
                    self.counters.add_many(self._execute_batch(key, take))
            except Exception as exc:
                self._pass_raised(take, exc)
                raise
            finally:
                self._release_baton()
            if deadline is not None and time.monotonic() >= deadline:
                return False

    def _next_batch(self) -> tuple:
        """The baton holder's next batch, out of the queue: the head
        request's key's first batch by :meth:`_batches`'s rule.  Nothing
        taken when what was queued expired."""
        with self._cond:
            self._sweep_expired_locked()
            if not self._queue:
                return None, []
            key = self._queue[0].key
            group = [r for r in self._queue if r.key == key]
            take = self._batches(group)[0][1]
            taken = set(take)
            self._queue = [r for r in self._queue if r not in taken]
            self._pending_vectors -= sum(r.rows for r in take)
        return key, take

    def _pass_raised(self, take: list, exc: Exception) -> None:
        """A batch pass raised (counted ``pass_failures``).  When it had
        taken ``take`` out of the queue, those of its requests still
        unresolved fail with ``exc``.  When it raised before taking
        anything, the queue's head is charged: every pass that takes a
        batch takes the head, so the head's count is the passes in a row
        that raised before taking; at :data:`MAX_RAISING_PASSES` it fails
        and leaves the queue, and every waiter's loop moves on.  Either
        way the failed requests are ``internal`` on the wire and counted
        in ``failures``."""
        failed = [r for r in take if not r.ticket.done()]
        for r in failed:
            r.ticket._resolve(error=exc)
        with self._cond:
            if not take and self._queue:
                head = self._queue[0]
                head.raised += 1
                if head.raised >= MAX_RAISING_PASSES:
                    self._queue.pop(0)
                    self._pending_vectors -= head.rows
                    head.ticket._resolve(error=ServeError(
                        f"{head.raised} batch passes in a row raised "
                        "with this request at the queue's head"))
                    failed.append(head)
        self.counters.add("pass_failures")
        if failed:
            self.counters.add("failures", len(failed))

    def _batches(self, reqs: list[_Request]) -> list:
        """``reqs`` as ``(key, requests)`` batches in arrival order: one per
        :class:`PlanKey` until it would pass ``max_batch`` rows, and a
        ``no_batch`` request alone."""
        if len(reqs) == 1:  # the lone request, or a burst of one
            return [(reqs[0].key, reqs)]
        batches: list = []
        filling: dict = {}  # key -> (requests, rows) of its batch still open
        for r in reqs:
            if r.no_batch:
                batches.append((r.key, [r]))
                continue
            batch, rows = filling.get(r.key, (None, 0))
            if batch is None or rows + r.rows > self.config.max_batch:
                batch, rows = [], 0
                batches.append((r.key, batch))
            batch.append(r)
            filling[r.key] = (batch, rows + r.rows)
        return batches

    def _release_baton(self) -> None:
        """A batch finished: free the baton, waking whoever waits."""
        cond = self._cond
        cond.acquire()
        try:
            self._executing = False
            if self._waiting:
                cond.notify_all()
        finally:
            cond.release()

    def _execute_batch(self, key: PlanKey, batch: list[_Request]) -> list:
        """Run ``batch`` and resolve its tickets; returns the ``(name,
        value)`` counts it owes, for the caller's one ``add_many``."""
        live = batch
        now = time.monotonic()
        for r in batch:  # a list is built only when a deadline has passed
            if r.deadline is not None and now > r.deadline:
                expired = self._fail_expired(batch, now)
                live = [r for r in batch if r not in expired]
                break
        if not live:
            return []
        tr = get_tracer()
        try:
            runtime = self._runtime_for(key.threads)
            # every request's x is already (rows, n): one copy joins them;
            # a lone request is run straight into its own out, if it has one
            if len(live) == 1:
                X, out = live[0].x, live[0].out
            else:
                X, out = np.concatenate([r.x for r in live]), None
            if tr.enabled:
                with tr.span("serve.execute", "serve", n=key.n,
                             threads=key.threads, vectors=X.shape[0],
                             requests=len(live)):
                    Y = self._run_plan(runtime, key, X, out)
            else:
                Y = self._run_plan(runtime, key, X, out)
        except BaseException as exc:
            for req in live:
                req.ticket._resolve(error=exc)
            return [("failures", len(live))]
        done = time.monotonic()
        window = self.tune_window
        row = 0
        wall_s = 0
        for req in live:
            if req.out is None:
                result = Y[row] if req.squeeze else Y[row:row + req.rows]
            else:
                if req.out is not Y:  # one of several: its rows, copied
                    np.copyto(req.out, Y[row:row + req.rows])
                result = req.out[0] if req.squeeze else req.out
            req.ticket._resolve(result=result)
            row += req.rows
            wall = done - req.arrival
            wall_s += wall
            self.latencies.record(key, wall)
            if window is not None:
                window.record(key, wall)
        if tr.enabled:
            tr.sample("serve.batch_occupancy", Y.shape[0])
        return [("batches", 1), ("batched_vectors", Y.shape[0]),
                ("request_wall_s", wall_s)]

    def _run_plan(self, runtime: Runtime, key: PlanKey, X: np.ndarray,
                  out: Optional[np.ndarray]) -> np.ndarray:
        """``key``'s cached plan on ``X`` (into ``out``): on ``runtime``, or
        on the sequential fallback when the pool died under it."""
        # whatever the pool kind, it runs the plan the cache holds
        plan = self.plans.get(key)
        try:
            return runtime.run(plan, X, out)[0]
        except BaseException as exc:
            # the batch that breaks a pool retires it
            if runtime is not self._fallback:
                self._retire_if_broken(key.threads)
            if not isinstance(exc, WorkerPoolBroken):
                raise
        # the pool died under this batch; the input stack is untouched (no
        # runtime writes its input), so re-run the same plan on the
        # sequential fallback rather than fail the tickets
        self.counters.add("failovers", threads=key.threads)
        return self._fallback.run(plan, X, out)[0]
