"""`ProcessPoolRuntime`: a persistent SPMD process pool with real speedup.

The process analogue of :class:`repro.smp.runtime.PThreadsRuntime`: ``p``
parties (the master counts as processor 0, plus ``p - 1`` persistent worker
processes) execute a generated stage plan in lockstep over shared-memory
double buffers, synchronizing through a sense-reversing barrier built on
shared semaphores and *skipping* the barrier for stages the generator
proved processor-local — the paper's minimal-synchronization execution
model, with OS processes supplying the parallelism CPython threads cannot.

Plans cross the process boundary as :class:`~repro.mp.spec.PlanSpec`
values: each worker compiles the spec locally into the identical stage plan
(deterministic pipeline) and caches it, so the per-plan compile cost is
paid once per process and amortized over the pool's lifetime — closures
never get pickled.  :meth:`~repro.smp.runtime.Runtime.run` therefore walks
``plan.stages`` as processor 0 and ships ``plan.spec`` to the workers; a
plan without a spec (and the bare-closure :meth:`execute`) is a
``TypeError`` here.

Failure contract (identical to the thread pool, so the serving layer's
self-healing applies unchanged): a worker death mid-plan
surfaces as a typed :class:`~repro.smp.runtime.WorkerPoolBroken` instead
of a hang, ``healthy`` turns False, and the holder is expected to
``close()`` the pool and build a replacement.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections import OrderedDict
from queue import Empty
from threading import BrokenBarrierError
from typing import Optional

import numpy as np

from ..faults import get_fault_plan
from ..smp.runtime import (
    ExecutionStats,
    Runtime,
    WorkerPoolBroken,
    lockstep_walk,
)
from ..trace import get_tracer
from ..trace.merge import merge_span_reports
from .arena import SharedArena, SharedBuffer
from .barrier import SharedSenseBarrier
from .spec import PlanSpec, compile_spec
from .worker import worker_main

#: environment override for the start method (CI runs both fork and spawn)
START_METHOD_ENV = "REPRO_MP_START"

#: distinct buffer sizes kept mapped between calls (LRU beyond this)
BUFFER_CACHE_MAX = 8


def _ensure_resource_tracker() -> None:
    """Start the resource tracker before any worker is forked.

    The tracker launches lazily on first registration; our first segment is
    allocated *after* the workers fork, so without this a fork worker would
    inherit ``_fd=None`` and its first attach would launch a second tracker
    that receives the attach-side registrations but never the master's
    unregisters — warning about phantom "leaked" segments at worker exit
    (spawn is immune: the tracker fd is passed explicitly).
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except (ImportError, AttributeError):  # pragma: no cover - non-POSIX
        pass


def default_start_method() -> str:
    """``$REPRO_MP_START`` if set, else ``fork`` where available (cheap,
    inherits the warm interpreter), else ``spawn``."""
    env = os.environ.get(START_METHOD_ENV)
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


#: why a spec-less plan (or a bare stage list) cannot run here
_NEEDS_SPEC = (
    "ProcessPoolRuntime cannot execute closure-based stage lists "
    "(PlanStage.work does not pickle); run a plan built from a PlanSpec — "
    "run(build_plan(spec), x) or execute_spec(spec, x) — so each worker "
    "compiles the identical plan locally"
)


class RemoteWorkerError(RuntimeError):
    """A worker process raised during plan execution; carries its traceback.

    The cross-process counterpart of the thread pool re-raising a worker's
    exception object: the original object cannot travel, so the formatted
    traceback does.  The pool is broken afterwards (the failing worker
    aborted the barrier).
    """

    def __init__(self, proc: int, tb: str):
        super().__init__(f"pool worker {proc} failed:\n{tb}")
        self.proc = proc
        self.tb = tb


class ProcessPoolRuntime(Runtime):
    """Persistent SPMD worker pool over ``multiprocessing.shared_memory``.

    Workers rebuild each plan from ``plan.spec`` (``needs_spec``), the
    *effective* spec, with no wisdom in hand.

    ::

        with ProcessPoolRuntime(2) as pool:
            plan = compile_spec(PlanSpec.for_request(4096, threads=2))
            y, stats = pool.run(plan, x)

    ``start_method`` picks ``fork``/``spawn``/``forkserver`` (default: see
    :func:`default_start_method`; fork-vs-spawn caveats in
    ``docs/parallel.md``).  Input may be one length-``n`` vector or a
    ``(b, n)`` stack; shared double buffers are pooled per distinct size.
    """

    needs_spec = True

    def __init__(
        self,
        p: int,
        start_method: Optional[str] = None,
        poll_s: float = 0.05,
    ):
        if p < 1:
            raise ValueError(f"need p >= 1 workers, got {p}")
        self.p = p
        self.start_method = start_method or default_start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        self._poll = poll_s
        self._arena = SharedArena(prefix="repro-mp")
        self._buffers: OrderedDict[int, tuple[SharedBuffer, SharedBuffer]] = (
            OrderedDict()
        )
        self._seq = 0
        self._closed = False
        self._broken = False
        # one execution at a time: the pool runs jobs in lockstep, and a
        # service's baton lets one batch run at a time anyway
        self._exec_lock = threading.Lock()
        if p > 1:
            _ensure_resource_tracker()
            self._barrier = SharedSenseBarrier(p, self._ctx)
            self._cmd_qs = [self._ctx.Queue() for _ in range(p - 1)]
            self._res_q = self._ctx.Queue()
            self._procs = [
                self._ctx.Process(
                    target=worker_main,
                    # untrack=False: pool children share the master's
                    # resource tracker under every start method (the
                    # tracker fd is inherited/passed), so attach-side
                    # registration is an idempotent set-add and the
                    # master's single unregister at unlink is correct
                    args=(i, p, self._cmd_qs[i - 1], self._res_q,
                          self._barrier, poll_s, False),
                    name=f"repro-mp-worker-{i}",
                    daemon=True,
                )
                for i in range(1, p)
            ]
            for pr in self._procs:
                pr.start()
        else:
            self._barrier = None
            self._cmd_qs = []
            self._res_q = None
            self._procs = []

    # -- health ---------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        """True while every pool worker is alive and no job broke down."""
        return (
            not self._closed
            and not self._broken
            and (self._barrier is None or not self._barrier.broken)
            and all(pr.is_alive() for pr in self._procs)
        )

    def _workers_alive(self) -> bool:
        return all(pr.is_alive() for pr in self._procs)

    # -- execution ------------------------------------------------------------

    def execute(self, stages, x, size):
        raise TypeError(_NEEDS_SPEC)

    def execute_spec(
        self, spec: PlanSpec, x: np.ndarray
    ) -> tuple[np.ndarray, ExecutionStats]:
        """``run(compile_spec(spec), x)``: the spec-in, array-out shorthand."""
        return self.run(compile_spec(spec), x)

    def _walk(self, stages, flat, spec, out=None):
        """The master's side of one job: processor 0 of the lockstep walk.

        ``stages`` must come from the builder that workers apply to ``spec``
        (:func:`repro.serve.plan_cache.build_plan`) — SPMD lockstep rests on
        every party walking the identical stage structure.
        """
        if spec is None:
            raise TypeError(_NEEDS_SPEC)
        with self._exec_lock:
            return self._walk_locked(stages, flat, spec, out)

    def _walk_locked(self, stages, flat, spec, out):
        if self._closed:
            raise RuntimeError(
                "ProcessPoolRuntime is closed; worker pool no longer exists"
            )
        if self._broken:
            raise WorkerPoolBroken(
                f"pool of {self.p} lost a worker; rebuild the runtime"
            )
        if spec.threads > self.p:
            raise ValueError(
                f"plan spec wants {spec.threads} processors, pool has {self.p}"
            )
        tr = get_tracer()
        collect = tr.enabled
        src, dst = self._buffers_for(flat.size)
        src.array[:] = flat

        self._seq += 1
        seq = self._seq
        if self.p > 1:
            fp = get_fault_plan()
            if fp.enabled and fp.fired("mp.worker_crash"):
                # deterministic chaos: the last worker dies before this job
                self._cmd_qs[-1].put(("crash",))
            self._barrier.reset_accounting()
            payload = ("run", seq, spec, src.name, dst.name, flat.size,
                       collect)
            for q in self._cmd_qs:
                q.put(payload)

        master_exc: Optional[BaseException] = None
        master_reports = [] if collect else None
        with tr.span("mp.execute", "mp", n=spec.n, threads=spec.threads,
                     vectors=flat.size // spec.n, procs=self.p):
            try:
                lockstep_walk(0, stages, src.array, dst.array,
                              self._master_wait, master_reports)
            except BrokenBarrierError:
                self._broken = True
            except BaseException as exc:
                master_exc = exc
                if self._barrier is not None:
                    self._barrier.abort()  # unstick workers
                self._broken = True
            worker_error = self._collect(seq, tr) if self.p > 1 else None

        # a real exception outranks the secondary barrier breakage it causes
        if master_exc is not None:
            raise master_exc
        if worker_error is not None:
            self._broken = True
            raise RemoteWorkerError(*worker_error)
        if self._broken:
            raise WorkerPoolBroken(
                f"pool of {self.p} lost a worker mid-plan"
            )
        if master_reports:
            merge_span_reports(tr, master_reports)
        par = sum(1 for s in stages if s.parallel)
        stats = ExecutionStats(
            barriers=self._barrier.wait_count // self.p if self.p > 1 else 0,
            parallel_stages=par, sequential_stages=len(stages) - par,
        )
        # lockstep_walk swaps its buffer locals each stage; recover the
        # final buffer by parity, copy out so pooled buffers can be reused
        final = src.array if len(stages) % 2 == 0 else dst.array
        if out is None:
            return np.array(final, copy=True), stats
        np.copyto(out, final)
        return out, stats

    def _master_wait(self) -> None:
        if self._barrier is not None:
            self._barrier.wait(poll=self._poll, check=self._workers_alive)

    def _collect(self, seq: int, tr):
        """Wait for every worker's job-``seq`` report; track deaths.

        Returns ``(proc, traceback)`` for the first real worker error, or
        None.  Workers that died without reporting are detected by liveness
        polling and flip the pool to broken instead of hanging the master.
        """
        needed = set(range(1, self.p))
        error = None
        while needed:
            try:
                msg = self._res_q.get(timeout=self._poll)
            except Empty:
                for proc in list(needed):
                    if not self._procs[proc - 1].is_alive():
                        needed.discard(proc)
                        self._broken = True
                continue
            kind, proc, mseq, payload = msg
            if mseq != seq:
                continue  # stale report from an aborted earlier job
            needed.discard(proc)
            if kind == "error" and error is None:
                error = (proc, payload)
            elif kind == "broken":
                self._broken = True
            elif kind == "done" and payload and tr.enabled:
                merge_span_reports(tr, payload)
        return error

    # -- buffers --------------------------------------------------------------

    def _buffers_for(self, nelems: int) -> tuple[SharedBuffer, SharedBuffer]:
        """The pooled (src, dst) shared buffers for this flat size."""
        pair = self._buffers.get(nelems)
        if pair is None:
            pair = (self._arena.allocate(nelems), self._arena.allocate(nelems))
            self._buffers[nelems] = pair
            while len(self._buffers) > BUFFER_CACHE_MAX:
                _, (s, d) = self._buffers.popitem(last=False)
                s.release()
                d.release()
        else:
            self._buffers.move_to_end(nelems)
        return pair

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down and unlink every shared segment; idempotent."""
        with self._exec_lock:
            if self._closed:
                return
            self._closed = True
            for q in self._cmd_qs:
                try:
                    q.put(("exit",))
                except Exception:  # pragma: no cover - queue already dead
                    pass
            for pr in self._procs:
                pr.join(timeout=5)
            for pr in self._procs:
                if pr.is_alive():  # pragma: no cover - stuck worker
                    pr.terminate()
                    pr.join(timeout=1)
            for q in self._cmd_qs + ([self._res_q] if self._res_q else []):
                q.cancel_join_thread()
                q.close()
            self._buffers.clear()
            self._arena.close()

    @property
    def segments_active(self) -> int:
        """Live shared segments this pool owns (leak accounting)."""
        return self._arena.active
