"""Shared-memory runtimes that execute generated stage plans.

A *plan* is a record carrying a list of :class:`PlanStage` entries (see
:class:`repro.serve.plan_cache.CachedPlan`); each stage is a callable
``work(proc, src, dst)`` that performs processor ``proc``'s share of one
pipeline stage reading ``src`` and writing ``dst``.  Every runtime runs a
plan through the one entry point :meth:`Runtime.run`; three runtimes share
that contract, and :func:`make_runtime` picks one by name:

* :class:`PThreadsRuntime` — a persistent SPMD worker pool with
  sense-reversing barriers; barriers are *skipped* for stages whose dataflow
  is processor-local (``needs_barrier=False``), reproducing the generated
  pthreads code's minimal synchronization.
* :class:`SequentialRuntime` — single-processor reference; runs a
  compiled plan's :class:`FusedStages` as one whole-plan C call.
* :class:`repro.mp.ProcessPoolRuntime` — the pthreads pool's lockstep walk
  (:func:`lockstep_walk`, the same function) across OS processes over
  shared memory.

Per-call fork-join threading (the paper's OpenMP and FFTW comparison) is
modeled by :attr:`repro.machine.cost_model.SyncProfile.FORK_JOIN` and
emitted by the standalone C program's ``openmp`` driver, not run here.

No runtime writes its input: the stage walks ping-pong two buffers of
their own (the first a copy of the input), the whole-plan call reads the
input in place and writes a fresh result.

Every thread executes exactly the loops the formula assigned to its
processor.  Whether the thread runtimes also *scale* depends on the stage
closures: the compiled backend's ctypes stages release the GIL for the whole
native call, the printed NumPy stages' only partially.  The simulated machines
(``repro.machine``) model the paper's platforms.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..faults import FaultInjected, get_fault_plan
from ..spl.expr import COMPLEX
from ..trace import get_tracer
from ..trace.merge import merge_span_reports
from .barrier import SenseReversingBarrier

StageWork = Callable[[int, np.ndarray, np.ndarray], None]


class WorkerPoolBroken(RuntimeError):
    """A pool worker died mid-plan; the pool can no longer run lockstep.

    Raised by :meth:`PThreadsRuntime.execute` instead of hanging when a
    worker thread disappears (crash, injected fault).  The pool is
    permanently broken afterwards (``healthy`` is False); holders are
    expected to ``close()`` it and build a replacement — which is exactly
    what the serving supervisor does.
    """


@dataclass(frozen=True)
class PlanStage:
    """One executable pipeline stage (immutable: wrap one with
    ``dataclasses.replace(st, work=...)``, never by assignment).

    ``nprocs`` is the number of processor shares the *plan* defines for this
    stage (a property of the generated program, not of the runtime executing
    it); sequential runtimes iterate over all shares on one thread.
    ``artifact`` is the provenance of the on-disk build ``work`` calls into
    (the compiled backend's shared object); None when there is none.
    """

    work: StageWork
    parallel: bool
    needs_barrier: bool
    name: str = ""
    nprocs: int = 1
    artifact: Optional[dict] = None


class FusedStages(tuple):
    """A plan's stages plus one call that runs all of them.

    ``whole(X, writable)`` takes the ``(b, n)`` C-contiguous, aligned
    ``complex128`` stack :meth:`Runtime.run_stages` vouched for (and
    whether its memory is writable, from the flags it already read), reads
    it in place, and returns a fresh ``(b, n)`` result equal bit for bit to
    walking the stages in order, every processor share in turn.  The
    compiled backend builds these
    (:meth:`repro.codegen.compiled_backend.CompiledPlan.plan_stages`);
    everything that walks stage by stage — the pools, the tracer, the
    process-pool workers — iterates one like any stage list.

    That the whole-plan call and the stages never disagree holds **by
    construction**, not by a check per call: the sequence is a tuple of
    frozen :class:`PlanStage` records, so no stage can be swapped or
    rewrapped in place, and every derived sequence — ``list(stages)``, a
    comprehension over ``dataclasses.replace(st, work=...)``, a slice, a
    concatenation — is a plain ``list`` / ``tuple`` that carries no
    ``whole`` and is walked stage by stage.
    """

    def __new__(cls, stages, whole: Callable[[np.ndarray, bool], np.ndarray]):
        self = super().__new__(cls, stages)
        self.whole = whole
        self.parallel_stages = sum(1 for st in self if st.parallel)
        return self


@dataclass
class ExecutionStats:
    """Synchronization accounting of one plan execution.

    The counters mean the same thing on every runtime, so traces are
    comparable across backends:

    * ``barriers`` — sense-reversing barrier episodes the pool *actually
      executed* (the thread pool and the process pool walk alike).  Always
      0 for :class:`SequentialRuntime`.
    * ``parallel_stages`` / ``sequential_stages`` — counted by the plan's
      ``PlanStage.parallel`` flag (a property of the generated program), not
      by how the runtime happened to execute the stage.
    """

    barriers: int = 0
    parallel_stages: int = 0
    sequential_stages: int = 0


#: the pool kinds :func:`lane_name` and :func:`make_runtime` accept
#: (``"threads"`` is :class:`repro.serve.ServeConfig`'s ``"pthreads"``)
RUNTIME_NAMES = ("sequential", "pthreads", "threads", "process")


def lane_name(runtime: str, threads: int) -> str:
    """The executor lane a pool kind runs a ``threads``-way plan on.

    ``"sequential"`` if ``threads <= 1`` (or on request), else the pool
    kind: ``"process"``, or ``"pthreads"`` for thread pools.  Wisdom
    observation and tuning records are keyed by these strings.  A kind
    outside :data:`RUNTIME_NAMES` raises ``ValueError``.
    """
    if runtime not in RUNTIME_NAMES:
        raise ValueError(
            f"unknown runtime {runtime!r}; expected one of "
            f"{', '.join(RUNTIME_NAMES)}"
        )
    if threads <= 1 or runtime == "sequential":
        return "sequential"
    return "process" if runtime == "process" else "pthreads"


def make_runtime(runtime: str, threads: int) -> "Runtime":
    """A fresh runtime for ``threads``-way plans on ``runtime``'s lane.

    :func:`lane_name` picks the lane and the lane picks the class:
    :class:`SequentialRuntime`, ``PThreadsRuntime(threads)`` or
    ``ProcessPoolRuntime(threads)``.  The caller closes it.
    """
    lane = lane_name(runtime, threads)
    if lane == "sequential":
        return SequentialRuntime()
    if lane == "process":
        from ..mp import ProcessPoolRuntime  # repro.mp imports this module

        return ProcessPoolRuntime(threads)
    return PThreadsRuntime(threads)


def lockstep_walk(proc, stages, src, dst, wait, reports=None) -> None:
    """Run party ``proc``'s share of a stage plan over double buffers.

    The paper's barrier-placement rule, stated once for the thread pool and
    the process pool alike: ``wait()`` before a stage that needs a barrier
    and on both sides of a sequential stage, **no** barrier for stages the
    generator marked ``needs_barrier=False``.  When ``reports`` is a list,
    one ``(name, proc, stage, t0, t1)`` span report per stage is appended
    in the ``perf_counter`` clock domain (see :mod:`repro.trace.merge`).
    """
    for si, stage in enumerate(stages):
        if stage.needs_barrier or not stage.parallel:
            wait()
        t0 = time.perf_counter() if reports is not None else 0.0
        if stage.parallel:
            if proc < max(1, stage.nprocs):
                stage.work(proc, src, dst)
        elif proc == 0:
            stage.work(0, src, dst)
        if reports is not None:
            reports.append(
                (stage.name or f"stage{si}", proc, si, t0,
                 time.perf_counter())
            )
        if not stage.parallel:
            # everyone must wait for the sequential stage to finish
            wait()
        src, dst = dst, src


class Runtime:
    """Base class: runs a plan record over double buffers."""

    #: number of workers this runtime drives
    p: int
    #: False once a pool lost a worker; a runtime without workers never does
    healthy: bool = True
    #: True when workers rebuild the plan from ``plan.spec``, so ``run``
    #: rejects a spec-less plan (a hunt-pruned term, ``repro check``'s bare
    #: program — every plan a service builds has one) with ``TypeError``
    needs_spec: bool = False
    #: True when an untraced :class:`FusedStages` runs as its one
    #: whole-plan call; otherwise it is walked like any stage list
    fuses: bool = False

    def run(self, plan, X: np.ndarray) -> tuple[np.ndarray, ExecutionStats]:
        """Run ``plan`` (a :func:`repro.serve.plan_cache.build_plan` record)
        on ``X`` of shape ``(n,)`` or ``(b, n)``: the one plan-execution
        entry point.  The result has ``X``'s shape on every runtime."""
        Y, stats = self.run_stages(plan.stages, plan.program.size, X,
                                   plan.spec)
        return (Y[0] if np.ndim(X) == 1 else Y), stats

    def run_stages(self, stages: Sequence[PlanStage], n: int, X: np.ndarray,
                   spec=None) -> tuple[np.ndarray, ExecutionStats]:
        """:meth:`run` for a bare stage list; the result is always ``(b, n)``.

        What reaches the whole-plan call or :meth:`_walk` (flattened) is
        C-contiguous, aligned ``complex128``: ``X``'s own memory when it
        already is all of that (it is only ever read, so a read-only array
        is fine), else a copy.
        """
        X = np.asarray(X, dtype=COMPLEX)
        if X.ndim == 1:
            X = X[np.newaxis, :]
        if X.ndim != 2 or X.shape[1] != n:
            raise ValueError(f"expected a (batch, {n}) stack, got {X.shape}")
        flags = X.flags
        writable = flags.writeable
        if not (flags.c_contiguous and flags.aligned):
            # the whole-plan call hands this buffer's address to C as is
            X, writable = np.array(X, order="C"), True
        # a tracer wants one span per stage, which only the walk can give
        if (self.fuses and isinstance(stages, FusedStages)
                and not get_tracer().enabled):
            par = stages.parallel_stages
            return stages.whole(X, writable), ExecutionStats(
                parallel_stages=par, sequential_stages=len(stages) - par
            )
        out, stats = self._walk(stages, X.reshape(-1), spec)
        return out.reshape(X.shape), stats

    def _walk(self, stages, flat: np.ndarray, spec):
        return self.execute(stages, flat, flat.size)

    def execute(
        self, stages: Sequence[PlanStage], x: np.ndarray, size: int
    ) -> tuple[np.ndarray, ExecutionStats]:
        """Walk ``stages`` over a copy of the flat buffer ``x``."""
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SequentialRuntime(Runtime):
    """Runs every stage's work items on the calling thread.

    Reports ``barriers == 0`` by construction: a single thread
    synchronizes with nobody, so the zero makes sequential traces directly
    comparable with the pools'.

    Through :meth:`run` / :meth:`run_stages`, a :class:`FusedStages` is
    run as its one whole-plan call — no copy of the input, no per-stage
    crossing into C — unless a tracer is enabled; every other stage
    sequence, and every traced run, is walked by :meth:`execute`.  Results
    and stats are identical either way.
    """

    p = 1
    fuses = True

    def execute(self, stages, x, size):
        tr = get_tracer()
        stats = ExecutionStats()
        src = np.array(x, dtype=np.complex128, copy=True)
        dst = np.empty_like(src)
        for si, stage in enumerate(stages):
            if tr.enabled:
                t0 = time.perf_counter()
                with tr.span(stage.name or f"stage{si}", "smp", tid=0,
                             stage=si, proc=0):
                    for proc in range(max(1, stage.nprocs)):
                        stage.work(proc, src, dst)
                tr.count("smp.stage_wall_s", time.perf_counter() - t0,
                         stage=si, proc=0)
            else:
                for proc in range(max(1, stage.nprocs)):
                    stage.work(proc, src, dst)
            if stage.parallel:
                stats.parallel_stages += 1
            else:
                stats.sequential_stages += 1
            src, dst = dst, src
        return src, stats


class PThreadsRuntime(Runtime):
    """Persistent SPMD worker pool (the paper's pthreads backend).

    Workers are created once and reused across ``execute`` calls (thread
    pooling).  Within a plan, workers run the stage sequence in lockstep;
    a barrier is executed only before stages with ``needs_barrier=True`` and
    around sequential stages.
    """

    def __init__(self, p: int):
        if p < 1:
            raise ValueError(f"need p >= 1 workers, got {p}")
        self.p = p
        self._barrier = SenseReversingBarrier(p)
        self._job: Optional[tuple] = None
        self._job_ready = threading.Condition()
        self._job_seq = 0
        # rendezvous of the master and the p-1 pool workers after each job
        self._done = threading.Barrier(p)
        self._shutdown = False
        self._closed = False
        self._broken = False
        self._errors: list[BaseException] = []
        self._threads = [
            threading.Thread(target=self._worker, args=(i,), daemon=True)
            for i in range(1, p)
        ]
        for t in self._threads:
            t.start()

    # -- worker loop --------------------------------------------------------

    def _worker(self, proc: int) -> None:
        seen = 0
        try:
            while True:
                with self._job_ready:
                    self._job_ready.wait_for(
                        lambda: self._shutdown or self._job_seq > seen
                    )
                    if self._shutdown:
                        return
                    seen = self._job_seq
                    job = self._job
                # a fired worker-crash fault escapes the except below and
                # kills this thread through the abort path — the pool must
                # then *fail fast*, not hang at the next barrier
                get_fault_plan().raise_if("runtime.worker_crash")
                try:
                    self._run_stages(proc, *job)
                except (FaultInjected, threading.BrokenBarrierError):
                    raise
                except BaseException as exc:  # propagate to master
                    self._errors.append(exc)
                    # this worker skipped its remaining barriers; break the
                    # lockstep so peers fail fast instead of waiting forever
                    self._barrier.abort()
                self._done.wait()
        except BaseException:
            # dying outside clean shutdown strands everyone still waiting
            # at a barrier; break both so master and peers unblock with an
            # error instead of deadlocking
            if not self._shutdown:
                self._barrier.abort()
                self._done.abort()

    def _run_stages(self, proc: int, stages, src, dst) -> None:
        tr = get_tracer()
        fp = get_fault_plan()
        if fp.enabled:
            fp.stall("runtime.worker_stall")
        if not tr.enabled:
            lockstep_walk(proc, stages, src, dst, self._barrier.wait)
            return
        reports: list = []
        lockstep_walk(proc, stages, src, dst,
                      lambda: self._timed_wait(tr, proc), reports)
        merge_span_reports(tr, reports, cat="smp")

    def _timed_wait(self, tr, proc: int) -> None:
        t0 = time.perf_counter()
        self._barrier.wait()
        tr.count("smp.barrier_wait_s", time.perf_counter() - t0, proc=proc)

    # -- master API ---------------------------------------------------------

    @property
    def healthy(self) -> bool:
        """True while every pool worker is alive and no job broke down."""
        return (
            not self._closed
            and not self._broken
            and not self._barrier.broken
            and all(t.is_alive() for t in self._threads)
        )

    def execute(self, stages, x, size):
        if self._closed:
            raise RuntimeError(
                "PThreadsRuntime is closed; worker pool no longer exists"
            )
        if self._broken:
            raise WorkerPoolBroken(
                f"pool of {self.p} lost a worker; rebuild the runtime"
            )
        for st in stages:
            if st.nprocs > self.p:
                raise ValueError(
                    f"plan stage {st.name!r} needs {st.nprocs} processors, "
                    f"pool has {self.p}"
                )
        stats = ExecutionStats()
        src = np.array(x, dtype=np.complex128, copy=True)
        dst = np.empty_like(src)
        self._errors.clear()
        self._barrier.reset_accounting()
        with self._job_ready:
            self._job = (list(stages), src, dst)
            self._job_seq += 1
            self._job_ready.notify_all()
        # master participates as processor 0; a BrokenBarrierError on either
        # barrier means a worker died mid-job — surface WorkerPoolBroken
        # instead of deadlocking or leaking a half-synchronized pool
        master_exc: Optional[BaseException] = None
        try:
            self._run_stages(0, list(stages), src, dst)
        except threading.BrokenBarrierError:
            self._broken = True
        except BaseException as exc:
            master_exc = exc
            self._barrier.abort()  # unstick workers waiting on the master
        if self.p > 1 and not self._broken:
            try:
                self._done.wait()
            except threading.BrokenBarrierError:
                self._broken = True
        if self._broken:
            # a worker whose stage raised has recorded its error and parked
            # at the rendezvous the master just skipped; nobody else will
            # arrive, so break it and let the worker take its exit path
            self._done.abort()
        # a real work exception outranks the secondary barrier breakage it
        # causes; pure breakage (a worker died) surfaces as WorkerPoolBroken
        if master_exc is not None:
            raise master_exc
        if self._errors:
            raise self._errors[0]
        if self._broken:
            raise WorkerPoolBroken(
                f"pool of {self.p} lost a worker mid-plan"
            )
        stats.barriers = self._barrier.wait_count // self.p
        stats.parallel_stages = sum(1 for s in stages if s.parallel)
        stats.sequential_stages = sum(1 for s in stages if not s.parallel)
        # lockstep_walk swaps its locals each stage; recover the final buffer
        # by parity (even stage count ends back in `src`)
        final = src if len(stages) % 2 == 0 else dst
        return final, stats

    def close(self) -> None:
        """Shut the pool down; idempotent (long-lived holders may race)."""
        if self._closed:
            return
        self._closed = True
        with self._job_ready:
            self._shutdown = True
            self._job_ready.notify_all()
        for t in self._threads:
            t.join(timeout=5)

