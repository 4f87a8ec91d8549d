"""The one plan record, its one builder, and the serving plan cache.

:class:`CachedPlan` is the value every runtime runs
(:meth:`repro.smp.runtime.Runtime.run`): the lowered Σ-SPL program plus
the batched stage list the configured execution backend builds from it
(:func:`repro.codegen.resolve_backend` — by default the printed NumPy
stages, or JIT-compiled C codelets with ``backend="compiled"``).
:func:`build_plan` is the only place a
:class:`~repro.mp.spec.PlanSpec` becomes one, and it is a pure function of
the spec; the process-local LRU :func:`repro.mp.spec.compile_spec`, the
tuner, measured search and the hunt all call it.  :func:`plan_builder` is
where a :class:`repro.wisdom.Wisdom` file enters: it builds the spec the
file's measured ranking says is fastest instead of the requested one.
:class:`PlanCache` is the single-flight LRU around it; three properties
matter for a long-lived service:

* **bounded** — an LRU of ``capacity`` plans, with eviction counters;
* **single-flight** — N concurrent requests for the same
  ``(n, threads, mu, strategy)`` trigger exactly one codegen; the
  rest block on the in-flight build and share its result (a failed build
  propagates its exception to every waiter and is *not* cached, so the
  next request retries);
* **observable** — hit/miss/eviction/wait counts in one
  :class:`~repro.trace.Counters` (``stats``; :meth:`PlanCache.stats_snapshot`
  for ``stats`` endpoints, ``serve.plan_cache.<name>`` on an active tracer).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from ..codegen.registry import resolve_backend
from ..faults import get_fault_plan
from ..frontend import lower_fft
from ..mp.spec import PlanSpec
from ..sigma.loops import SigmaProgram
from ..smp.runtime import PlanStage, lane_name
from ..trace import Counters, get_tracer
from ..wisdom import Wisdom


class PlanKey(NamedTuple):
    """One plan configuration; the cache and the batcher coalesce on this.

    ``nu`` is the vec(ν) granularity: ν > 1 plans lower through the
    vector rewriting so the compiled backend emits ν-wide SIMD bodies
    (interpreted backends execute them identically).  Scalar and ν-way
    plans are distinct cache entries — the tuner hot-swaps between them
    on measured time.
    """

    n: int
    threads: int = 1
    mu: int = 4
    strategy: str = "balanced"
    nu: int = 1

    def label(self) -> str:
        """Stable string form for stats/JSON maps keyed by plan."""
        tag = f":v{self.nu}" if self.nu > 1 else ""
        return f"n{self.n}:t{self.threads}:mu{self.mu}:{self.strategy}{tag}"


@dataclass
class CachedPlan:
    """An executable plan: the lowered program and its batched stages.

    ``backend`` records which execution backend actually built the stage
    list (after any registry fallback), so stats/health endpoints report
    what is really executing.  ``key`` is what was requested (the serving
    cache's coalescing key; ``None`` outside a cache) and ``spec`` what was
    built — what a process pool ships to its workers — differing where a
    wisdom ranking substituted a faster strategy, leaf bound or ν.  Only a
    hunt-pruned term, built from a bare program, has ``spec=None``.
    """

    key: Optional[PlanKey]
    program: SigmaProgram
    stages: Sequence[PlanStage]
    backend: str = "numpy"
    spec: Optional[PlanSpec] = None


def build_plan(spec: PlanSpec, key: Optional[PlanKey] = None) -> CachedPlan:
    """The one builder: ``spec`` → lowered program → backend stages.

    A pure function of the spec, so every process building it gets the
    same stage structure, index tables and constants — the invariant SPMD
    lockstep across pool workers rests on.
    """
    program = lower_fft(spec.n, spec.threads, spec.mu, spec.strategy,
                        spec.min_leaf, spec.nu)
    exec_backend = resolve_backend(spec.backend)
    return CachedPlan(
        key=key,
        program=program,
        stages=exec_backend.build_stages(program, spec.codelet_max),
        backend=exec_backend.name,
        spec=spec,
    )


class _Flight:
    """An in-progress plan build other threads can wait on."""

    __slots__ = ("event", "plan", "error")

    def __init__(self):
        self.event = threading.Event()
        self.plan: Optional[CachedPlan] = None
        self.error: Optional[BaseException] = None


def plan_builder(
    wisdom: Optional[Wisdom], backend: str = "numpy", runtime: str = "threads"
) -> Callable[[PlanKey], CachedPlan]:
    """A :class:`PlanCache` builder: :func:`build_plan` on the key's spec.

    With ``wisdom``, the spec built is the requested one
    :meth:`~PlanSpec.tuned` by the ranking of the lane a ``runtime`` pool
    runs the key on.  A build only reads the file.
    """
    def build(key: PlanKey) -> CachedPlan:
        spec = PlanSpec.from_plan_key(key, backend)
        if wisdom is None:
            return build_plan(spec, key)
        return build_plan(spec.tuned(wisdom.best(
            key.n, key.threads, key.mu, backend,
            lane_name(runtime, key.threads),
        )), key)

    return build


class PlanCache:
    """LRU-bounded, single-flight cache of executable plans.

    ``builder`` maps a :class:`PlanKey` to a :class:`CachedPlan`; the
    default is :func:`plan_builder`, which builds what ``wisdom``'s
    measured rankings say is fastest (so tuning persists across processes).
    """

    #: cumulative traffic counts (``stats``; tracer ``serve.plan_cache.<name>``)
    COUNTERS = ("hits", "misses", "evictions", "single_flight_waits",
                "plans_built", "swaps")

    def __init__(
        self,
        capacity: int = 64,
        wisdom: Optional[Wisdom] = None,
        builder: Optional[Callable[[PlanKey], CachedPlan]] = None,
        backend: str = "numpy",
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.backend = backend
        self._builder = builder or plan_builder(wisdom, backend)
        self._lock = threading.Lock()
        self._entries: OrderedDict[PlanKey, CachedPlan] = OrderedDict()
        # counted under the cache's own lock: a hit is one lock round
        self.stats = Counters("serve.plan_cache", self.COUNTERS, self._lock)
        self._inflight: dict[PlanKey, _Flight] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> list[PlanKey]:
        with self._lock:
            return list(self._entries)

    def values(self) -> list[CachedPlan]:
        with self._lock:
            return list(self._entries.values())

    def stats_snapshot(self) -> dict:
        """The counts plus ``hit_rate`` = hits / (hits + misses)."""
        m = self.stats.snapshot()
        lookups = m["hits"] + m["misses"]
        m["hit_rate"] = m["hits"] / lookups if lookups else 0.0
        return m

    def get(self, key: PlanKey) -> CachedPlan:
        """The cached plan for ``key``; builds it (single-flight) on a miss."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
                self.stats.add_held("hits")
                return plan
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = self._inflight[key] = _Flight()
            self.stats.add_held("misses" if leader else "single_flight_waits")

        if not leader:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.plan  # type: ignore[return-value]

        try:
            with get_tracer().span("serve.plan_build", "serve", n=key.n,
                                   threads=key.threads, mu=key.mu,
                                   strategy=key.strategy):
                # chaos: a "slow planner" stalls the build (and, via
                # single-flight, every waiter) without changing its result
                get_fault_plan().stall("plan.slow")
                plan = self._builder(key)
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            self.stats.add_held("plans_built")
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.add_held("evictions")
            self._inflight.pop(key, None)
        flight.plan = plan
        flight.event.set()
        return plan

    def swap(self, key: PlanKey, plan: CachedPlan) -> bool:
        """Atomically install ``plan`` as the entry for ``key``.

        The tuner's hot-swap commit point.  The replacement happens
        entirely under the cache lock, so a concurrent ``get()`` sees
        either the old plan or the new one — never a half-installed
        entry; batches already executing keep their own plan reference
        and are unaffected.  Returns ``False`` (and installs nothing)
        when a single-flight build for ``key`` is in progress: the swap
        defers rather than race the builder, and the tuner simply
        retries on a later tick.  Installing into a cache at capacity
        evicts LRU entries exactly like a built plan would, so eviction
        accounting stays consistent.

        Chaos: ``tune.swap_corrupt`` fires *before* the commit, so an
        injected mid-swap failure leaves the old plan serving.
        """
        if plan.key != key:
            raise ValueError(f"plan.key {plan.key} does not match {key}")
        get_fault_plan().raise_if("tune.swap_corrupt")
        with self._lock:
            if key in self._inflight:
                return False
            self._entries[key] = plan
            self._entries.move_to_end(key)
            self.stats.add_held("swaps")
            # a no-op when the key was present: only a new entry overflows
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.add_held("evictions")
        return True
