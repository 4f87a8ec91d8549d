"""The :class:`FaultPlan` at the heart of :mod:`repro.faults`.

Design mirrors :mod:`repro.trace.tracer`: a process-wide *active plan*
defaults to a :class:`NullFaultPlan` whose probes are empty methods, so
instrumented production paths pay one attribute lookup when no chaos is
configured.  Install a real plan with :func:`set_fault_plan` (global) or
:func:`fault_plan` (scoped) and every registered injection point starts
consulting it.

Determinism: firing decisions come from one seeded :class:`random.Random`
consumed under a lock in evaluation order, so a single-threaded test
replays identically, and every spec supports ``max_fires`` so tests can
inject *exactly one* worker crash (or N connection resets) regardless of
rates and interleaving.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from ..trace import get_tracer


class FaultInjected(RuntimeError):
    """An artificial failure raised by an active :class:`FaultPlan`."""

    def __init__(self, point: str):
        super().__init__(f"injected fault at {point!r}")
        self.point = point


#: every injection point wired into the production code, with the site
#: that consults it — specs for unknown points are rejected up front
INJECTION_POINTS: dict[str, str] = {
    "runtime.worker_stall": "PThreadsRuntime worker sleeps before its stages",
    "runtime.worker_crash": "PThreadsRuntime worker thread dies mid-job",
    "mp.worker_crash": "ProcessPoolRuntime worker process is killed mid-job",
    "plan.slow": "PlanCache leader sleeps before building a plan",
    "serve.queue_burst": "FFTService admission pretends the queue is full",
    "net.conn_reset": "FFTServer handler resets the TCP connection",
    "codegen.compile_fail": "compiled backend's gcc invocation is made to "
    "fail, exercising the registry's NumPy fallback",
    "net.poison_payload": "FFTServer corrupts one request into an error",
    "check.overlapping_write": "repro.check sabotages a plan with a "
    "cross-processor write/write overlap (negative checker test)",
    "check.misaligned_split": "repro.check sabotages a plan with a "
    "mu-misaligned processor split (negative checker test)",
    "shard.worker_crash": "ShardFleet supervisor SIGKILLs a live shard "
    "child, exercising ejection, failover, and restart",
    "shard.route_flap": "ShardRouter routes a request to the owner's "
    "successor instead of the owner (any shard must serve any key)",
    "hunt.exec_corrupt": "repro.hunt numeric oracle corrupts one output "
    "element before comparison (end-to-end proof the hunt catches wrong "
    "answers)",
    "hunt.plan_sabotage": "repro.hunt dynamic-check oracle hands the "
    "checker a mu-misaligned-split copy of the plan (end-to-end proof "
    "the hunt catches Definition 1 violations)",
    "tune.swap_corrupt": "Tuner plan hot-swap fails mid-commit; the "
    "PlanCache must keep serving the old plan with zero dropped "
    "requests",
}


@dataclass
class FaultSpec:
    """One injection point's activation rule.

    ``rate`` is the per-evaluation firing probability; ``delay_s`` is the
    sleep length for stall-type points (ignored by the others);
    ``max_fires`` caps total fires (None = unbounded).
    """

    point: str
    rate: float = 1.0
    delay_s: float = 0.0
    max_fires: Optional[int] = None

    def __post_init__(self):
        if self.point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; "
                f"known: {sorted(INJECTION_POINTS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")


class FaultPlan:
    """A set of :class:`FaultSpec` rules evaluated at injection points.

    Thread-safe; ``stop()`` deactivates every point at once (the chaos
    test's "faults stop" switch) while keeping fire counters readable.
    """

    #: production probes check this before doing any work
    enabled: bool = True

    def __init__(self, specs: tuple | list = (), seed: int = 0):
        self._specs: dict[str, FaultSpec] = {}
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._fires: dict[str, int] = {}
        self._evals: dict[str, int] = {}
        self._active = True
        for spec in specs:
            self.add(spec)

    # -- configuration -------------------------------------------------------

    def add(self, spec: FaultSpec | str, **kw) -> "FaultPlan":
        """Register a spec (or build one from ``point, **kw``); chainable."""
        if isinstance(spec, str):
            spec = FaultSpec(spec, **kw)
        with self._lock:
            self._specs[spec.point] = spec
            self._fires.setdefault(spec.point, 0)
            self._evals.setdefault(spec.point, 0)
        return self

    def stop(self) -> None:
        """Deactivate every injection point (counters survive)."""
        with self._lock:
            self._active = False

    def resume(self) -> None:
        with self._lock:
            self._active = True

    @property
    def active(self) -> bool:
        with self._lock:
            return self._active

    # -- probes (called from production code) --------------------------------

    def should_fire(self, point: str) -> Optional[FaultSpec]:
        """Evaluate ``point`` once; the spec if it fires, else None."""
        with self._lock:
            spec = self._specs.get(point)
            if spec is None or not self._active:
                return None
            self._evals[point] += 1
            if spec.max_fires is not None and self._fires[point] >= spec.max_fires:
                return None
            if spec.rate < 1.0 and self._rng.random() >= spec.rate:
                return None
            self._fires[point] += 1
        get_tracer().count("faults.injected", 1, point=point)
        return spec

    def fired(self, point: str) -> bool:
        """True exactly when ``point`` fires on this evaluation."""
        return self.should_fire(point) is not None

    def stall(self, point: str) -> bool:
        """Sleep out the spec's ``delay_s`` if ``point`` fires."""
        spec = self.should_fire(point)
        if spec is None:
            return False
        if spec.delay_s > 0:
            time.sleep(spec.delay_s)
        return True

    def raise_if(self, point: str) -> None:
        """Raise :class:`FaultInjected` if ``point`` fires."""
        if self.fired(point):
            raise FaultInjected(point)

    # -- observability -------------------------------------------------------

    def fires(self, point: str) -> int:
        with self._lock:
            return self._fires.get(point, 0)

    def snapshot(self) -> dict:
        """JSON-able per-point counters (the ``health`` op embeds this)."""
        with self._lock:
            return {
                point: {
                    "rate": spec.rate,
                    "delay_s": spec.delay_s,
                    "max_fires": spec.max_fires,
                    "evaluations": self._evals.get(point, 0),
                    "fires": self._fires.get(point, 0),
                }
                for point, spec in self._specs.items()
            }


class NullFaultPlan(FaultPlan):
    """The default inactive plan: every probe is a constant no-op."""

    enabled = False

    def __init__(self):
        super().__init__()

    def add(self, spec, **kw):  # pragma: no cover - misuse guard
        raise TypeError("cannot add specs to the null fault plan; "
                        "install a real FaultPlan first")

    def should_fire(self, point: str) -> None:
        return None

    def fired(self, point: str) -> bool:
        return False

    def stall(self, point: str) -> bool:
        return False

    def raise_if(self, point: str) -> None:
        return None


#: the process-wide inactive default
NULL_FAULT_PLAN = NullFaultPlan()

_active_plan: FaultPlan = NULL_FAULT_PLAN


def get_fault_plan() -> FaultPlan:
    """The process-wide active plan (the null plan unless chaos is on)."""
    return _active_plan


def set_fault_plan(plan: Optional[FaultPlan]) -> FaultPlan:
    """Install ``plan`` globally (None restores the null plan); returns it."""
    global _active_plan
    _active_plan = plan if plan is not None else NULL_FAULT_PLAN
    return _active_plan


@contextlib.contextmanager
def fault_plan(plan: Optional[FaultPlan] = None) -> Iterator[FaultPlan]:
    """Scoped installation: ``with fault_plan(FaultPlan([...])) as fp:``."""
    installed = set_fault_plan(plan if plan is not None else FaultPlan())
    try:
        yield installed
    finally:
        set_fault_plan(NULL_FAULT_PLAN)


def parse_chaos_spec(text: str, seed: int = 0) -> FaultPlan:
    """Parse the CLI's ``--chaos`` string into a :class:`FaultPlan`.

    Comma-separated ``point:rate[:delay_ms]`` items, e.g.::

        runtime.worker_crash:0.1,net.conn_reset:0.05,plan.slow:1.0:50
    """
    plan = FaultPlan(seed=seed)
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"bad chaos item {item!r}; expected point:rate[:delay_ms]"
            )
        point, rate = parts[0], float(parts[1])
        delay_s = float(parts[2]) / 1e3 if len(parts) == 3 else 0.0
        plan.add(FaultSpec(point=point, rate=rate, delay_s=delay_s))
    if not plan.snapshot():
        raise ValueError(f"chaos spec {text!r} names no injection points")
    return plan
