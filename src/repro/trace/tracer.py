"""The span/counter tracer at the heart of :mod:`repro.trace`.

Design constraints (see ``docs/profiling.md``):

* **Near-zero cost when disabled.**  The module-level active tracer defaults
  to a :class:`NullTracer` whose ``span()`` returns one shared no-op context
  manager and whose ``count()`` is an empty method — instrumented hot paths
  (rewrite steps, cache accesses, barrier waits) allocate nothing unless a
  real tracer has been installed with :func:`set_tracer`/:func:`tracing`.
* **Thread-safe.**  Generated programs execute on real thread pools
  (:mod:`repro.smp`); events append under a lock and span nesting is tracked
  per thread in thread-local storage.
* **Two primitives only.**  A *span* is a named, timed interval (mapping to
  a Chrome trace-event ``"X"`` complete event); a *counter* is a named
  accumulator with optional key attributes (``stage=3``, ``proc=1``) that
  aggregates across the run.  Everything the profiler reports is built from
  these two.
* **One count per event.**  :class:`Counters` is the always-on store the
  serving components count in; it forwards each change here when a tracer
  is enabled, so no site counts an event twice.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

#: attribute tuple type used as the counter key alongside the name
AttrKey = tuple[tuple[str, object], ...]


@dataclass
class TraceEvent:
    """One recorded timeline event (Chrome trace-event phases X/i/M)."""

    name: str
    cat: str
    ph: str  # "X" complete span, "i" instant
    ts: float  # microseconds since the tracer epoch
    dur: float = 0.0  # microseconds (spans only)
    tid: int = 0
    args: dict = field(default_factory=dict)


class Span:
    """An open span; use as a context manager (returned by ``Tracer.span``).

    Extra key/value detail can be attached while the span is open with
    :meth:`set`; it lands in the exported event's ``args``.
    """

    __slots__ = ("_tracer", "name", "cat", "args", "tid", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: Optional[int],
                 args: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.tid = tid
        self._start = 0.0

    def set(self, **kv) -> "Span":
        self.args.update(kv)
        return self

    def __enter__(self) -> "Span":
        self._start = self._tracer._now_us()
        self._tracer._push(self)
        return self

    def __exit__(self, *exc) -> None:
        end = self._tracer._now_us()
        self._tracer._pop(self)
        self._tracer._record(
            TraceEvent(
                name=self.name,
                cat=self.cat,
                ph="X",
                ts=self._start,
                dur=end - self._start,
                tid=self.tid if self.tid is not None else threading.get_ident(),
                args=dict(self.args),
            )
        )


class Tracer:
    """Collects spans, instant events, and aggregated counters.

    One tracer covers one profiled activity (a CLI invocation, a
    ``profile_transform`` call, one test).  Install it as the process-wide
    active tracer with :func:`set_tracer` or the :func:`tracing` context
    manager so the instrumented pipeline layers find it via
    :func:`get_tracer`.
    """

    #: instrumentation sites may check this to skip measurement entirely
    enabled: bool = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self.events: list[TraceEvent] = []
        self.counters: dict[tuple[str, AttrKey], float] = {}
        self._tls = threading.local()

    # -- time ----------------------------------------------------------------

    def _now_us(self) -> float:
        return (self._clock() - self._epoch) * 1e6

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, cat: str = "", tid: Optional[int] = None,
             **args) -> Span:
        """Open a timed span; use as ``with tracer.span("lower", "sigma"):``.

        ``tid`` overrides the recorded thread id — the SMP runtimes pass the
        logical processor number so the Chrome timeline groups rows by
        processor rather than by OS thread.
        """
        return Span(self, name, cat, tid, args)

    def _push(self, span: Span) -> None:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._tls, "stack", [])
        if stack and stack[-1] is span:
            stack.pop()

    def current_span(self) -> Optional[Span]:
        """The innermost open span on the calling thread (or ``None``)."""
        stack = getattr(self._tls, "stack", [])
        return stack[-1] if stack else None

    def span_depth(self) -> int:
        """Nesting depth of open spans on the calling thread."""
        return len(getattr(self._tls, "stack", []))

    def _record(self, event: TraceEvent) -> None:
        with self._lock:
            self.events.append(event)

    # -- instants ------------------------------------------------------------

    def instant(self, name: str, cat: str = "", **args) -> None:
        """Record a zero-duration marker event."""
        self._record(
            TraceEvent(
                name=name,
                cat=cat,
                ph="i",
                ts=self._now_us(),
                tid=threading.get_ident(),
                args=args,
            )
        )

    def sample(self, name: str, value: float, cat: str = "") -> None:
        """Record a timeline *sample* of a gauge (Chrome ``"C"`` counter event).

        Unlike :meth:`count`, which aggregates, a sample lands on the
        timeline at the current timestamp — queue depths and batch occupancy
        plotted over time in ``chrome://tracing``.
        """
        self._record(
            TraceEvent(
                name=name,
                cat=cat or "counter",
                ph="C",
                ts=self._now_us(),
                tid=0,
                args={name: value},
            )
        )

    # -- counters ------------------------------------------------------------

    def count(self, name: str, value: float = 1, **attrs) -> None:
        """Add ``value`` to the counter ``name`` keyed by ``attrs``.

        Counters are pure accumulators — no timeline event is recorded, so
        this is safe to call at per-cache-access / per-rewrite-step rates.
        """
        key = (name, tuple(sorted(attrs.items())))
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def counter_total(self, name: str, **attrs) -> float:
        """Sum of a counter across attribute keys matching ``attrs``.

        ``counter_total("cache.l1_misses")`` sums all stages/procs;
        ``counter_total("cache.l1_misses", stage=3)`` selects one stage.
        """
        want = set(attrs.items())
        with self._lock:
            return sum(
                v
                for (n, akey), v in self.counters.items()
                if n == name and want <= set(akey)
            )

    def counter_items(self, name: str) -> list[tuple[dict, float]]:
        """All ``(attrs, value)`` rows of one counter name."""
        with self._lock:
            return [
                (dict(akey), v)
                for (n, akey), v in self.counters.items()
                if n == name
            ]

    def counter_names(self) -> list[str]:
        with self._lock:
            return sorted({n for (n, _) in self.counters})


class _NullSpan:
    """Shared no-op span: entering/exiting allocates nothing."""

    __slots__ = ()

    def set(self, **kv) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Disabled tracer: every operation is a no-op, nothing is stored.

    This is the default active tracer, so instrumented code paths cost one
    attribute lookup and one empty method call when tracing is off.
    """

    enabled = False

    def __init__(self):  # no clock, no containers
        pass

    def span(self, name, cat="", tid=None, **args):  # type: ignore[override]
        return _NULL_SPAN

    def instant(self, name, cat="", **args) -> None:
        pass

    def sample(self, name, value, cat="") -> None:
        pass

    def count(self, name, value=1, **attrs) -> None:
        pass

    def counter_total(self, name, **attrs) -> float:
        return 0.0

    def counter_items(self, name):
        return []

    def counter_names(self):
        return []

    def current_span(self):
        return None

    def span_depth(self) -> int:
        return 0

    @property
    def events(self):  # type: ignore[override]
        return ()

    @property
    def counters(self):  # type: ignore[override]
        return {}


NULL_TRACER = NullTracer()
_active: Tracer = NULL_TRACER
_active_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide active tracer (a :data:`NULL_TRACER` by default)."""
    return _active


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` (``None`` disables tracing); returns the previous."""
    global _active
    with _active_lock:
        previous = _active
        _active = tracer if tracer is not None else NULL_TRACER
    return previous


class Counters:
    """One component's always-on counts, mirrored to the active tracer.

    The only place the serving components count: ``names`` are declared up
    front (an undeclared one is a ``KeyError``), :meth:`snapshot` is what
    their ``stats`` / ``health`` blocks read, and every change also lands on
    the active tracer as ``<prefix>.<name>`` when one is enabled — so the
    always-on number and the traced one are one event counted once.
    """

    def __init__(self, prefix: str, names, lock=None):
        """``lock`` guards the values: a component that counts while it
        holds a lock of its own passes that lock, and counts through
        :meth:`add_held` under it (one lock round, not two)."""
        self.prefix = prefix
        self._lock = threading.Lock() if lock is None else lock
        self._values = dict.fromkeys(names, 0)

    def add(self, name: str, value: float = 1, **attrs) -> None:
        """Add ``value`` to ``name``; ``attrs`` key the tracer's copy only."""
        # acquire/release, not ``with``: the context-manager protocol is
        # half of this call's cost
        self._lock.acquire()
        try:
            self._values[name] += value
        finally:
            self._lock.release()
        if _active.enabled:
            _active.count(f"{self.prefix}.{name}", value, **attrs)

    def add_held(self, name: str, value: float = 1) -> None:
        """:meth:`add`, by a caller that already holds the shared lock."""
        self._values[name] += value
        if _active.enabled:
            _active.count(f"{self.prefix}.{name}", value)

    def add_many(self, pairs) -> None:
        """:meth:`add` each ``(name, value)`` of the sequence ``pairs`` in
        one lock round (a served request's counts are one round, not five);
        the tracer sees each addition as :meth:`add` sends it."""
        values = self._values
        self._lock.acquire()
        try:
            for name, value in pairs:
                values[name] += value
        finally:
            self._lock.release()
        if _active.enabled:
            for name, value in pairs:
                _active.count(f"{self.prefix}.{name}", value)

    def peak(self, name: str, value: float) -> None:
        """Raise the high-water mark ``name`` to ``value`` if it is higher
        (the tracer is sent the rise, so its total is the same maximum)."""
        if value <= self._values[name]:
            return  # unlocked: the mark only rises, so a stale read is lower
        with self._lock:
            rise = value - self._values[name]
            if rise > 0:
                self._values[name] = value
        if rise > 0 and _active.enabled:
            _active.count(f"{self.prefix}.{name}", rise)

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self._values)

    def __getitem__(self, name: str):
        return self._values[name]


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scoped tracing: install a tracer, yield it, restore the previous one.

    ::

        with tracing() as tr:
            generate_fft(64, threads=2)
        write_chrome_trace(tr, "out.json")
    """
    tr = tracer if tracer is not None else Tracer()
    previous = set_tracer(tr)
    try:
        yield tr
    finally:
        set_tracer(previous)
