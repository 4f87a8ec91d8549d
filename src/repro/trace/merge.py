"""Merging per-stage span reports from pool workers into the master tracer.

Worker processes cannot append to the master's :class:`Tracer` directly, so
the one lockstep walk (:func:`repro.smp.runtime.lockstep_walk`) collects
lightweight per-stage reports — ``(name, proc, stage, t0, t1)`` tuples in
the ``time.perf_counter`` clock domain — which :mod:`repro.mp` workers ship
back with the job result and pool threads hand over directly.  This module
folds those reports into the active tracer as ordinary ``"X"`` span events
keyed by the logical processor number, so a multiprocess execution renders
in ``chrome://tracing`` exactly like a threaded one: one row per processor.

Clock caveat: ``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, which is
system-wide, so cross-process timestamps line up on the timeline.  On
platforms where the clock is per-process the *durations* stay exact but
span placement is approximate; treat alignment as informational there.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .tracer import TraceEvent, Tracer


def merge_span_reports(
    tracer: Tracer,
    reports: Iterable[Sequence],
    cat: str = "mp",
) -> int:
    """Record worker span reports on ``tracer``; returns the span count.

    Each report is ``(name, proc, stage, t0_s, t1_s)`` with times from
    ``time.perf_counter``.  Timestamps are rebased onto the tracer's epoch;
    a ``<cat>.stage_wall_s`` counter (``mp.`` for processes, ``smp.`` for
    threads) accumulates alongside, keyed by stage and processor.
    """
    if not tracer.enabled:
        return 0
    epoch = getattr(tracer, "_epoch", None)
    merged = 0
    for name, proc, stage, t0, t1 in reports:
        ts = (t0 - epoch) * 1e6 if epoch is not None else 0.0
        tracer._record(
            TraceEvent(
                name=name,
                cat=cat,
                ph="X",
                ts=ts,
                dur=max(t1 - t0, 0.0) * 1e6,
                tid=int(proc),
                args={"stage": int(stage), "proc": int(proc)},
            )
        )
        tracer.count(f"{cat}.stage_wall_s", t1 - t0, stage=int(stage),
                     proc=int(proc))
        merged += 1
    return merged
