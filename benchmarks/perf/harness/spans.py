"""In-memory span store for the traced round.

Spans are recorded from the harness's own files, around each call into a
layer; the program under test stays on its ``NullTracer``.  A span is
``(name, start, end, parent, op)``; spans of one operation share ``op``.
They are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Optional


class SpanStore:
    """Append-only span list with parent links and self-time arithmetic.

    Single-threaded by design except that :meth:`add` (a finished span) is
    safe to call from client threads: ``list.append`` is atomic under the
    GIL and finished spans never mutate.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        #: [name, start, end, parent, op] per span, indexed by span id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, op: Optional[int] = None) -> int:
        """Open a span under the innermost open one; returns its id."""
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, op])
        self._stack.append(sid)
        self.spans[sid][1] = self._clock()
        return sid

    def end(self, sid: int) -> float:
        """Close span ``sid`` (the innermost open one); returns its duration."""
        now = self._clock()
        span = self.spans[sid]
        span[2] = now
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(
                f"span {sid} ({span[0]}) closed out of order (open: {popped})"
            )
        return now - span[1]

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, op: Optional[int] = None) -> int:
        """Record an already-finished span (measured elsewhere)."""
        self.spans.append([name, start, end, parent, op])
        return len(self.spans) - 1

    # -- arithmetic ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the part its child spans cover.

        Children are clipped to the parent's interval and overlapping
        children are merged first, so coverage is never counted twice.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for sid, (_name, start, end, _parent, _op) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, cursor), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            out.append((end - start) - covered)
        return out

    def by_name(self, self_time: bool = True) -> dict[str, list[float]]:
        """Seconds per span, grouped by span name (self time or duration)."""
        times = (
            self.self_times() if self_time
            else [s[2] - s[1] for s in self.spans]
        )
        out: dict[str, list[float]] = {}
        for span, t in zip(self.spans, times):
            out.setdefault(span[0], []).append(t)
        return out

    def dump(self, path) -> None:
        """Write every span as JSON: name, start, end, parent, op, self."""
        selfs = self.self_times()
        doc = {
            "clock": "perf_counter seconds",
            "spans": [
                {"id": sid, "name": s[0], "start": s[1], "end": s[2],
                 "parent": s[3], "op": s[4], "self": selfs[sid]}
                for sid, s in enumerate(self.spans)
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
