"""Latency/percentile helpers shared by every latency report.

One implementation of the percentile math keeps ``repro loadgen``, the
shard router's per-shard stats, and the benchmark scripts reporting the
same numbers for the same samples: nearest-rank on the sorted values,
with the exact interpolation-free convention the serving reports have
used since PR 2.

:class:`LatencyRecorder` is the accumulation side: a thread-safe,
bounded reservoir of per-request latencies keyed by an arbitrary label
(the shard router keys by shard id).  Beyond ``cap`` samples per key it
keeps every k-th sample, so long chaos runs stay O(cap) memory while the
percentile estimates remain representative.
"""

from __future__ import annotations

import threading
from array import array


def percentile(sorted_vals: list[float], q: float) -> float | None:
    """Nearest-rank percentile of pre-sorted samples.

    An empty window has no percentile: returns ``None`` rather than a
    fake 0.0 (the tuner polls windows that can legitimately be empty and
    must not mistake "no traffic" for "zero latency").  A singleton
    window returns its single sample for every ``q``.
    """
    if not sorted_vals:
        return None
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    idx = min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


def latency_summary(latencies_s: list[float]) -> dict:
    """The standard p50/p95/p99/mean/max block (milliseconds).

    Empty input keeps the all-zero shape every report consumer expects;
    callers that need to distinguish "no samples" check ``requests`` or
    call :func:`percentile` directly.
    """
    vals = sorted(latencies_s)
    if not vals:
        return {
            "p50_ms": 0.0,
            "p95_ms": 0.0,
            "p99_ms": 0.0,
            "mean_ms": 0.0,
            "max_ms": 0.0,
        }
    return {
        "p50_ms": percentile(vals, 0.50) * 1e3,
        "p95_ms": percentile(vals, 0.95) * 1e3,
        "p99_ms": percentile(vals, 0.99) * 1e3,
        "mean_ms": sum(vals) / len(vals) * 1e3,
        "max_ms": vals[-1] * 1e3,
    }


class _Reservoir:
    """One key's samples: how many were recorded, the stride that keeps
    every ``stride``-th of them, and those kept (8 bytes each, where a list
    keeps a 24-byte float object and a pointer)."""

    __slots__ = ("seen", "stride", "samples")

    def __init__(self):
        self.seen, self.stride, self.samples = 0, 1, array("d")


class LatencyRecorder:
    """Thread-safe per-key latency samples with bounded memory.

    ``record(key, seconds)`` appends; once a key holds ``cap`` samples,
    decimation keeps every other sample and doubles the sampling stride,
    so the reservoir stays within ``cap`` while still spanning the whole
    run.  ``summary()`` renders each key through
    :func:`latency_summary` alongside its true total count.
    """

    def __init__(self, cap: int = 65536):
        if cap < 2:
            raise ValueError(f"cap must be >= 2, got {cap}")
        self._cap = cap
        self._lock = threading.Lock()
        self._keys: dict = {}  # key -> _Reservoir

    def record(self, key, seconds: float) -> None:
        # acquire/release and a subscript: a served request records one
        # sample, and this is its whole cost
        self._lock.acquire()
        try:
            try:
                res = self._keys[key]
            except KeyError:
                res = self._keys[key] = _Reservoir()
            seen = res.seen
            res.seen = seen + 1
            if seen % res.stride:
                return
            vals = res.samples
            vals.append(seconds)
            if len(vals) >= self._cap:
                res.samples = vals[::2]
                res.stride *= 2
        finally:
            self._lock.release()

    def counts(self) -> dict:
        """True per-key totals (before any decimation)."""
        with self._lock:
            return {k: res.seen for k, res in self._keys.items()}

    def drain(self) -> dict:
        """Take-and-clear: every key's samples, then reset the reservoir.

        The tuner's observation windows are built on this: each tick
        drains the window recorder, so samples are counted exactly once
        and the next window starts empty.  Returns the (possibly
        decimated) samples per key; keys observed but fully decimated
        away still appear with their surviving samples.
        """
        with self._lock:
            keys, self._keys = self._keys, {}
        return {k: res.samples.tolist() for k, res in keys.items()}

    def summary(self) -> dict:
        """Per-key ``latency_summary`` blocks plus true request counts."""
        with self._lock:
            keys = {k: (res.seen, res.samples.tolist())
                    for k, res in self._keys.items()}
        return {
            k: {"requests": seen, **latency_summary(vals)}
            for k, (seen, vals) in keys.items()
        }
