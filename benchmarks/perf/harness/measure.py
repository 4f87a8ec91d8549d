"""Seeded inputs, result verification, speed calibration, block accounting."""

from __future__ import annotations

import statistics
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .spec import REL_ERR_TOL
from .stats import percentile


def workload_rng(seed: int, name: str) -> np.random.Generator:
    """The one source of a workload's inputs: same seed, same bytes."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


@dataclass
class Case:
    """One pre-generated input with its ``np.fft`` reference."""

    x: np.ndarray
    ref: np.ndarray
    ref_norm: float

    @classmethod
    def make(cls, rng: np.random.Generator, shape) -> "Case":
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = np.fft.fft(x, axis=-1)
        return cls(x, ref, float(np.linalg.norm(ref)))

    def rel_err(self, y) -> float:
        """Relative L2 error of ``y``; ``inf`` for a missing or misshapen one."""
        if y is None or np.shape(y) != self.ref.shape:
            return float("inf")
        return float(np.linalg.norm(y - self.ref)) / self.ref_norm


class Calibrator:
    """A fixed unit of work that tells how fast this core is right now.

    The sandbox's cores switch between speed states (a neighbour on the
    same physical core, most likely): the same loop reads 15 us for a few
    hundred milliseconds, then 22 us, and a whole run can sit in either
    state, so raw wall time swings 1.5x between identical runs.  A unit of
    interpreter work plus a small FFT, timed right after each operation on
    the same core, slows down by the same factor as the operation does
    (measured: the ratio holds within 2 % across states where raw time
    moves 25 %).  A block's timings are divided by that factor, which puts
    them on the scale of a core on which the unit takes ``REF_US``.
    """

    #: what the unit takes on an undisturbed core of this host class; a
    #: convention fixed once — changing it rescales every timing
    REF_US = 15.0

    def __init__(self):
        k = np.arange(1024)
        self._x = ((k % 7) - 3.0) + 1j * ((k % 5) - 2.0)

    def unit(self) -> None:
        s = 0
        for i in range(100):
            s += i * i
        np.fft.fft(self._x)

    def sample(self, calls: int) -> list[float]:
        """Seconds of each of ``calls`` back-to-back units."""
        unit, clock = self.unit, time.perf_counter
        out = []
        for _ in range(calls):
            t0 = clock()
            unit()
            out.append(clock() - t0)
        return out


def slowdown(cal_s: list, core_share: float = 1.0) -> float:
    """The factor by which timings taken next to these samples are stretched.

    The calibration unit itself is stretched by ``median / REF_US``; work of
    which only ``core_share`` slows down with the core is stretched by that
    share of the excess.
    """
    unit = statistics.median(cal_s) * 1e6 / Calibrator.REF_US
    return 1.0 + core_share * (unit - 1.0)


#: calibration units after each set-up phase
SETUP_CAL_CALLS = 60


class SetupClock:
    """Set-up time by phase, each phase scaled by the core's speed around it.

    Set-up cannot be interleaved with calibration the way ops are (one
    phase is a single ``cc`` run), so each phase is scaled by the mean of
    the slowdown factors measured just before and just after it.
    """

    def __init__(self, t_start: float, cal, clock=time.perf_counter):
        self._cal = cal
        self._clock = clock
        self._t = t_start
        self.phases: list[dict] = []

    def mark(self, phase: str) -> None:
        wall = self._clock() - self._t
        after = slowdown(self._cal.sample(SETUP_CAL_CALLS))
        before = self.phases[-1]["slowdown_after"] if self.phases else after
        self.phases.append({
            "phase": phase, "wall_s": wall, "slowdown_after": after,
            "scaled_s": wall / ((before + after) / 2),
        })
        self._t = self._clock()

    def total_s(self) -> float:
        return sum(p["scaled_s"] for p in self.phases)


@dataclass
class Block:
    """One timed block: a fixed number of ops on one core state.

    A failed, wrong or refused op is counted in ``failed`` and contributes
    no latency sample: it misses, it does not get to look fast.  A block is
    a few tens of milliseconds, short against the time a core stays in one
    speed state, so one slowdown factor fits the whole block.  ``close``
    reduces the samples to the block's numbers.
    """

    core_share: float = 1.0
    ok_s: list = field(default_factory=list)
    cal_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    max_rel_err: float = 0.0
    #: seconds an op was in flight; calibration and verification between
    #: ops are harness time and are not charged to the program
    busy_s: float = 0.0
    # -- set by close() ------------------------------------------------------
    ok: int = 0
    #: median op wall as the clock read it; None if no op was correct
    raw_p50_us: Optional[float] = None
    #: how much slower than the reference core the calibration unit ran
    unit_slowdown: float = 1.0

    def record(self, seconds: float, rel_err: float) -> bool:
        """Account one finished op; returns whether it was correct."""
        self.attempted += 1
        if not rel_err <= REL_ERR_TOL:  # also catches NaN
            self.failed += 1
            return False
        self.ok_s.append(seconds)
        if rel_err > self.max_rel_err:
            self.max_rel_err = rel_err
        return True

    def close(self, keep_samples: bool = False) -> "Block":
        """Reduce the samples and, unless asked to keep them, let them go.

        A run makes hundreds of blocks of up to thousands of samples; held
        to the end they would be a fifth of a small workload's
        ``peak_rss_mb``, and more of it the faster the host.
        """
        self.ok = len(self.ok_s)
        if self.ok_s:
            self.raw_p50_us = percentile(sorted(self.ok_s), 0.5) * 1e6
        self.unit_slowdown = slowdown(self.cal_s)
        if not keep_samples:
            self.ok_s, self.cal_s = [], []
        return self

    def slowdown(self) -> float:
        """The factor this block's timings are divided by."""
        return 1.0 + self.core_share * (self.unit_slowdown - 1.0)

    def p50_us(self) -> Optional[float]:
        """Median op wall on the reference core's scale."""
        if self.raw_p50_us is None:
            return None
        return self.raw_p50_us / self.slowdown()


def timed_op(block: Block, call: Callable[[], object],
             check: Callable[[object], float], cal: Calibrator,
             cal_calls: int, refused: tuple = (), store=None,
             span: str = "", op_id: Optional[int] = None) -> None:
    """One closed-loop op: time ``call()``, calibrate, verify, return.

    ``check`` maps the call's result to its relative error and runs strictly
    after the end timestamp and before the caller starts its next op.  An
    exception listed in ``refused`` (a typed refusal from a server, a
    dropped connection) is a failed op; anything else is a harness or
    program bug and propagates.  With a ``store`` the op is wrapped in an
    ``op`` span, with one child named ``span`` if given.
    """
    y = None
    if store is None:
        t0 = time.perf_counter()
        try:
            y = call()
        except refused:
            pass
        seconds = time.perf_counter() - t0
    else:
        root = store.begin("op", op_id)
        child = store.begin(span) if span else None
        try:
            y = call()
        except refused:
            pass
        if child is not None:
            store.end(child)
        seconds = store.end(root)
    block.cal_s.extend(cal.sample(cal_calls))
    block.busy_s += seconds
    block.record(seconds, float("inf") if y is None else check(y))
