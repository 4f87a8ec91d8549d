"""The online tuner: production telemetry back into the plan cache.

A :class:`Tuner` rides inside a live :class:`~repro.serve.FFTService`.
Each tick it drains the service's per-plan observation window
(:meth:`repro.serve.metrics.LatencyRecorder.drain`), **re-searches** hot
plan keys whose observed median regressed past ``regress_factor`` ×
their best window (kept in memory), using the measured cost model
(:func:`~repro.tune.measured_search`, which records its ranking into the
tuner's :class:`~repro.wisdom.Wisdom` file when it has one — the tuner's
only write to it), and **hot-swaps** the winner into the
:class:`~repro.serve.plan_cache.PlanCache`.  It never writes the
service's :class:`~repro.serve.ServeConfig`.

The swap protocol is zero-drop by construction: the cache replacement is
atomic under the cache lock, defers (rather than races) when a
single-flight build is in progress for the key, and batches already
executing hold their own plan reference — no request ever observes a
half-installed plan.  The ``tune.swap_corrupt`` injection point fires
*before* the commit, so a chaos-injected mid-swap failure leaves the old
plan serving and only increments ``swap_failures``.

Every lane executes the plan the cache holds (a process pool ships the
swapped plan's spec to its workers, which compile it on first use), so
the hot-swap covers the sequential, pthreads and process lanes alike.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from ..faults import FaultInjected
from ..mp.spec import PlanSpec
from ..serve.metrics import LatencyRecorder, percentile
from ..serve.plan_cache import PlanKey, build_plan
from ..trace import Counters
from .measure import measured_search


@dataclass
class TunerConfig:
    """Knobs of one background :class:`Tuner`."""

    interval_s: float = 0.5        #: tick period of the background thread
    regress_factor: float = 1.5    #: window p50 vs best-ever triggering retune
    min_requests: int = 16         #: window size before a key is judged
    search_budget: int = 4         #: measured-search candidates per retune
    search_repeats: int = 2        #: timer repeats per candidate


class Tuner:
    """Background autotuner bound to one :class:`~repro.serve.FFTService`.

    ``start()`` launches the daemon tick thread; ``close()`` stops and
    joins it.  ``tick()`` and ``retune()`` are public and thread-safe so
    tests and the bench lane can drive the tuner deterministically (a
    forced mid-run ``retune`` under load is exactly the acceptance
    scenario).
    """

    #: every count the tuner keeps (``snapshot()``; tracer ``tune.<name>``)
    COUNTERS = ("ticks", "windows_observed", "retunes", "swaps",
                "swap_failures", "swaps_deferred", "tick_errors")

    def __init__(self, service, config: Optional[TunerConfig] = None,
                 wisdom=None):
        self.service = service
        self.config = config or TunerConfig()
        self.wisdom = wisdom
        # the service records into the window only from here on: it exists
        # once something drains it (a second tuner shares the first's)
        if service.tune_window is None:
            service.tune_window = LatencyRecorder()
        self._stop = threading.Event()
        self._lock = threading.Lock()
        #: best observed window p50 (ms) per plan key — regression baseline
        self._best_p50: dict[PlanKey, float] = {}
        self.counters = Counters("tune", self.COUNTERS)
        self._thread = threading.Thread(
            target=self._loop, name="fft-serve-tuner", daemon=True
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def close(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=10)

    def _loop(self) -> None:
        while not self._stop.wait(self.config.interval_s):
            try:
                self.tick()
            except Exception:  # noqa: BLE001 - the tuner must never kill serve
                self.counters.add("tick_errors")

    # -- observation + control ----------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able tuner state for the ``stats`` endpoint."""
        m = self.counters.snapshot()
        m["tracked_keys"] = len(self._best_p50)
        return m

    def tick(self) -> list[PlanKey]:
        """One observe/retune pass; returns retuned keys."""
        with self._lock:
            drained = self.service.tune_window.drain()
            self.counters.add("ticks")
            regressed: list[PlanKey] = []
            for key, samples in drained.items():
                if not samples:
                    continue
                self.counters.add("windows_observed")
                if len(samples) < self.config.min_requests:
                    continue
                p50 = percentile(sorted(samples), 0.5) * 1e3
                best = self._best_p50.get(key)
                if best is None or p50 < best:
                    self._best_p50[key] = p50
                elif p50 > best * self.config.regress_factor:
                    regressed.append(key)
            for key in regressed:
                self._retune_locked(key)
            return regressed

    # -- retune + hot-swap ----------------------------------------------------

    def retune(self, key: PlanKey) -> bool:
        """Measured re-search + hot-swap for ``key`` (thread-safe).

        Public so load benches can force a mid-run swap under traffic;
        the background tick uses the same path.  Returns True when a new
        plan was committed to the cache.
        """
        with self._lock:
            return self._retune_locked(key)

    def _retune_locked(self, key: PlanKey) -> bool:
        self.counters.add("retunes", n=key.n)
        backend = self.service.config.backend
        # rank candidates in-process on the sequential runtime: cheap,
        # safe next to live traffic, and strategy order carries over
        result = measured_search(
            key.n, threads=key.threads, mu=key.mu, backend=backend,
            runtime="sequential", budget=self.config.search_budget,
            repeats=self.config.search_repeats, wisdom=self.wisdom,
        )
        # the winning candidate may be scalar or ν-way (the compiled
        # backend's search space carries both); the rebuilt plan follows it
        plan = build_plan(
            PlanSpec.from_plan_key(key, backend).tuned(result.best.to_json()),
            key,
        )
        try:
            committed = self.service.plans.swap(key, plan)
        except FaultInjected:
            # chaos: the swap died mid-commit; the cache still holds the
            # old plan, so traffic degrades gracefully to "not retuned"
            self.counters.add("swap_failures")
            return False
        if committed:
            self.counters.add("swaps", n=key.n)
            # the new plan starts a fresh regression baseline
            self._best_p50.pop(key, None)
        else:
            # a single-flight build is in progress for this key; the
            # tuner defers and will retry on a later tick
            self.counters.add("swaps_deferred")
        return committed
