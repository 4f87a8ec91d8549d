"""Plan cache: LRU bounds, counters, and single-flight planning."""

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.mp.spec import PlanSpec
from repro.serve.plan_cache import (
    CachedPlan,
    PlanCache,
    PlanKey,
    build_plan,
    plan_builder,
)
from repro.sigma.loops import SigmaProgram
from repro.smp.runtime import SequentialRuntime
from repro.trace import Tracer, tracing
from repro.wisdom import TUNE_VERSION, Wisdom


def _slow_builder(calls, delay=0.02):
    def build(key):
        calls.append(key)
        time.sleep(delay)
        return CachedPlan(key=key, program=None, stages=[])

    return build


class TestLRU:
    def test_hit_miss_counters(self):
        calls = []
        cache = PlanCache(capacity=4, builder=_slow_builder(calls, delay=0))
        k = PlanKey(64, 1, 4)
        cache.get(k)
        cache.get(k)
        cache.get(k)
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 2
        assert cache.stats["plans_built"] == 1
        assert calls == [k]
        assert cache.stats_snapshot()["hit_rate"] == pytest.approx(2 / 3)

    def test_eviction_is_lru(self):
        calls = []
        cache = PlanCache(capacity=2, builder=_slow_builder(calls, delay=0))
        k1, k2, k3 = (PlanKey(n, 1, 4) for n in (64, 128, 256))
        cache.get(k1)
        cache.get(k2)
        cache.get(k1)  # refresh k1 -> k2 is now least recent
        cache.get(k3)  # evicts k2
        assert cache.stats["evictions"] == 1
        assert k2 not in cache
        assert k1 in cache and k3 in cache
        # k2 must be rebuilt
        cache.get(k2)
        assert calls.count(k2) == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_real_builder_produces_runnable_plan(self):
        cache = PlanCache(capacity=4)
        plan = cache.get(PlanKey(64, 2, 2))
        x = np.random.default_rng(0).standard_normal(64) + 0j
        y, _ = SequentialRuntime().run(plan, x[np.newaxis])
        np.testing.assert_allclose(y[0], np.fft.fft(x), atol=1e-6)
        assert plan.stages, "batched stages must be prebuilt"


    def test_numpy_plan_prints_python_once(self):
        """The printed program *is* the NumPy backend: no second walk."""
        with tracing(Tracer()) as tr:
            plan = PlanCache(capacity=4).get(PlanKey(64, 2, 2))
        assert plan.backend == "numpy"
        assert isinstance(plan.program, SigmaProgram)
        assert [e.name for e in tr.events].count("codegen.python") == 1

    def test_compiled_plan_prints_no_python(self):
        """Every backend builds from the one lowered program; only the
        NumPy backend prints it as Python."""
        from repro.codegen.compiled_backend import compiled_available

        if not compiled_available():
            pytest.skip("no C compiler")
        spec = PlanSpec.from_plan_key(PlanKey(64), "compiled")
        with tracing(Tracer()) as tr:
            plan = build_plan(spec)
        assert plan.backend == "compiled"
        assert isinstance(plan.program, SigmaProgram)
        assert "codegen.python" not in [e.name for e in tr.events]


class TestWisdomSubstitution:
    """What a wisdom file contributes to a build: requested → effective."""

    KEY = PlanKey(64, 1, 4)
    REQUESTED = PlanSpec.from_plan_key(KEY)

    def test_build_plan_is_a_pure_function_of_the_spec(self):
        import inspect

        assert list(inspect.signature(build_plan).parameters) == [
            "spec", "key"
        ]
        plan = build_plan(self.REQUESTED)
        assert plan.spec == self.REQUESTED and plan.key is None

    def test_fresh_cache_builds_the_persisted_best(self, tmp_path):
        from repro.tune import measured_search

        path = tmp_path / "w.json"
        res = measured_search(64, budget=3, repeats=1, seed=5,
                              wisdom=Wisdom(path))
        plan = PlanCache(wisdom=Wisdom(path)).get(self.KEY)
        assert plan.key == self.KEY  # what was requested ...
        assert plan.spec == self.REQUESTED.tuned(res.best.to_json())
        assert (plan.spec.strategy, plan.spec.min_leaf, plan.spec.nu) == (
            res.best.strategy, res.best.min_leaf, res.best.nu
        )  # ... and what was built
        x = np.random.default_rng(0).standard_normal(64) + 0j
        y, _ = SequentialRuntime().run(plan, x[np.newaxis])
        np.testing.assert_allclose(y[0], np.fft.fft(x), atol=1e-6)

    def _spec_built_from(self, tmp_path, lane, best, version=TUNE_VERSION,
                         runtime="threads", key=KEY):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({f"dft:{key.n}:p{key.threads}:mu4": {
            "tune": {"version": version, "rankings": {lane: {"best": best}}},
        }}))
        build = plan_builder(Wisdom(path), "numpy", runtime)
        return build(key).spec

    def test_ranking_for_the_lane_is_adopted(self, tmp_path):
        best = {"strategy": "radix2", "min_leaf": 16, "nu": 1}
        spec = self._spec_built_from(tmp_path, "numpy/sequential", best)
        assert (spec.strategy, spec.min_leaf) == ("radix2", 16)

    def test_pool_lane_falls_back_to_the_sequential_ranking(self, tmp_path):
        best = {"strategy": "radix2", "min_leaf": 16, "nu": 1}
        key = PlanKey(256, 2, 4)
        for runtime in ("threads", "process"):
            spec = self._spec_built_from(
                tmp_path, "numpy/sequential", best, runtime=runtime, key=key
            )
            assert (spec.strategy, spec.min_leaf, spec.threads) == (
                "radix2", 16, 2
            )

    @pytest.mark.parametrize("lane, best, version", [
        # written under another schema version
        ("numpy/sequential",
         {"strategy": "radix2", "min_leaf": 16, "nu": 1}, TUNE_VERSION + 1),
        # a strategy this build does not know
        ("numpy/sequential",
         {"strategy": "radix-17", "min_leaf": 16, "nu": 1}, TUNE_VERSION),
        # another backend's measurement
        ("compiled/sequential",
         {"strategy": "radix2", "min_leaf": 16, "nu": 4}, TUNE_VERSION),
        # malformed fields
        ("numpy/sequential",
         {"strategy": "radix2", "min_leaf": "wide", "nu": 0}, TUNE_VERSION),
        ("numpy/sequential", "radix2", TUNE_VERSION),
    ])
    def test_unusable_ranking_leaves_the_spec_as_requested(
        self, tmp_path, lane, best, version
    ):
        spec = self._spec_built_from(tmp_path, lane, best, version)
        assert spec == self.REQUESTED


class TestSingleFlight:
    def test_concurrent_same_key_builds_once(self):
        calls = []
        cache = PlanCache(capacity=4, builder=_slow_builder(calls, delay=0.05))
        key = PlanKey(1024, 2, 4)
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            results.append(cache.get(key))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1, "single-flight must coalesce the build"
        assert all(r is results[0] for r in results)
        assert cache.stats["misses"] == 1
        assert cache.stats["single_flight_waits"] == 7
        assert cache.stats["plans_built"] == 1

    def test_every_lookup_is_counted_once_under_contention(self):
        """The counts share the cache's lock: more threads than cores, a
        short switch interval, hits, misses, evictions and swaps at once,
        and every lookup is still counted once — a hit, a miss or a wait —
        and every miss one plan built."""
        cache = PlanCache(capacity=2, builder=lambda key: CachedPlan(
            key=key, program=None, stages=[]))
        keys = [PlanKey(n, 1, 4) for n in (16, 32, 64)]
        workers, rounds = 8, 300

        def worker(w):
            for i in range(rounds):
                key = keys[(w + i) % len(keys)]
                cache.get(key)
                if i % 50 == 0:
                    cache.swap(key, CachedPlan(key=key, program=None,
                                               stages=[]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(w,))
                       for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        stats = cache.stats_snapshot()
        assert (stats["hits"] + stats["misses"]
                + stats["single_flight_waits"]) == workers * rounds
        assert stats["misses"] == stats["plans_built"]
        assert len(cache) <= cache.capacity

    def test_trace_counters_record_traffic(self):
        calls = []
        cache = PlanCache(capacity=4, builder=_slow_builder(calls, delay=0))
        with tracing(Tracer()) as tr:
            cache.get(PlanKey(64, 1, 4))
            cache.get(PlanKey(64, 1, 4))
        assert tr.counter_total("serve.plan_cache.misses") == 1
        assert tr.counter_total("serve.plan_cache.hits") == 1

    def test_failed_build_propagates_and_is_not_cached(self):
        attempts = []

        def flaky(key):
            attempts.append(key)
            if len(attempts) == 1:
                raise RuntimeError("planner exploded")
            return CachedPlan(key=key, program=None, stages=[])

        cache = PlanCache(capacity=4, builder=flaky)
        key = PlanKey(64, 1, 4)
        with pytest.raises(RuntimeError, match="planner exploded"):
            cache.get(key)
        assert key not in cache
        # the next request retries and succeeds
        assert cache.get(key).key == key
        assert len(attempts) == 2

    def test_failed_build_wakes_waiters_with_error(self):
        release = threading.Event()

        def blocking_fail(key):
            release.wait(1.0)
            raise RuntimeError("boom")

        cache = PlanCache(capacity=4, builder=blocking_fail)
        key = PlanKey(64, 1, 4)
        errors = []

        def worker():
            try:
                cache.get(key)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.05)  # let all three enter (1 leader + 2 waiters)
        release.set()
        for t in threads:
            t.join()
        assert errors == ["boom"] * 3


class TestFailureAccounting:
    """A failed build must not be negatively cached, and the traffic
    counters must stay consistent when builds fail concurrently."""

    def test_retry_after_failure_is_a_fresh_miss(self):
        attempts = []

        def flaky(key):
            attempts.append(key)
            if len(attempts) == 1:
                raise RuntimeError("planner exploded")
            return CachedPlan(key=key, program=None, stages=[])

        cache = PlanCache(capacity=4, builder=flaky)
        key = PlanKey(64, 1, 4)
        with pytest.raises(RuntimeError):
            cache.get(key)
        # the failure cleared the flight: the retry becomes a new
        # leader (a miss), not a waiter on a dead flight
        assert cache._inflight == {}
        cache.get(key)
        assert cache.stats["misses"] == 2
        assert cache.stats["single_flight_waits"] == 0
        assert cache.stats["plans_built"] == 1

    def test_failure_does_not_count_as_built_or_evict(self):
        def failing(key):
            raise RuntimeError("no plan for you")

        cache = PlanCache(capacity=1, builder=failing)
        for n in (16, 32, 64):
            with pytest.raises(RuntimeError):
                cache.get(PlanKey(n, 1, 4))
        assert len(cache) == 0
        assert cache.stats["plans_built"] == 0
        assert cache.stats["evictions"] == 0
        assert cache.stats["misses"] == 3

    def test_eviction_counters_consistent_under_concurrent_failures(self):
        fail_first = {PlanKey(n, 1, 4) for n in range(0, 64, 3)}
        lock = threading.Lock()
        failed_once = set()

        def builder(key):
            with lock:
                should_fail = key in fail_first and key not in failed_once
                if should_fail:
                    failed_once.add(key)
            if should_fail:
                raise RuntimeError(f"transient failure for {key}")
            return CachedPlan(key=key, program=None, stages=[])

        cache = PlanCache(capacity=8, builder=builder)
        keys = [PlanKey(n, 1, 4) for n in range(64)]
        errors = []

        def worker(offset):
            for key in keys[offset:] + keys[:offset]:
                try:
                    cache.get(key)
                except RuntimeError:
                    errors.append(key)

        threads = [threading.Thread(target=worker, args=(o,))
                   for o in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        stats = cache.stats
        assert len(cache) <= cache.capacity
        # every resident or evicted plan was built exactly once; failed
        # attempts never enter the LRU, so the books must balance
        assert stats["evictions"] == stats["plans_built"] - len(cache)
        assert cache._inflight == {}
        # every key that ever failed is rebuildable afterwards
        for key in set(errors):
            assert cache.get(key).key == key
