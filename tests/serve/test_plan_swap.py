"""PlanCache hot-swap: atomicity, single-flight deferral, accounting.

The tuner's zero-drop guarantee rests on three cache properties proven
here: a concurrent reader sees either the old plan or the new one
(never a half-installed entry), a swap against an in-flight build
defers instead of racing the builder, and a swap that grows the cache
evicts exactly like a built plan would.
"""

import threading
import time

import pytest

from repro.faults import FaultInjected, fault_plan, parse_chaos_spec
from repro.serve.plan_cache import CachedPlan, PlanCache, PlanKey


def _plan(key, tag):
    # stages carries the generation tag; a real plan's invariants
    # (program + stages installed together) are modeled by requiring
    # both halves to agree
    return CachedPlan(key=key, program=("prog", tag), stages=[("stage", tag)])


def _instant_builder(key):
    return _plan(key, "built")


class TestSwapAtomicity:
    def test_swap_replaces_entry(self):
        cache = PlanCache(capacity=4, builder=_instant_builder)
        k = PlanKey(64, 1, 4)
        old = cache.get(k)
        new = _plan(k, "swapped")
        assert cache.swap(k, new) is True
        assert cache.get(k) is new
        assert cache.get(k) is not old
        assert cache.stats["swaps"] == 1

    def test_swap_key_mismatch_rejected(self):
        cache = PlanCache(capacity=4, builder=_instant_builder)
        k = PlanKey(64, 1, 4)
        with pytest.raises(ValueError):
            cache.swap(k, _plan(PlanKey(128, 1, 4), "wrong"))

    def test_concurrent_readers_never_see_torn_plan(self):
        """Hammer get() from many threads while swapping continuously."""
        cache = PlanCache(capacity=4, builder=_instant_builder)
        k = PlanKey(64, 1, 4)
        cache.get(k)
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                plan = cache.get(k)
                # program and stages must always be the same generation
                if plan.program[1] != plan.stages[0][1]:
                    torn.append(plan)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers:
            t.start()
        for i in range(200):
            assert cache.swap(k, _plan(k, f"gen{i}"))
        stop.set()
        for t in readers:
            t.join()
        assert not torn
        assert cache.stats["swaps"] == 200

    def test_executing_batch_keeps_its_plan_reference(self):
        """A swap must not affect a plan already handed to an executor."""
        cache = PlanCache(capacity=4, builder=_instant_builder)
        k = PlanKey(64, 1, 4)
        held = cache.get(k)  # the batch executor's reference
        cache.swap(k, _plan(k, "swapped"))
        assert held.stages == [("stage", "built")]  # untouched


class TestSwapSingleFlightDeferral:
    def test_swap_defers_during_inflight_build(self):
        release = threading.Event()
        entered = threading.Event()

        def blocking_builder(key):
            entered.set()
            release.wait(timeout=5)
            return _plan(key, "built")

        cache = PlanCache(capacity=4, builder=blocking_builder)
        k = PlanKey(64, 1, 4)
        leader = threading.Thread(target=cache.get, args=(k,))
        leader.start()
        assert entered.wait(timeout=5)
        # builder is mid-flight: the swap must refuse, not race
        assert cache.swap(k, _plan(k, "swapped")) is False
        assert cache.stats["swaps"] == 0
        release.set()
        leader.join()
        # once the build lands, the swap commits
        assert cache.swap(k, _plan(k, "swapped")) is True
        assert cache.get(k).program == ("prog", "swapped")


class TestSwapEvictionAccounting:
    def test_swap_into_full_cache_evicts_lru(self):
        cache = PlanCache(capacity=2, builder=_instant_builder)
        k1, k2, k3 = (PlanKey(n, 1, 4) for n in (64, 128, 256))
        cache.get(k1)
        cache.get(k2)
        assert cache.swap(k3, _plan(k3, "swapped")) is True
        assert len(cache) == 2
        assert k1 not in cache  # LRU fell out
        assert cache.stats["evictions"] == 1

    def test_swap_of_present_key_does_not_evict(self):
        cache = PlanCache(capacity=2, builder=_instant_builder)
        k1, k2 = PlanKey(64, 1, 4), PlanKey(128, 1, 4)
        cache.get(k1)
        cache.get(k2)
        assert cache.swap(k1, _plan(k1, "swapped")) is True
        assert len(cache) == 2
        assert cache.stats["evictions"] == 0

    def test_accounting_consistent_under_concurrent_load(self):
        """gets + swaps racing: totals must still reconcile."""
        cache = PlanCache(capacity=8, builder=_instant_builder)
        keys = [PlanKey(1 << (4 + i), 1, 4) for i in range(12)]
        stop = threading.Event()

        def getter(offset):
            i = offset
            while not stop.is_set():
                cache.get(keys[i % len(keys)])
                i += 1

        threads = [threading.Thread(target=getter, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        committed = 0
        for i in range(300):
            if cache.swap(keys[i % len(keys)], _plan(keys[i % len(keys)],
                                                     f"g{i}")):
                committed += 1
        stop.set()
        for t in threads:
            t.join()
        time.sleep(0.01)
        s = cache.stats
        assert s["swaps"] == committed
        # every entry ever installed either still lives or was evicted
        assert len(cache) <= cache.capacity
        assert s["plans_built"] + s["swaps"] >= s["evictions"] + len(cache)


class TestSwapChaos:
    def test_swap_corrupt_fires_before_commit(self):
        cache = PlanCache(capacity=4, builder=_instant_builder)
        k = PlanKey(64, 1, 4)
        old = cache.get(k)
        with fault_plan(parse_chaos_spec("tune.swap_corrupt:1.0")):
            with pytest.raises(FaultInjected):
                cache.swap(k, _plan(k, "swapped"))
        # the injected failure left the old plan serving
        assert cache.get(k) is old
        assert cache.stats["swaps"] == 0
