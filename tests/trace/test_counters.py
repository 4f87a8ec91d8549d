"""`repro.trace.Counters`: the one always-on count, mirrored to the tracer.

Three things are pinned here: the primitive itself; that for the in-process
owners (service, plan cache, tuner — the fleet / router pair is in
``tests/shard/test_failover.py``) every declared name reads the same from
``snapshot()`` and from an enabled tracer after a mixed scenario; and that
``docs/profiling.md`` §3 lists exactly the declared names.
"""

import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.serve import (
    DeadlineExceeded,
    FFTService,
    Overloaded,
    PlanCache,
    ServeConfig,
)
from repro.shard import ShardFleet, ShardRouter
from repro.trace import NULL_TRACER, Counters, get_tracer, tracing
from repro.tune import Tuner, TunerConfig

PROFILING_MD = Path(__file__).resolve().parents[2] / "docs" / "profiling.md"


def _vec(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def assert_parity(tr, counters: Counters) -> None:
    """Every declared name: the tracer's total is the snapshot's value."""
    for name, value in counters.snapshot().items():
        traced = tr.counter_total(f"{counters.prefix}.{name}")
        assert traced == pytest.approx(value), (counters.prefix, name)


class TestPrimitive:
    def test_undeclared_name_raises(self):
        c = Counters("t", ("a",))
        with pytest.raises(KeyError):
            c.add("b")
        with pytest.raises(KeyError):
            c.peak("b", 1)
        with pytest.raises(KeyError):
            c["b"]
        assert c.snapshot() == {"a": 0}

    def test_concurrent_adds_sum_exactly(self):
        c = Counters("t", ("a", "b"))

        def work():
            for _ in range(10_000):
                c.add("a")
                c.add("b", 2)
                c.add_many((("a", 1), ("b", 2)))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert c.snapshot() == {"a": 160_000, "b": 320_000}
        assert c["a"] == 160_000

    def test_peak_keeps_the_maximum(self):
        c = Counters("t", ("high",))
        with tracing() as tr:
            for v in (3, 7, 5, 7, 2):
                c.peak("high", v)
        assert c["high"] == 7
        assert tr.counter_total("t.high") == 7

    def test_nothing_reaches_a_null_tracer(self):
        assert get_tracer() is NULL_TRACER
        c = Counters("t", ("a",))
        c.add("a", 3, n=64)
        assert c["a"] == 3
        assert NULL_TRACER.counters == {} and NULL_TRACER.counter_names() == []

    def test_prefixed_name_and_attrs_reach_an_enabled_tracer(self):
        c = Counters("serve.thing", ("a",))
        with tracing() as tr:
            c.add("a", 2, n=64)
            c.add("a", shard="s0")
        assert tr.counter_items("serve.thing.a") == [
            ({"n": 64}, 2), ({"shard": "s0"}, 1),
        ]
        assert c.snapshot() == {"a": 3}  # attrs key the tracer's copy only


class TestParity:
    def test_service_plan_cache_and_tuner(self):
        """Requests, one Overloaded, one queued deadline miss, one
        worker-crash failover, one eviction, one swap, one tick."""
        cfg = ServeConfig(threads=2, max_batch=64, cache_capacity=2)
        with tracing() as tr:
            svc = FFTService(cfg)
            tuner = Tuner(svc, TunerConfig(search_budget=1, search_repeats=1))
            try:
                crash = FaultPlan([
                    FaultSpec("runtime.worker_crash", max_fires=1),
                    FaultSpec("serve.queue_burst", max_fires=1),
                ])
                with fault_plan(crash):
                    with pytest.raises(Overloaded):
                        svc.submit(_vec(64))
                    # the pool loses its worker under this batch: failover
                    x = _vec(64)
                    np.testing.assert_allclose(
                        svc.transform(x, no_batch=True), np.fft.fft(x),
                        atol=1e-6)
                for n in (64, 256, 1024):  # third key evicts the first
                    svc.transform(_vec(n), no_batch=True)
                svc.transform(np.stack([_vec(256, 1), _vec(256, 2)]),
                              no_batch=True)
                late = svc.submit(_vec(256, 3), timeout=0.02)
                time.sleep(0.04)  # queued, unwaited, past its deadline
                with pytest.raises(DeadlineExceeded):
                    late.result(2.0)
                svc.prewarm(1024)
                assert tuner.retune(cfg.plan_key(1024)) is True
                tuner.tick()
            finally:
                svc.close()
            m = svc.stats()
            assert m["rejected"] == 1 and m["failovers"] == 1
            assert m["deadline_misses"] == 1 and m["prewarms"] == 1
            assert m["vectors"] == m["requests"] + 1
            assert m["max_queue_depth"] == 2
            assert m["plan_cache"]["evictions"] >= 1
            assert m["plan_cache"]["swaps"] == 1
            assert tuner.snapshot()["ticks"] == 1
            assert tuner.snapshot()["windows_observed"] >= 1
            for owner in (svc.counters, svc.plans.stats, tuner.counters):
                assert_parity(tr, owner)


class TestDocsTable:
    def test_profiling_md_lists_exactly_the_declared_names(self):
        declared = {
            f"{prefix}.{name}"
            for prefix, owner in (
                ("serve", FFTService), ("serve.plan_cache", PlanCache),
                ("tune", Tuner), ("shard", ShardFleet), ("shard", ShardRouter),
            )
            for name in owner.COUNTERS
        }
        text = PROFILING_MD.read_text()
        start = text.index("<!-- counters:begin -->")
        table = text[start:text.index("<!-- counters:end -->", start)]
        listed = [
            name
            for row in table.splitlines() if row.startswith("| `")
            for name in re.findall(r"`((?:serve|shard|tune)\.[\w.]+)`",
                                   row.split("|")[1])
        ]
        assert len(listed) == len(set(listed))
        assert set(listed) == declared
