"""A pool heals where it is used: no thread watches the service.

The batch that breaks a worker pool retires it, the next batch that needs
the pool rebuilds it, and a thread count that fails more than
``MAX_POOL_REBUILDS`` times runs degraded until ``DEGRADE_COOLDOWN_S`` has
passed since its last failure — decided by the clock when traffic or
``health()`` next looks, and promoted (and counted) exactly once.  A batch
pass that raises on the baton holder frees the baton and leaves the queue
as it was, for the next waiter.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.serve import FFTService, ServeConfig
from repro.serve import service as service_module


def _vec(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _started_since(before: set) -> set:
    """Names of the live threads not in ``before``."""
    return {t.name for t in threading.enumerate() if t not in before}


@pytest.fixture()
def quick_degrade(monkeypatch):
    """One pool failure degrades; the degradation lasts 0.4 s."""
    monkeypatch.setattr(service_module, "MAX_POOL_REBUILDS", 0)
    monkeypatch.setattr(service_module, "DEGRADE_COOLDOWN_S", 0.4)


def _crash_the_pool(svc: FFTService, x) -> None:
    """Warm the threads=2 pool, then lose a worker under one batch."""
    svc.transform(x)
    with fault_plan(FaultPlan([FaultSpec("runtime.worker_crash",
                                         max_fires=1)])):
        np.testing.assert_allclose(svc.transform(x), np.fft.fft(x),
                                   atol=1e-6)
    assert svc.stats()["failovers"] == 1


def test_an_idle_service_runs_only_its_dispatcher():
    """An idle service starts no thread: a queued request runs on the
    thread that waits for it."""
    before = set(threading.enumerate())
    with FFTService(ServeConfig()) as svc:
        assert _started_since(before) == set()
        assert svc.health()["status"] == "ok"


def test_a_raising_stage_retires_its_pool_and_the_next_request_rebuilds():
    def boom(proc, src, dst):
        if proc == 1:
            raise RuntimeError("kernel failed")
        time.sleep(0.02)  # the master meets the broken barrier next

    with FFTService(ServeConfig(threads=2)) as svc:
        x = _vec(256)
        key = svc.config.plan_key(256)
        svc.transform(x)
        before = threading.active_count()
        good = svc.plans.get(key)
        assert svc.plans.swap(key, dataclasses.replace(good, stages=[
            dataclasses.replace(st, work=boom) for st in good.stages]))
        with pytest.raises(RuntimeError, match="kernel failed"):
            svc.transform(x)
        assert svc.plans.swap(key, good)
        snap = svc.health()
        assert snap["status"] == "ok"
        assert snap["pools"]["2"] == {"workers": 2, "healthy": None,
                                      "degraded": False, "rebuilds": 1}
        assert threading.active_count() == before - 1  # its worker is gone
        np.testing.assert_allclose(svc.transform(x), np.fft.fft(x),
                                   atol=1e-6)
        assert svc.stats()["pool_rebuilds"] == 1
        assert svc.health()["pools"]["2"]["healthy"] is True
        assert threading.active_count() == before


def test_degradation_expires_by_time_with_no_thread_running(quick_degrade):
    x = _vec(256)
    before = set(threading.enumerate())
    with FFTService(ServeConfig(threads=2)) as svc:
        _crash_the_pool(svc, x)
        snap = svc.health()
        assert snap["status"] == "degraded" and snap["pools"]["2"]["degraded"]
        svc.transform(x)  # runs sequentially, on no pool
        assert svc.stats()["degraded_executions"] == 1
        # the retired pool's worker is gone and nothing else watches
        assert _started_since(before) == set()
        time.sleep(0.5)
        snap = svc.health()
        assert snap["status"] == "ok" and not snap["pools"]["2"]["degraded"]
        stats = svc.stats()
        assert stats["pool_degraded"] == stats["pool_promoted"] == 1


@pytest.mark.parametrize("first_look", ["traffic", "health"])
def test_a_promotion_is_counted_once_whoever_sees_it(quick_degrade,
                                                     first_look):
    x = _vec(256)
    with FFTService(ServeConfig(threads=2)) as svc:
        _crash_the_pool(svc, x)
        time.sleep(0.5)
        if first_look == "health":
            assert svc.health()["status"] == "ok"
        np.testing.assert_allclose(svc.transform(x), np.fft.fft(x),
                                   atol=1e-6)
        stats = svc.stats()
        assert stats["pool_degraded"] == 1
        assert stats["pool_promoted"] == 1
        assert stats["degraded_executions"] == 0
        assert stats["health"]["status"] == "ok"
        assert stats["health"]["pools"]["2"]["healthy"] is True


def test_the_dispatcher_outlives_a_pass_that_raises(monkeypatch):
    """A batch pass that raises on the baton holder reaches the waiter that
    ran it, frees the baton and leaves the queue intact: the next waiter
    serves the request."""
    with FFTService(ServeConfig()) as svc:
        next_batch = svc._next_batch
        raised = []

        def crash_once(*args):
            if not raised:
                raised.append(1)
                raise RuntimeError("injected pass failure")
            return next_batch(*args)

        monkeypatch.setattr(svc, "_next_batch", crash_once)
        x = _vec(64)
        ticket = svc.submit(x)
        with pytest.raises(RuntimeError, match="injected pass failure"):
            ticket.result(10.0)
        assert not svc._executing
        assert [r.ticket for r in svc._queue] == [ticket]
        np.testing.assert_allclose(ticket.result(10.0), np.fft.fft(x),
                                   atol=1e-6)
        assert svc._queue == [] and svc.health()["status"] == "ok"
        assert svc.stats()["pass_failures"] == 1
