"""Chaos suite: the serve stack under injected faults.

Invariants asserted under every fault plan:

1. **zero wrong answers** — every result that comes back matches
   ``np.fft.fft`` (faults may slow or fail requests, never corrupt them);
2. **bounded failure** — clients riding the documented retry policy
   complete their workload despite the faults;
3. **recovery** — once the plan's ``stop()`` switch flips, the service
   reports ``health == "ok"`` again within five seconds.
"""

import time

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.loadgen import LoadgenConfig, run_loadgen
from repro.serve import (
    FFTService,
    Overloaded,
    ServeClient,
    ServeConfig,
)
from repro.serve import service as service_module
from repro.serve.server import FFTServer

RECOVERY_S = 5.0


def _vec(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def wait_healthy(service: FFTService, timeout: float = RECOVERY_S) -> dict:
    """Poll ``health`` until ``status == "ok"``; the last snapshot."""
    deadline = time.monotonic() + timeout
    snap = service.health()
    while snap["status"] != "ok" and time.monotonic() < deadline:
        time.sleep(0.05)
        snap = service.health()
    return snap


@pytest.fixture()
def chaos_server(monkeypatch):
    """A served FFTService with 2-thread pools (so pool faults matter)."""
    monkeypatch.setattr(service_module, "DEGRADE_COOLDOWN_S", 0.3)
    service = FFTService(
        ServeConfig(threads=2, max_batch=16)
    )
    srv = FFTServer(("127.0.0.1", 0), service)
    srv.serve_background()
    yield srv, service
    srv.shutdown()
    srv.server_close()
    service.close()


def _small_load(port: int, seed: int = 0) -> dict:
    """A bounded loadgen run that checks every single result."""
    return run_loadgen(
        LoadgenConfig(
            port=port,
            sizes=[64, 128],
            clients=2,
            requests=24,
            pipeline=4,
            baseline_requests=0,
            output=None,
            seed=seed,
            verify="all",
        )
    )


class TestWorkerCrashAndReset:
    def test_acceptance_scenario(self, chaos_server):
        """Worker crashes and connection resets at 10%: loadgen finishes
        with zero wrong answers and health recovers once faults stop."""
        srv, service = chaos_server
        plan = FaultPlan(
            [
                FaultSpec("runtime.worker_crash", rate=0.1, max_fires=6),
                FaultSpec("net.conn_reset", rate=0.1, max_fires=6),
            ],
            seed=42,
        )
        with fault_plan(plan):
            report = _small_load(srv.port, seed=1)
            plan.stop()
            snap = wait_healthy(service)
        # verify="all" checked every result inside the workers; reaching
        # here means zero mismatches and every client finished its quota
        assert report["measured"]["requests"] == 48
        assert snap["status"] == "ok", snap
        # the plan actually did something (crashes and/or resets fired)
        fired = sum(p["fires"] for p in plan.snapshot().values())
        assert fired > 0
        # crashes that fired were absorbed: failover + rebuild, not failure
        if plan.fires("runtime.worker_crash"):
            c = snap["counters"]
            assert c["failovers"] + c["pool_rebuilds"] > 0
        if plan.fires("net.conn_reset"):
            assert report["measured"]["reconnects"] > 0


class TestQueueBurst:
    def test_burst_rejections_are_retryable(self, chaos_server):
        srv, service = chaos_server
        plan = FaultPlan([FaultSpec("serve.queue_burst", max_fires=3)])
        with fault_plan(plan):
            with ServeClient("127.0.0.1", srv.port) as client:
                x = _vec(64)
                # rate 1.0: the first three admissions are rejected, so a
                # plain fft sees the typed overloaded error...
                from repro.serve import RemoteError

                with pytest.raises(RemoteError) as ei:
                    client.fft(x)
                assert ei.value.code == "overloaded"
                assert ei.value.retry_after is not None
                # ...and the retrying client rides it out
                y = client.fft_retry(x)
                np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
                assert client.retries_total > 0
            plan.stop()
            snap = wait_healthy(service)
        assert snap["status"] == "ok"
        assert snap["counters"]["rejected"] >= 3

    def test_service_level_burst(self):
        with FFTService(ServeConfig()) as svc:
            plan = FaultPlan([FaultSpec("serve.queue_burst", max_fires=1)])
            with fault_plan(plan):
                with pytest.raises(Overloaded):
                    svc.submit(_vec(64))
                y = svc.transform(_vec(64))  # next admission is clean
                np.testing.assert_allclose(
                    y, np.fft.fft(_vec(64)), atol=1e-6
                )


class TestDispatcherCrash:
    # no thread of the service's own runs a batch: a pass that raises
    # raises on the waiter that held the baton, so no thread dies (CI runs
    # this file with unhandled-thread-exception warnings as errors)
    def test_dispatcher_survives_its_crash(self, monkeypatch):
        """Two batch passes raise on the baton holder: each frees the
        baton and loses nothing queued, and the next wait serves it."""
        svc = FFTService(ServeConfig())
        try:
            next_batch, crashes = svc._next_batch, [2]

            def crashing(*args):
                if crashes[0]:
                    crashes[0] -= 1
                    raise RuntimeError("injected pass failure")
                return next_batch(*args)

            monkeypatch.setattr(svc, "_next_batch", crashing)
            xs = [_vec(64, seed=seed) for seed in range(6)]
            tickets = [svc.submit(x) for x in xs]
            raised = 0
            for x, ticket in zip(xs, tickets):
                while True:
                    try:
                        y = ticket.result(10.0)
                        break
                    except RuntimeError:
                        raised += 1
                        assert not svc._executing
                        assert len(svc._queue) == len(xs)  # intact
                np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
            assert raised == 2
            snap = wait_healthy(svc)
            assert snap["status"] == "ok"
            stats = svc.stats()
            assert (stats["requests"], stats["failures"]) == (6, 0)
            assert stats["pass_failures"] == 2
        finally:
            svc.close()


class TestSlowPlan:
    def test_slow_plan_build_only_delays(self, chaos_server):
        srv, service = chaos_server
        plan = FaultPlan([FaultSpec("plan.slow", delay_s=0.05, max_fires=1)])
        with fault_plan(plan):
            with ServeClient("127.0.0.1", srv.port) as client:
                x = _vec(64)
                t0 = time.perf_counter()
                y = client.fft(x)
                first = time.perf_counter() - t0
                np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
                assert first >= 0.05  # the leader slept out the fault
                y2 = client.fft(_vec(64, seed=1))  # cached: no new build
                assert y2 is not None
            plan.stop()
            snap = wait_healthy(service)
        assert snap["status"] == "ok"
        assert plan.fires("plan.slow") == 1


class TestPoisonedPayload:
    def test_poison_is_typed_retryable_never_wrong(self, chaos_server):
        srv, service = chaos_server
        plan = FaultPlan([FaultSpec("net.poison_payload", max_fires=2)])
        with fault_plan(plan):
            with ServeClient("127.0.0.1", srv.port) as client:
                x = _vec(64)
                # the poisoned requests come back as typed internal errors
                # (never a silently-wrong array), and retry rides past them
                y = client.fft_retry(x)
                np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
                assert client.retries_total == 2
            plan.stop()
            snap = wait_healthy(service)
        assert snap["status"] == "ok"


class TestHealthReporting:
    def test_health_embeds_fault_snapshot(self, chaos_server):
        srv, service = chaos_server
        plan = FaultPlan([FaultSpec("serve.queue_burst", rate=0.0)])
        with fault_plan(plan):
            with ServeClient("127.0.0.1", srv.port) as client:
                snap = client.health()
        assert snap["status"] in ("ok", "degraded")
        assert "serve.queue_burst" in snap["faults"]
        assert "queue_depth" in snap and "pools" in snap

    def test_health_without_chaos_is_ok(self, chaos_server):
        srv, service = chaos_server
        with ServeClient("127.0.0.1", srv.port) as client:
            x = _vec(64)
            client.fft(x)
            snap = client.health()
        assert snap["status"] == "ok"
        assert snap["faults"] == {}
