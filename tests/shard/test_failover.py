"""Failover and chaos: shard death, ejection, replay, rejoin.

The shard-tier acceptance invariants:

1. killing a shard mid-burst loses **zero acknowledged requests** —
   orphaned in-flight requests replay on ring successors, and any error
   a client does see is typed retryable;
2. the router's ``health`` op reports the ejection while it lasts;
3. the supervisor respawns the shard and the ring heals (rejoin);
4. the seeded ``shard.worker_crash`` / ``shard.route_flap`` injection
   points drive the same machinery deterministically.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.serve import RetryPolicy, ServeClient, ServeConfig
from repro.serve.protocol import FrameConn, payload_array
from repro.shard import NoShardsAvailable, ShardFleet, ShardRouter
from repro.shard.worker import ShardWorker
from repro.trace import tracing

RECOVERY_S = 10.0


def _vec(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _wait(predicate, timeout=RECOVERY_S, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture()
def tier():
    with ShardFleet(2, ServeConfig(max_batch=16),
                    supervise_interval_s=0.05) as fleet:
        router = ShardRouter(("127.0.0.1", 0), fleet)
        router.serve_background()
        try:
            yield fleet, router
        finally:
            router.close()


class TestKillMidLoad:
    def test_zero_lost_acks_and_health_reports_ejection(self, tier):
        fleet, router = tier
        sizes = [64, 128, 256, 512]
        client = ServeClient("127.0.0.1", router.port)
        for n in sizes:  # warm every plan on its owner
            client.fft(_vec(n))

        killed = {}

        def _kill():
            time.sleep(0.02)
            killed["sid"] = fleet.kill_shard()

        xs = [_vec(sizes[i % 4], seed=i) for i in range(48)]
        killer = threading.Thread(target=_kill, daemon=True)
        killer.start()
        outs = client.fft_pipeline(xs)
        killer.join()

        retry = RetryPolicy(attempts=8, seed=7)
        completed = 0
        for x, (y, _, err) in zip(xs, outs):
            if err is not None:
                # a response the router could not salvage must be typed
                # retryable — and the retry must then succeed
                assert err.code in retry.retry_codes
                y = client.fft_retry(x, policy=retry)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
            completed += 1
        assert completed == len(xs)  # zero lost acknowledged requests

        # the ejection was observed by fleet accounting (the health snap
        # may already show the healed ring; counters are monotonic)
        assert fleet.counters()["ejections"] >= 1
        assert _wait(lambda: client.health()["status"] == "ok")
        snap = client.health()
        assert snap["shards"][killed["sid"]]["alive"] is True
        assert snap["counters"]["restarts"] >= 1
        assert snap["counters"]["rejoins"] >= 1
        client.close()

    def test_ejected_shard_reported_then_rejoins(self, tier):
        fleet, router = tier
        sid = fleet.kill_shard("shard-1")
        assert sid == "shard-1"
        assert _wait(lambda: "shard-1" not in fleet.live_shards, 5.0) or \
            "shard-1" in fleet.live_shards  # may heal within one poll
        # after supervision: respawned, rejoined, healthy again
        assert _wait(lambda: "shard-1" in fleet.live_shards)
        client = ServeClient("127.0.0.1", router.port)
        snap = client.health()
        assert snap["status"] == "ok"
        assert snap["shards"]["shard-1"]["in_ring"] is True
        client.close()


class TestReplayByOrder:
    def test_two_in_flight_requests_sharing_an_id_are_both_replayed(self):
        """Replies pair with requests by their order on an upstream, not by
        ``id``: two requests under one id, both queued on a shard when it
        dies, are both replayed and answered, each with its own result."""
        with ShardFleet(2, ServeConfig(),
                        supervise_interval_s=0.05) as fleet:
            router = ShardRouter(("127.0.0.1", 0), fleet, prewarm=False)
            router.serve_background()
            conn = FrameConn.dial(("127.0.0.1", router.port), 15.0)
            owner = fleet.owner(fleet.route_key_for(64))
            # a stopped shard keeps both unanswered until the kill
            os.kill(fleet._workers[owner].pid, signal.SIGSTOP)
            try:
                xs = [_vec(64, seed) for seed in (1, 2)]
                for x in xs:
                    conn.send({"op": "fft", "id": 7}, x)
                assert _wait(lambda: router.counters()["routed"] == 2, 5.0)
                fleet.kill_shard(owner)
                for x in xs:
                    msg, buf, _ = conn.recv()
                    assert msg["id"] == 7 and msg["ok"] is True
                    np.testing.assert_allclose(payload_array(msg, buf),
                                               np.fft.fft(x), atol=1e-6)
                assert router.counters()["replays"] == 2
            finally:
                conn.close()
                router.close()


class TestSingleShardDegradation:
    def test_all_shards_dead_is_typed_overloaded(self):
        with ShardFleet(1, ServeConfig(), max_restarts=0,
                        supervise_interval_s=0.05) as fleet:
            router = ShardRouter(("127.0.0.1", 0), fleet)
            router.serve_background()
            try:
                client = ServeClient("127.0.0.1", router.port)
                x = _vec(64)
                np.testing.assert_allclose(
                    client.fft(x), np.fft.fft(x), atol=1e-6
                )
                fleet.kill_shard("shard-0")
                assert _wait(lambda: not fleet.live_shards, 5.0)
                with pytest.raises(NoShardsAvailable):
                    fleet.owner(fleet.route_key_for(64))
                # fresh connection: the router answers, typed retryable
                probe = ServeClient("127.0.0.1", router.port,
                                    retry=RetryPolicy(attempts=1))
                from repro.serve import RemoteError
                with pytest.raises(RemoteError) as exc:
                    probe.fft(x)
                assert exc.value.code == "overloaded"
                assert probe.health()["status"] == "degraded"
                probe.close()
                client.close()
            finally:
                router.close()


class TestChaosInjectionPoints:
    def test_worker_crash_point_drives_supervisor(self, tier):
        fleet, router = tier
        plan = FaultPlan(
            [FaultSpec("shard.worker_crash", rate=1.0, max_fires=1)],
            seed=3,
        )
        client = ServeClient("127.0.0.1", router.port)
        with fault_plan(plan):
            assert _wait(lambda: fleet.counters()["chaos_kills"] >= 1, 5.0)
            assert _wait(lambda: fleet.counters()["ejections"] >= 1, 5.0)
        # and the tier heals after the chaos window
        assert _wait(lambda: client.health()["status"] == "ok")
        for n in (64, 256):
            x = _vec(n, seed=n)
            y = client.fft_retry(x, policy=RetryPolicy(attempts=8, seed=1))
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
        client.close()

    def test_route_flap_diverts_to_successor(self, tier):
        fleet, router = tier
        client = ServeClient("127.0.0.1", router.port)
        client.fft(_vec(64))  # ensure connectivity before chaos
        before = router.counters()["flapped_routes"]
        plan = FaultPlan(
            [FaultSpec("shard.route_flap", rate=1.0, max_fires=4)], seed=5
        )
        with fault_plan(plan):
            for i in range(4):
                x = _vec(64, seed=i)
                # any shard must serve any key: results stay correct
                np.testing.assert_allclose(
                    client.fft(x), np.fft.fft(x), atol=1e-6
                )
        assert router.counters()["flapped_routes"] == before + 4
        client.close()


class TestCounterParity:
    def test_fleet_and_router_counts_reach_the_tracer(self):
        """Requests, one route flap, one kill: every declared fleet and
        router name reads the same from ``counters()`` and from the tracer
        (at the parent none of the router's nine reached a trace)."""
        with tracing() as tr:
            with ShardFleet(2, ServeConfig(),
                            supervise_interval_s=0.05) as fleet:
                router = ShardRouter(("127.0.0.1", 0), fleet)
                router.serve_background()
                try:
                    client = ServeClient("127.0.0.1", router.port)
                    sizes = (64, 128, 256, 512)
                    for n in sizes:
                        client.fft(_vec(n))
                    assert _wait(lambda: sum(
                        router.counters()[k]
                        for k in ("prewarms_sent", "prewarm_errors")
                    ) == len(sizes))
                    flap = FaultPlan(
                        [FaultSpec("shard.route_flap", max_fires=1)], seed=5)
                    with fault_plan(flap):
                        client.fft(_vec(64, seed=1))
                    fleet.kill_shard()
                    retry = RetryPolicy(attempts=8, seed=7)
                    for i, n in enumerate(sizes):
                        x = _vec(n, seed=i)
                        np.testing.assert_allclose(
                            client.fft_retry(x, policy=retry),
                            np.fft.fft(x), atol=1e-6)
                    assert _wait(lambda: fleet.counters()["rejoins"] >= 1)
                    client.close()
                finally:
                    router.close()
        fc, rc = fleet.counters(), router.counters()
        assert set(fc) == set(ShardFleet.COUNTERS)
        assert set(rc) == set(ShardRouter.COUNTERS)
        assert fc["ejections"] >= 1 and fc["restarts"] >= 1
        assert rc["routed"] >= 9 and rc["flapped_routes"] == 1
        assert rc["prewarms_sent"] >= len(sizes)
        for name, value in {**fc, **rc}.items():
            assert tr.counter_total(f"shard.{name}") == value, name


class TestDegradedShard:
    def test_a_shard_serving_numpy_for_compiled_is_degraded_not_ejected(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CC", "1")  # the children inherit it
        with ShardFleet(1, ServeConfig(backend="compiled"),
                        supervise_interval_s=0.05) as fleet:
            assert fleet.health()["status"] == "ok"  # nothing built yet
            with ServeClient(*fleet.address("shard-0")) as c:
                x = _vec(64)
                np.testing.assert_allclose(c.fft(x), np.fft.fft(x),
                                           atol=1e-6)
                assert c.health()["fallbacks"] == [
                    "n64:t1:mu4:balanced compiled->numpy"]
            time.sleep(0.2)  # several supervisor ticks
            snap = fleet.health()
            assert snap["status"] == "degraded"
            assert snap["shards"]["shard-0"]["status"] == "degraded"
            assert snap["shards"]["shard-0"]["in_ring"] is True
            assert fleet.live_shards == ["shard-0"]
            assert fleet.counters()["ejections"] == 0


class TestWorkerLifecycle:
    def test_terminate_is_clean_exit(self):
        w = ShardWorker("solo", ServeConfig())
        port = w.spawn()
        assert w.alive and w.port == port
        with ServeClient(*w.address) as c:
            assert c.ping()
        assert w.terminate() is True  # SIGTERM -> drain -> exit 0

    def test_respawn_counts_restarts(self):
        w = ShardWorker("phoenix", ServeConfig())
        w.spawn()
        w.kill()
        assert not w.alive
        w.respawn()
        assert w.alive and w.restarts == 1
        w.terminate()
