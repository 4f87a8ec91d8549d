"""Router integration: routing, aggregation, prewarm, protocol edges.

One 2-shard fleet + router is shared module-wide (spawning real child
processes is the expensive part); every test drives it through plain
:class:`ServeClient` connections — the point being that shard-tier
clients are *unchanged* serve clients.
"""

import threading
import time

import numpy as np
import pytest

from repro.serve import RemoteError, ServeClient, ServeConfig
from repro.serve.protocol import FrameConn
from repro.shard import ShardFleet, ShardRouter
from repro.shard.ring import route_key

SIZES = [64, 128, 256, 512]


@pytest.fixture(scope="module")
def tier():
    with ShardFleet(2, ServeConfig(max_batch=16)) as fleet:
        router = ShardRouter(("127.0.0.1", 0), fleet)
        router.serve_background()
        try:
            yield fleet, router
        finally:
            router.close()


@pytest.fixture()
def client(tier):
    _, router = tier
    c = ServeClient("127.0.0.1", router.port)
    yield c
    c.close()


def _vec(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestRoutedFFT:
    def test_results_match_numpy_across_sizes(self, client):
        for n in SIZES:
            x = _vec(n, seed=n)
            np.testing.assert_allclose(
                client.fft(x), np.fft.fft(x), atol=1e-6
            )

    def test_pipeline_through_router(self, client):
        xs = [_vec(SIZES[i % len(SIZES)], seed=i) for i in range(12)]
        outs = client.fft_pipeline(xs)
        assert len(outs) == len(xs)
        for x, (y, dt, err) in zip(xs, outs):
            assert err is None
            assert dt >= 0.0
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)

    def test_batched_stack_routes_whole(self, client):
        X = np.vstack([_vec(128, seed=i) for i in range(4)])
        np.testing.assert_allclose(
            client.fft(X), np.fft.fft(X, axis=-1), atol=1e-6
        )

    def test_requests_spread_by_plan_key(self, tier, client):
        fleet, router = tier
        for n in SIZES:
            client.fft(_vec(n))
        owners = {n: fleet.owner(fleet.route_key_for(n)) for n in SIZES}
        assert set(owners.values()) == {"shard-0", "shard-1"}
        per_shard = router.latencies.counts()
        assert set(per_shard) == {"shard-0", "shard-1"}

    def test_no_batch_and_hints_pass_through(self, client):
        x = _vec(256)
        y = client.fft(x, threads=2, mu=4, no_batch=True)
        np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)


class TestRouterOps:
    def test_ping_identifies_router(self, client):
        resp = client.request("ping")
        assert resp["pong"] is True
        assert resp["role"] == "router"

    def test_health_aggregates_fleet(self, client):
        snap = client.health()
        assert snap["status"] == "ok"
        assert set(snap["shards"]) == {"shard-0", "shard-1"}
        for entry in snap["shards"].values():
            assert entry["healthy"] is True
            assert entry["in_ring"] is True
            assert "queue_depth" in entry
        assert snap["ring"]["members"] == ["shard-0", "shard-1"]
        assert snap["ring"]["ejected"] == []
        # fleet and router counters merge into the service-health shape
        for key in ("ejections", "rejoins", "routed", "failovers"):
            assert key in snap["counters"]

    def test_stats_sums_shards_and_keeps_breakdown(self, client):
        for n in SIZES:
            client.fft(_vec(n))
        stats = client.stats()
        assert stats["requests"] >= len(SIZES)
        assert stats["plan_cache"]["hits"] + \
            stats["plan_cache"]["misses"] > 0
        assert set(stats["shards"]) <= {"shard-0", "shard-1"}
        assert stats["config"]["shards"] == 2
        per_shard = stats["router"]["per_shard_latency"]
        assert all(v["requests"] > 0 for v in per_shard.values())

    def test_prewarm_builds_on_owner_and_successor(self, tier, client):
        fleet, _ = tier
        resp = client.request("prewarm", n=1024)
        assert resp["ok"] is True
        assert resp["plan"]["n"] == 1024
        key = fleet.route_key_for(1024)
        assert resp["shards"] == [fleet.owner(key)] + fleet.successors(key)

    def test_prewarm_rejects_bad_n(self, client):
        with pytest.raises(RemoteError) as exc:
            client.request("prewarm", n="nope")
        assert exc.value.code == "bad-request"

    def test_unknown_op_rejected(self, client):
        with pytest.raises(RemoteError) as exc:
            client.request("frobnicate")
        assert exc.value.code == "bad-request"

    def test_fft_without_shape_or_data_rejected(self, client):
        with pytest.raises(RemoteError) as exc:
            client.request("fft")
        assert exc.value.code == "bad-request"

    def test_payloadless_fft_rejected_connection_usable(self, client):
        """Header-only ``fft`` lines: the router rejects what it cannot size,
        the owning shard rejects a ``shape`` with no payload behind it."""
        for fields in ({"data": [[1.0, 0.0], [0.0, 0.0]]}, {"shape": [64]}):
            with pytest.raises(RemoteError) as exc:
                client.request("fft", **fields)
            assert exc.value.code == "bad-request"
        x = _vec(64)
        np.testing.assert_allclose(client.fft(x), np.fft.fft(x), atol=1e-6)


class TestRouteKeyDefaults:
    def test_router_and_service_default_identically(self, tier):
        fleet, _ = tier
        cfg = fleet.config
        assert fleet.route_key_for(512) == route_key(
            512, cfg.threads, cfg.mu, cfg.strategy, cfg.backend
        )
        assert fleet.route_key_for(512, threads=2, mu=8) == route_key(
            512, 2, 8, cfg.strategy, cfg.backend
        )

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    def test_route_key_is_the_plan_key_the_shard_builds(self, tier, n):
        """Two spellings of ``threads`` share a route key exactly when
        they share a plan: the clamp is the service's, not a copy."""
        fleet, _ = tier
        cfg = fleet.config
        plans = {t: cfg.plan_key(n, t) for t in range(1, 9)}
        routes = {t: fleet.route_key_for(n, t) for t in range(1, 9)}
        for a in plans:
            for b in plans:
                assert (routes[a] == routes[b]) == (plans[a] == plans[b])
        for t, key in plans.items():
            assert routes[t] == route_key(n, key.threads, key.mu,
                                          key.strategy, cfg.backend)

    def test_every_spelling_of_one_plan_has_one_owner(self, tier, client):
        """At n = 64, µ = 4 every requested ``threads`` in 2..8 builds the
        t = 2 plan; one shard must serve them all and build it once."""
        before = client.stats()["shards"]
        x = _vec(64)
        for t in range(2, 9):
            np.testing.assert_allclose(client.fft(x, threads=t),
                                       np.fft.fft(x), atol=1e-6)
        after = client.stats()["shards"]
        served = {sid: after[sid]["requests"] - before[sid]["requests"]
                  for sid in after}
        assert sorted(served.values()) == [0, 7]
        owner = max(served, key=served.get)
        assert (after[owner]["plan_cache"]["plans_built"]
                - before[owner]["plan_cache"]["plans_built"]) == 1


def _numeric(block: dict) -> dict:
    return {k: v for k, v in block.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


class TestFleetStats:
    def test_fleet_stats_carry_every_numeric_counter_a_shard_reports(
            self, client):
        for n in SIZES:
            client.fft(_vec(n))
        stats = client.stats()
        shards = list(stats["shards"].values())
        assert len(shards) == 2
        for shard in shards:
            assert set(_numeric(shard)) <= set(_numeric(stats))
            assert set(_numeric(shard["plan_cache"])) <= \
                set(_numeric(stats["plan_cache"]))
        # the ones a hand-kept list used to drop
        for key in ("failovers", "pool_rebuilds",
                    "degraded_executions", "request_wall_s",
                    "avg_request_wall_s"):
            assert key in stats
        assert "swaps" in stats["plan_cache"]
        # totals are sums, high-water marks are maxima, ratios recomputed
        for key in ("requests", "vectors", "batches", "request_wall_s"):
            assert stats[key] == pytest.approx(sum(s[key] for s in shards))
        assert stats["max_queue_depth"] == \
            max(s["max_queue_depth"] for s in shards)
        assert stats["avg_request_wall_s"] == pytest.approx(
            stats["request_wall_s"] / stats["vectors"])
        # config is a shard's own (so it names nu and tune) plus the count
        assert stats["config"] == {**shards[0]["config"], "shards": 2}


class TestUpstreamLifetime:
    def test_an_idle_upstream_is_not_a_dead_shard(self, tier, monkeypatch):
        """The upstream's timeout bounds the connect, never a read: a
        client that sits idle longer than it costs the fleet nothing."""
        fleet, router = tier
        dial = FrameConn.dial.__func__

        def short_connect(cls, address, timeout=None, connect_timeout=None):
            # shorten only what the caller asked to bound the connect by
            return dial(cls, address, timeout, connect_timeout and 0.2)

        monkeypatch.setattr(FrameConn, "dial", classmethod(short_connect))
        before = fleet.counters()
        x = _vec(128)
        with ServeClient("127.0.0.1", router.port) as c:
            np.testing.assert_allclose(c.fft(x), np.fft.fft(x), atol=1e-6)
            time.sleep(0.6)  # three connect timeouts of silence
            assert fleet.counters() == before
            np.testing.assert_allclose(c.fft(x), np.fft.fft(x), atol=1e-6)
        assert fleet.counters() == before

    def test_a_closed_client_releases_its_handler_and_upstreams(self, tier):
        """Closing a connection wakes the upstream readers blocked on it;
        nothing waits for a shard to speak before letting go."""
        _, router = tier
        time.sleep(0.2)  # let earlier tests' connections unwind
        before = threading.active_count()
        for seed in range(3):
            with ServeClient("127.0.0.1", router.port) as c:
                c.fft(_vec(64, seed))
        deadline = time.monotonic() + 5
        while threading.active_count() > before:
            assert time.monotonic() < deadline, [
                t.name for t in threading.enumerate()]
            time.sleep(0.02)
