"""Router-side per-plan observations flushing into the fleet's wisdom."""

import numpy as np
import pytest

from repro.serve import ServeClient, ServeConfig
from repro.shard import ShardFleet, ShardRouter
from repro.wisdom import Wisdom


@pytest.fixture(scope="module")
def tier(tmp_path_factory):
    wpath = tmp_path_factory.mktemp("wisdom") / "fleet.json"
    cfg = ServeConfig(window_s=0.0, wisdom_path=str(wpath))
    with ShardFleet(1, cfg) as fleet:
        router = ShardRouter(("127.0.0.1", 0), fleet)
        router.serve_background()
        try:
            yield fleet, router, wpath
        finally:
            router.close()


def test_stats_expose_and_flush_per_plan_latency(tier):
    _, router, wpath = tier
    x = np.random.default_rng(0).standard_normal(64) + 0j
    with ServeClient("127.0.0.1", router.port) as c:
        for _ in range(5):
            np.testing.assert_allclose(
                c.fft_retry(x), np.fft.fft(x), atol=1e-6
            )
        stats = c.stats()
    r = stats["router"]
    assert "64:1:4:balanced:numpy" in r["per_plan_latency"]
    assert r["per_plan_latency"]["64:1:4:balanced:numpy"]["requests"] == 5
    assert r["wisdom_flushed"] == 1
    # the observation reached the shared wisdom file, attributed to the
    # lane the fleet actually runs
    obs = Wisdom(wpath).observation(64, 1, 4, "numpy", "sequential")
    assert obs is not None and obs["requests"] == 5


def test_flush_window_drains_but_cumulative_stays(tier):
    _, router, wpath = tier
    x = np.random.default_rng(1).standard_normal(128) + 0j
    with ServeClient("127.0.0.1", router.port) as c:
        for _ in range(3):
            c.fft_retry(x)
        first = c.stats()["router"]
        second = c.stats()["router"]
    # cumulative per-plan summary survives the wisdom flush...
    assert first["per_plan_latency"]["128:1:4:balanced:numpy"]["requests"] == 3
    assert second["per_plan_latency"]["128:1:4:balanced:numpy"]["requests"] == 3
    # ...while the flush window drained on the first stats poll
    assert second["wisdom_flushed"] == 0


def test_a_flush_of_many_keys_rewrites_the_file_once(tier, wisdom_saves):
    _, router, wpath = tier
    with ServeClient("127.0.0.1", router.port) as c:
        for n in (16, 32, 256):
            c.fft_retry(np.random.default_rng(n).standard_normal(n) + 0j)
        assert c.stats()["router"]["wisdom_flushed"] == 3
        assert c.stats()["router"]["wisdom_flushed"] == 0
    assert wisdom_saves == [wpath]


def test_router_without_wisdom_never_flushes():
    with ShardFleet(1, ServeConfig(window_s=0.0)) as fleet:
        router = ShardRouter(("127.0.0.1", 0), fleet)
        router.serve_background()
        try:
            x = np.random.default_rng(2).standard_normal(64) + 0j
            with ServeClient("127.0.0.1", router.port) as c:
                c.fft_retry(x)
                stats = c.stats()
            assert stats["router"]["wisdom_flushed"] == 0
            assert "64:1:4:balanced:numpy" in \
                stats["router"]["per_plan_latency"]
        finally:
            router.close()


def test_router_and_tuning_shards_share_one_file(tmp_path):
    """Three processes write one wisdom path — two shards' tuners and the
    router's flush — and every writer's observations survive."""
    import json
    import time

    wpath = tmp_path / "fleet.json"
    cfg = ServeConfig(window_s=0.0, wisdom_path=str(wpath), tune=True,
                      tune_interval_s=0.05)
    count = 6
    with ShardFleet(2, cfg) as fleet:
        owners = {}
        for n in (16, 32, 64, 128, 256, 512, 1024):
            owners.setdefault(fleet.owner(fleet.route_key_for(n)), n)
        assert len(owners) == 2, "no two sizes with different owners"
        sizes = sorted(owners.values())
        router = ShardRouter(("127.0.0.1", 0), fleet)
        router.serve_background()
        try:
            with ServeClient("127.0.0.1", router.port) as c:
                for i in range(count):
                    rng = np.random.default_rng(i)
                    for n in sizes:
                        x = rng.standard_normal(n) + 0j
                        np.testing.assert_allclose(
                            c.fft_retry(x), np.fft.fft(x), atol=1e-6
                        )
                    c.stats()  # the router flushes while the shards tick
        finally:
            router.close()

        # each request was observed twice on its lane: by the router and
        # by the owning shard's tuner
        def requests(n):
            obs = Wisdom(wpath).observation(n, 1, 4, "numpy", "sequential")
            return obs["requests"] if obs else 0

        deadline = time.monotonic() + 15
        while (time.monotonic() < deadline
               and any(requests(n) < 2 * count for n in sizes)):
            time.sleep(0.05)
    assert [requests(n) for n in sizes] == [2 * count] * len(sizes)
    assert set(json.loads(wpath.read_text())) == {
        f"dft:{n}:p1:mu4" for n in sizes
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fleet.json", "fleet.json.lock"
    ]
