"""A fleet sharing a wisdom file only reads it while it serves.

The router's per-plan latencies are for operators (``stats``); neither the
router nor a tuning shard writes what it observed into the file.
"""

import json
import time

import numpy as np
import pytest

from repro.serve import ServeClient, ServeConfig
from repro.shard import ShardFleet, ShardRouter
from repro.wisdom import TUNE_VERSION, Wisdom


@pytest.fixture(scope="module")
def tier(tmp_path_factory):
    wpath = tmp_path_factory.mktemp("wisdom") / "fleet.json"
    cfg = ServeConfig(wisdom_path=str(wpath))
    with ShardFleet(1, cfg) as fleet:
        router = ShardRouter(("127.0.0.1", 0), fleet)
        router.serve_background()
        try:
            yield fleet, router, wpath
        finally:
            router.close()


def test_stats_expose_and_flush_per_plan_latency(tier, wisdom_saves):
    """``stats`` exposes the per-plan latency; the poll flushes none of it
    into the wisdom file."""
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
    assert "wisdom_flushed" not in r
    assert "wisdom_flushes" not in r["counters"]
    assert wisdom_saves == [] and not wpath.exists()


def test_flush_window_drains_but_cumulative_stays(tier):
    """There is no flush window left to drain: the cumulative per-plan
    summary reads the same on a second poll."""
    _, router, wpath = tier
    x = np.random.default_rng(1).standard_normal(128) + 0j
    with ServeClient("127.0.0.1", router.port) as c:
        for _ in range(3):
            c.fft_retry(x)
        first = c.stats()["router"]
        second = c.stats()["router"]
    assert first["per_plan_latency"]["128:1:4:balanced:numpy"]["requests"] == 3
    assert second["per_plan_latency"]["128:1:4:balanced:numpy"]["requests"] == 3
    assert "wisdom_flushed" not in second
    assert not wpath.exists()


def test_a_stats_poll_after_many_keys_leaves_the_file_alone(
        tier, wisdom_saves):
    _, router, wpath = tier
    with ServeClient("127.0.0.1", router.port) as c:
        for n in (16, 32, 256):
            c.fft_retry(np.random.default_rng(n).standard_normal(n) + 0j)
        per_plan = c.stats()["router"]["per_plan_latency"]
        c.stats()
    for n in (16, 32, 256):
        assert per_plan[f"{n}:1:4:balanced:numpy"]["requests"] == 1
    assert wisdom_saves == [] and not wpath.exists()


def test_router_without_wisdom_never_flushes(wisdom_saves):
    with ShardFleet(1, ServeConfig()) as fleet:
        router = ShardRouter(("127.0.0.1", 0), fleet)
        router.serve_background()
        try:
            x = np.random.default_rng(2).standard_normal(64) + 0j
            with ServeClient("127.0.0.1", router.port) as c:
                c.fft_retry(x)
                stats = c.stats()
            assert "wisdom_flushed" not in stats["router"]
            assert "64:1:4:balanced:numpy" in \
                stats["router"]["per_plan_latency"]
        finally:
            router.close()
    assert wisdom_saves == []


def test_a_tuning_fleet_leaves_only_rankings_in_the_file(tmp_path):
    """``repro tune`` writes the file; two tuning shards and a polled
    router serve from it and leave it byte for byte as it was."""
    from repro.tune import measured_search

    wpath = tmp_path / "fleet.json"
    cfg = ServeConfig(wisdom_path=str(wpath), tune=True,
                      tune_interval_s=0.05)
    count = 6
    with ShardFleet(2, cfg) as fleet:
        owners = {}
        for n in (16, 32, 64, 128, 256, 512, 1024):
            owners.setdefault(fleet.owner(fleet.route_key_for(n)), n)
        assert len(owners) == 2, "no two sizes with different owners"
        sizes = sorted(owners.values())
        for n in sizes:
            measured_search(n, budget=2, repeats=1, wisdom=Wisdom(wpath))
        written = wpath.read_bytes()
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
                    c.stats()
                def ticks():
                    shards = c.stats()["shards"].values()
                    return min(s["tuner"]["ticks"] for s in shards)

                # let both shards' tuners tick over what they served
                seen = ticks()
                deadline = time.monotonic() + 5
                while ticks() < seen + 2 and time.monotonic() < deadline:
                    time.sleep(0.05)
        finally:
            router.close()
    assert wpath.read_bytes() == written
    stored = json.loads(written)
    assert set(stored) == {f"dft:{n}:p1:mu4" for n in sizes}
    for entry in stored.values():
        assert set(entry) == {"tune"}
        assert set(entry["tune"]) == {"version", "rankings"}
        assert entry["tune"]["version"] == TUNE_VERSION
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fleet.json", "fleet.json.lock"
    ]
