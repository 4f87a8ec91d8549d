"""Shard loadgen: the report contract and the chaos kill lane."""

import time

import numpy as np

from repro.loadgen import ShardLoadgenConfig, render_shard_report, \
    run_shard_loadgen
from repro.loadgen import _shard_phase as _drive
from repro.serve import ServeConfig
from repro.shard import ShardFleet, ShardRouter


def _cfg(**kw):
    base = dict(
        shards=2,
        sizes=[64, 128, 256, 512],
        clients=2,
        requests=12,
        pipeline=4,
        output=None,
        baseline=False,
        verify="all",
        seed=11,
    )
    base.update(kw)
    return ShardLoadgenConfig(**base)


class TestShardLoadgen:
    def test_report_contract(self, tmp_path):
        out = tmp_path / "BENCH_shard.json"
        report = run_shard_loadgen(_cfg(output=str(out)))
        m = report["measured"]
        assert m["requests"] == 2 * 12
        assert m["lost"] == 0
        assert m["throughput_rps"] > 0
        for q in ("p50_ms", "p95_ms", "p99_ms"):
            assert m["latency"][q] >= 0.0
        # per-shard percentiles recorded for every shard that served
        assert m["per_shard_latency"]
        for summary in m["per_shard_latency"].values():
            assert {"requests", "p50_ms", "p95_ms", "p99_ms"} <= \
                set(summary)
        assert report["config"]["shards"] == 2
        assert report["host"]["cpu_count"] >= 1
        assert out.exists()
        text = render_shard_report(report)
        assert "repro loadgen --shards 2" in text
        assert "0 lost" in text

    def test_baseline_and_speedup_fields(self):
        report = run_shard_loadgen(
            _cfg(baseline=True, requests=8, verify="first")
        )
        assert report["baseline_one_shard"] is not None
        assert isinstance(report["speedup_shards_vs_one"], float)
        assert "one shard" in render_shard_report(report)

    def test_chaos_kill_lane_loses_nothing(self):
        report = run_shard_loadgen(
            _cfg(requests=20, pipeline=8, kill_after_s=0.05)
        )
        m = report["measured"]
        assert m["lost"] == 0            # zero lost acknowledged requests
        assert m["completed"] == m["requests"]
        assert m["killed_shard"] is not None
        # the ejection is visible in fleet accounting
        assert m["fleet_counters"]["ejections"] >= 1
        assert "chaos: killed" in render_shard_report(report)

    def test_kill_landing_after_the_run_is_still_reported(self):
        """A run that beats the kill timer must wait for the kill (sleep
        plus the kill itself) before reporting, not just ``kill_after_s``:
        otherwise it says ``killed_shard: null`` while the kill lands
        during teardown."""

        class SlowKillFleet:
            def kill_shard(self):
                time.sleep(0.4)
                return "shard-late"

        cfg = _cfg(shards=1, sizes=[64], clients=1, requests=2, pipeline=1)
        with ShardFleet(1, ServeConfig()) as fleet:
            router = ShardRouter(("127.0.0.1", 0), fleet)
            router.serve_background()
            try:
                m = _drive(router, cfg, SlowKillFleet(), kill_after_s=0.05)
            finally:
                router.close()
        assert m["lost"] == 0
        assert m["killed_shard"] == "shard-late"
