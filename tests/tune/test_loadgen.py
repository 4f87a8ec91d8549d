"""The loadgen --tune lane end to end (short windows; smoke-sized)."""

import json
import threading
import time

import pytest

import repro.loadgen as lg
from repro.loadgen import TuneLoadgenConfig, render_tune_report, \
    run_tune_loadgen


def _short_cfg(tmp_path, **kw):
    base = dict(
        sizes=(64,),
        clients=1,
        pipeline=4,
        windows=2,
        window_duration_s=0.25,
        tune_interval_s=0.05,
        swap_window=1,
        output=str(tmp_path / "BENCH_tune.json"),
    )
    base.update(kw)
    return TuneLoadgenConfig(**base)


class TestTuneLoadgen:
    def test_clean_lane_is_lossless_and_reports(self, tmp_path):
        cfg = _short_cfg(tmp_path)
        report = run_tune_loadgen(cfg)
        integ = report["integrity"]
        assert integ["lost"] == 0
        assert integ["corrupt"] == 0
        assert integ["acknowledged"] > 0
        assert len(report["windows"]) == 2
        for win in report["windows"]:
            assert win["requests"] > 0
            assert win["p99_ms"] > 0 and win["throughput_rps"] > 0
        # the forced swap ran under live traffic
        forced = report["forced_retunes"]
        assert forced["attempted"] >= 1
        assert forced["committed"] + report["tuner"]["swaps_deferred"] >= 1
        # report landed on disk
        on_disk = json.loads((tmp_path / "BENCH_tune.json").read_text())
        assert on_disk["integrity"]["lost"] == 0
        # render shape
        text = render_tune_report(report)
        assert "tuner:" in text and "integrity:" in text

    def test_chaos_swap_corrupt_degrades_gracefully(self, tmp_path):
        cfg = _short_cfg(tmp_path, chaos="tune.swap_corrupt:1.0")
        report = run_tune_loadgen(cfg)
        integ = report["integrity"]
        # every swap died mid-commit...
        assert report["tuner"]["swap_failures"] >= 1
        assert report["tuner"]["swaps"] == 0
        assert report["forced_retunes"]["committed"] == 0
        # ...and not one acknowledged request was lost or wrong
        assert integ["lost"] == 0
        assert integ["corrupt"] == 0
        assert integ["acknowledged"] > 0

    def test_worker_that_never_stops_is_not_a_clean_run(self, tmp_path,
                                                        monkeypatch):
        """A worker stuck past the join timeout has acknowledged nothing
        and reported nothing: that is lost traffic and an error, not OK."""
        from repro.serve import RemoteError

        release = threading.Event()

        class StuckClient(lg.ServeClient):
            def fft_pipeline(self, xs, **kw):
                release.wait(30)
                raise RemoteError("closed", "test over")

        monkeypatch.setattr(lg, "ServeClient", StuckClient)
        monkeypatch.setattr(lg, "_JOIN_TIMEOUT_S", 0.2)
        try:
            report = run_tune_loadgen(
                _short_cfg(tmp_path, windows=1, swap_window=-1)
            )
        finally:
            release.set()
        integ = report["integrity"]
        assert integ["lost"] > 0
        assert any("still running" in e for e in integ["errors"])
        assert "BAD" in render_tune_report(report)

    def test_swap_window_throughput_uses_the_measured_duration(
            self, tmp_path, monkeypatch):
        """The forced retune runs inside its window, so that window is
        longer than nominal by the whole search."""
        from repro.tune import Tuner

        def slow_retune(self, key):
            time.sleep(0.3)
            return False

        monkeypatch.setattr(Tuner, "retune", slow_retune)
        report = run_tune_loadgen(_short_cfg(tmp_path))
        plain, swap = report["windows"]
        assert swap["duration_s"] >= 0.25 + 0.3
        assert swap["duration_s"] > plain["duration_s"] + 0.2
        for win in (plain, swap):
            assert win["throughput_rps"] == pytest.approx(
                win["requests"] / win["duration_s"]
            )
