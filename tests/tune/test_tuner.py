"""The online Tuner against a real FFTService: observe, retune, swap."""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.faults import fault_plan, parse_chaos_spec
from repro.serve.plan_cache import PlanKey
from repro.serve.service import FFTService, ServeConfig
from repro.tune import Tuner, TunerConfig
from repro.wisdom import Wisdom


@pytest.fixture
def service():
    svc = FFTService(ServeConfig(max_batch=16))
    yield svc
    svc.close()


def _drive(svc, n=64, count=20):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for _ in range(count):
        y = svc.submit(x).result(timeout=10)
        np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)


class TestWindowOwnership:
    """The observation window exists once something drains it."""

    def test_untuned_service_holds_no_window(self, service):
        _drive(service, count=8)
        assert service.tune_window is None

    def test_late_tuner_sees_every_later_request_once(self, service):
        _drive(service, count=5)  # before anyone listens: not retained
        tuner = Tuner(service, TunerConfig())
        _drive(service, count=8)
        key = PlanKey(64, 1, 4, service.config.strategy)
        assert service.tune_window.counts() == {key: 8}
        tuner.tick()
        assert tuner.snapshot()["windows_observed"] == 1
        assert service.tune_window.counts() == {}

    def test_configured_tuner_owns_the_window_from_the_start(self):
        with FFTService(ServeConfig(tune=True,
                                    tune_interval_s=60.0)) as svc:
            _drive(svc, count=3)
            key = PlanKey(64, 1, 4, svc.config.strategy)
            assert svc.tune_window.counts() == {key: 3}


class TestTick:
    def test_tick_drains_window_and_counts(self, service):
        tuner = Tuner(service, TunerConfig())
        _drive(service, count=8)
        tuner.tick()
        snap = tuner.snapshot()
        assert snap["ticks"] == 1
        assert snap["windows_observed"] == 1
        # the window was drained: a second tick sees nothing
        tuner.tick()
        assert tuner.snapshot()["windows_observed"] == 1

    def test_a_tick_with_traffic_rewrites_the_wisdom_file_zero_times(
            self, service, tmp_path, wisdom_saves):
        """Observing is in memory: only a retune's ranking is written."""
        w = Wisdom(tmp_path / "w.json")
        tuner = Tuner(service, TunerConfig(min_requests=4), wisdom=w)
        for n in (64, 128, 256):
            _drive(service, n=n, count=4)
        assert tuner.tick() == []
        assert tuner.snapshot()["windows_observed"] == 3
        assert tuner.snapshot()["tracked_keys"] == 3
        assert wisdom_saves == [] and not w.path.exists()

    def test_a_forced_retune_rewrites_the_wisdom_file_once(
            self, service, tmp_path, wisdom_saves):
        w = Wisdom(tmp_path / "w.json")
        tuner = Tuner(service, TunerConfig(search_budget=2,
                                           search_repeats=1), wisdom=w)
        _drive(service, count=4)
        tuner.tick()
        assert tuner.retune(PlanKey(64, 1, 4, service.config.strategy))
        assert wisdom_saves == [w.path]
        assert len(w.tuning(64, 1, 4, "numpy", "sequential")["ranking"]) == 2
        assert set(w.entry(64)) == {"tune"}
        assert set(w.entry(64)["tune"]) == {"version", "rankings"}

    def test_no_regression_below_min_requests(self, service):
        tuner = Tuner(service, TunerConfig(min_requests=1000))
        _drive(service, count=8)
        assert tuner.tick() == []
        assert tuner.snapshot()["tracked_keys"] == 0


class TestKnobs:
    """The tuner moves plans, never the service's batching config."""

    def test_window_respects_ceiling(self):
        """There is no batching window: ``window_s`` takes only 0.0, and a
        tuned service given any other value is refused before its tuner
        thread starts."""
        FFTService(ServeConfig(window_s=0.0)).close()
        before = threading.active_count()
        for window_s in (0.001, 5.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="window_s"):
                FFTService(ServeConfig(window_s=window_s, tune=True,
                                       tune_interval_s=0.01))
        assert threading.active_count() == before

    def test_no_target_no_adjustment(self, service):
        before = dataclasses.replace(service.config)
        tuner = Tuner(service, TunerConfig())
        _drive(service, count=8)
        tuner.tick()
        assert service.config == before
        assert "knob_adjustments" not in tuner.snapshot()


class TestRetune:
    def test_retune_commits_a_runnable_plan(self, service):
        tuner = Tuner(service, TunerConfig(search_budget=2,
                                           search_repeats=1))
        _drive(service, count=4)  # populate the cache
        key = PlanKey(64, 1, 4, service.config.strategy)
        assert tuner.retune(key) is True
        snap = tuner.snapshot()
        assert snap["retunes"] == 1 and snap["swaps"] == 1
        assert service.plans.stats["swaps"] == 1
        _drive(service, count=4)  # the swapped plan still answers correctly

    def test_retune_reaches_the_process_pool(self, monkeypatch):
        """runtime="process": the pool runs the plan the cache holds, so a
        committed swap changes the spec its workers receive."""
        from repro.mp import ProcessPoolRuntime

        shipped = []
        walk = ProcessPoolRuntime._walk

        def spy(self, stages, flat, spec):
            shipped.append(spec)
            return walk(self, stages, flat, spec)

        monkeypatch.setattr(ProcessPoolRuntime, "_walk", spy)
        cfg = ServeConfig(threads=2, runtime="process")
        with FFTService(cfg) as svc:
            tuner = Tuner(svc, TunerConfig(search_budget=2,
                                           search_repeats=1))
            _drive(svc, n=256, count=2)
            key = PlanKey(256, 2, 4, svc.config.strategy)
            before = svc.plans.get(key)
            assert shipped[-1] is before.spec
            assert tuner.retune(key) is True
            after = svc.plans.get(key)
            assert after is not before and after.spec is not None
            _drive(svc, n=256, count=2)  # still matches np.fft
            assert shipped[-1] is after.spec
            assert svc.stats()["plan_cache"]["swaps"] == 1

    def test_swap_corrupt_degrades_gracefully(self, service):
        tuner = Tuner(service, TunerConfig(search_budget=1,
                                           search_repeats=1))
        _drive(service, count=4)
        key = PlanKey(64, 1, 4, service.config.strategy)
        with fault_plan(parse_chaos_spec("tune.swap_corrupt:1.0")):
            assert tuner.retune(key) is False
        snap = tuner.snapshot()
        assert snap["swap_failures"] == 1 and snap["swaps"] == 0
        assert service.plans.stats["swaps"] == 0
        _drive(service, count=4)  # the old plan keeps serving


class TestTickErrors:
    def test_a_failing_tick_is_counted_and_serving_continues(
            self, service, monkeypatch):
        """A tuner whose every retune raises used to look idle: the loop
        swallowed the error into a tracer-only counter."""
        def broken(*a, **kw):
            raise RuntimeError("search exploded")

        monkeypatch.setattr("repro.tune.tuner.measured_search", broken)
        tuner = Tuner(service, TunerConfig(interval_s=0.01, min_requests=1))
        service.tuner = tuner  # stats() reports it; close() stops it
        key = PlanKey(64, 1, 4, service.config.strategy)
        tuner._best_p50[key] = 1e-9  # any window now reads as regressed
        _drive(service, count=4)
        tuner.start()
        deadline = time.monotonic() + 5.0
        while (not tuner.snapshot()["tick_errors"]
               and time.monotonic() < deadline):
            time.sleep(0.01)
        tuner.close()
        snap = service.stats()["tuner"]
        assert snap["tick_errors"] == 1 and snap["retunes"] == 1
        assert snap["swaps"] == 0
        _drive(service, count=4)  # the cached plan keeps serving


class TestServiceIntegration:
    def test_service_runs_tuner_when_configured(self):
        svc = FFTService(ServeConfig(tune=True, tune_interval_s=0.01))
        try:
            assert svc.tuner is not None
            _drive(svc, count=8)
            stats = svc.stats()
            assert stats["tuner"] is not None
            assert "n64:t1:mu4:balanced" in stats["per_plan_latency"]
            assert stats["config"]["tune"] is True
        finally:
            svc.close()

    def test_tuner_absent_by_default(self, service):
        assert service.tuner is None
        assert service.stats()["tuner"] is None
