"""Serving on the multiprocess backend: ``ServeConfig(runtime="process")``.

The service must behave identically whether batches execute on GIL-bound
thread pools or on :class:`repro.mp.ProcessPoolRuntime` — same answers,
same supervisor failover on a broken pool — because the two runtimes share
one health contract.
"""

import sys

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.mp import ProcessPoolRuntime
from repro.serve import FFTService, ServeConfig
from repro.serve.server import FFTServer


def _vec(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestProcessBackedService:
    def test_single_vector_roundtrip(self):
        cfg = ServeConfig(threads=2, runtime="process", window_s=0.0)
        with FFTService(cfg) as svc:
            x = _vec(256)
            y = svc.transform(x)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-8)

    def test_batched_stack(self):
        cfg = ServeConfig(threads=2, runtime="process", window_s=0.0)
        with FFTService(cfg) as svc:
            X = np.stack([_vec(1024, s) for s in range(5)])
            Y = svc.transform(X)
            np.testing.assert_allclose(Y, np.fft.fft(X, axis=-1), atol=1e-8)

    @pytest.mark.parametrize("with_wisdom", [False, True])
    def test_pool_runs_the_cached_plan(self, with_wisdom, tmp_path):
        """The process lane goes through the PlanCache like every other:
        a prewarmed key is a cache hit, and the plan is spec-built (never
        a wisdom tree, which workers could not rebuild)."""
        cfg = ServeConfig(
            threads=2, runtime="process", window_s=0.0,
            wisdom_path=str(tmp_path / "w.json") if with_wisdom else None,
        )
        with FFTService(cfg) as svc:
            svc.prewarm(256)
            x = _vec(256)
            np.testing.assert_allclose(
                svc.transform(x), np.fft.fft(x), atol=1e-8
            )
            cache = svc.stats()["plan_cache"]
            assert cache["hits"] >= 1 and cache["plans_built"] == 1
            assert all(
                svc.plans.get(k).spec is not None for k in svc.plans.keys()
            )
            assert svc.health()["counters"]["failures"] == 0

    def test_pools_are_process_pools(self):
        cfg = ServeConfig(threads=2, runtime="process", window_s=0.0)
        with FFTService(cfg) as svc:
            svc.transform(_vec(256))
            assert any(
                isinstance(rt, ProcessPoolRuntime)
                for rt in svc._runtimes.values()
            )

    def test_segments_released_on_close(self):
        from repro.mp import segment_stats

        cfg = ServeConfig(threads=2, runtime="process", window_s=0.0)
        svc = FFTService(cfg)
        svc.transform(_vec(256))
        svc.close()
        stats = segment_stats()
        assert stats["created"] - stats["unlinked"] == stats["live"]

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ValueError, match="unknown runtime"):
            FFTService(ServeConfig(runtime="bogus"))


class TestFailover:
    def test_worker_crash_fails_over_to_fallback(self):
        """A broken process pool must not fail the request: the batch
        reruns on the sequential fallback and the supervisor counts it."""
        cfg = ServeConfig(threads=2, runtime="process", window_s=0.0)
        with FFTService(cfg) as svc:
            x = _vec(256, seed=3)
            svc.transform(x)  # warm pool + plan
            with fault_plan(
                FaultPlan([FaultSpec("mp.worker_crash", max_fires=1)])
            ):
                y = svc.transform(x)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-8)
            assert svc.health()["counters"]["failovers"] >= 1


class TestServerTuning:
    def test_server_sets_switch_interval(self):
        """Embedding FFTServer tunes the GIL switch interval (moved out of
        the CLI so every embedder benefits)."""
        old = sys.getswitchinterval()
        sys.setswitchinterval(0.005)
        try:
            svc = FFTService(ServeConfig(window_s=0.0))
            srv = FFTServer(("127.0.0.1", 0), svc)
            try:
                assert sys.getswitchinterval() == pytest.approx(0.0005)
            finally:
                srv.server_close()
                svc.close()
        finally:
            sys.setswitchinterval(old)
