"""Serving on the multiprocess backend: ``ServeConfig(runtime="process")``.

The service must behave identically whether batches execute on GIL-bound
thread pools or on :class:`repro.mp.ProcessPoolRuntime` — same answers,
same supervisor failover on a broken pool — because the two runtimes share
one health contract.
"""

import contextlib
import sys

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.mp import ProcessPoolRuntime
from repro.serve import FFTService, ServeConfig
from repro.serve.server import FFTServer
from repro.smp import make_runtime
from repro.wisdom import Wisdom


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
        a prewarmed key is a cache hit, and every plan carries the spec
        its workers rebuild it from."""
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

    def test_both_pool_kinds_build_the_same_plan_from_one_file(
        self, tmp_path
    ):
        """A threads-backed and a process-backed service given one wisdom
        file build the same effective spec and walk it identically."""
        path = tmp_path / "w.json"
        best = {"strategy": "radix2", "min_leaf": 16, "nu": 1}
        Wisdom(path).record_tuning(
            256, 2, 4, "numpy", "sequential", {"best": best}
        )
        built = {}
        for runtime in ("threads", "process"):
            cfg = ServeConfig(threads=2, runtime=runtime, window_s=0.0,
                              wisdom_path=str(path))
            with FFTService(cfg) as svc:
                x = _vec(256)
                np.testing.assert_allclose(
                    svc.transform(x), np.fft.fft(x), atol=1e-8
                )
                plans = [svc.plans.get(k) for k in svc.plans.keys()]
                assert plans and all(p.spec is not None for p in plans)
                # a pool of the service's kind, but owned by this thread:
                # a pthreads pool's barrier sense is local to its master
                with contextlib.closing(make_runtime(runtime, 2)) as pool:
                    _, stats = pool.run(plans[0], x)
                built[runtime] = ([(p.key, p.spec) for p in plans], stats)
        assert built["threads"] == built["process"]
        (key, spec), = built["process"][0]
        assert (key.strategy, spec.strategy, spec.min_leaf) == (
            "balanced", "radix2", 16
        )

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
