"""ProcessPoolRuntime: correctness, barrier elision, buffers, input checks."""

import dataclasses

import numpy as np
import pytest

from repro.mp import PlanSpec, ProcessPoolRuntime, compile_spec
from repro.serve.plan_cache import build_plan
from repro.smp import OpenMPRuntime, PThreadsRuntime, SequentialRuntime


@pytest.fixture(scope="module")
def pool2():
    rt = ProcessPoolRuntime(2)
    yield rt
    rt.close()


@pytest.fixture(scope="module")
def pool1():
    rt = ProcessPoolRuntime(1)
    yield rt
    rt.close()


@pytest.fixture(scope="module")
def runtimes(pool2):
    rts = {
        "sequential": SequentialRuntime(),
        "pthreads": PThreadsRuntime(2),
        "openmp": OpenMPRuntime(2),
        "process": pool2,
    }
    yield rts
    rts["pthreads"].close()


@pytest.fixture(scope="module")
def plan2():
    """One record from the one builder, run by every runtime below."""
    return build_plan(PlanSpec.for_request(1024, threads=2))


KINDS = ["sequential", "pthreads", "openmp", "process"]


class TestRunContract:
    """``rt.run(plan, X)`` means the same thing on all four runtimes."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_plan_same_answer(self, kind, runtimes, plan2, rng):
        rt = runtimes[kind]
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        y, stats = rt.run(plan2, x)
        assert y.shape == (1024,)
        np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-10, rtol=0)
        X = np.stack([x, 2 * x, x[::-1]])
        Y, _ = rt.run(plan2, X)
        assert Y.shape == X.shape
        np.testing.assert_allclose(
            Y, np.fft.fft(X, axis=-1), atol=1e-10, rtol=0
        )
        assert stats.parallel_stages + stats.sequential_stages == len(
            plan2.stages
        )
        assert rt.healthy

    def test_thread_and_process_pools_synchronize_alike(
        self, runtimes, plan2, rng
    ):
        """One lockstep walk: the two pools execute the same barriers."""
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        _, threads = runtimes["pthreads"].run(plan2, x)
        _, procs = runtimes["process"].run(plan2, x)
        assert threads.barriers == procs.barriers > 0
        assert threads == procs

    @pytest.mark.parametrize("kind", KINDS)
    def test_spec_less_plan_needs_an_in_process_runtime(
        self, kind, runtimes, plan2
    ):
        bare = dataclasses.replace(plan2, spec=None)
        x = np.ones(1024, complex)
        if runtimes[kind].needs_spec:
            assert kind == "process"
            with pytest.raises(TypeError, match="PlanSpec"):
                runtimes[kind].run(bare, x)
        else:
            y, _ = runtimes[kind].run(bare, x)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_wrong_length_rejected(self, kind, runtimes, plan2):
        with pytest.raises(ValueError, match="expected"):
            runtimes[kind].run(plan2, np.zeros(100, complex))


class TestCorrectness:
    def test_single_vector(self, pool2, rng):
        spec = PlanSpec.for_request(1024, threads=2)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        y, stats = pool2.execute_spec(spec, x)
        np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-10, rtol=0)
        assert y.shape == (1024,)
        assert stats.parallel_stages > 0

    def test_batched_stack(self, pool2, rng):
        spec = PlanSpec.for_request(256, threads=2)
        X = rng.standard_normal((6, 256)) + 1j * rng.standard_normal((6, 256))
        Y, _ = pool2.execute_spec(spec, X)
        np.testing.assert_allclose(
            Y, np.fft.fft(X, axis=-1), atol=1e-10, rtol=0
        )
        assert Y.shape == X.shape

    def test_repeated_executions_stay_correct(self, pool2, rng):
        """Pooled double buffers are reused across calls without bleed."""
        spec = PlanSpec.for_request(256, threads=2)
        for _ in range(4):
            x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
            y, _ = pool2.execute_spec(spec, x)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-10, rtol=0)

    def test_worker_less_pool(self, pool1, rng):
        """p=1 runs the same code path with no barrier and no workers."""
        spec = PlanSpec.for_request(512, threads=1)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        y, stats = pool1.execute_spec(spec, x)
        np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-10, rtol=0)
        assert stats.barriers == 0

    def test_spawn_start_method(self, rng):
        """One spawn-mode pool: fresh interpreters compile the spec too."""
        rt = ProcessPoolRuntime(2, start_method="spawn")
        try:
            spec = PlanSpec.for_request(256, threads=2)
            x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
            y, _ = rt.execute_spec(spec, x)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-10, rtol=0)
        finally:
            rt.close()


class TestBarrierElision:
    def test_barrier_free_stages_skip_the_barrier(self, pool2, rng):
        """Stages the generator proved processor-local synchronize nowhere:
        the barrier count must undercut the stage count."""
        spec = PlanSpec.for_request(1024, threads=2)
        stages = compile_spec(spec).stages
        elidable = sum(
            1 for s in stages if s.parallel and not s.needs_barrier
        )
        assert elidable > 0, "plan has no barrier-free stages to elide"
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        _, stats = pool2.execute_spec(spec, x)
        assert 0 < stats.barriers < len(stages) + 1


class TestInputValidation:
    def test_execute_closures_rejected(self, pool2):
        with pytest.raises(TypeError, match="execute_spec"):
            pool2.execute([], np.zeros(4, complex), 4)

    def test_oversized_spec_rejected(self, pool2):
        spec = PlanSpec(n=4096, threads=4)
        with pytest.raises(ValueError, match="processors"):
            pool2.execute_spec(spec, np.zeros(4096, complex))

    def test_wrong_length_rejected(self, pool2):
        spec = PlanSpec.for_request(256, threads=2)
        with pytest.raises(ValueError, match="expected"):
            pool2.execute_spec(spec, np.zeros(100, complex))

    def test_bad_pool_size_rejected(self):
        with pytest.raises(ValueError, match="p >= 1"):
            ProcessPoolRuntime(0)


class TestBufferPool:
    def test_buffers_pooled_per_size(self, pool2, rng):
        spec = PlanSpec.for_request(256, threads=2)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        pool2.execute_spec(spec, x)
        before = pool2.segments_active
        pool2.execute_spec(spec, x)  # same flat size: no new segments
        assert pool2.segments_active == before

    def test_distinct_sizes_get_distinct_buffers(self, pool2, rng):
        spec = PlanSpec.for_request(256, threads=2)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        pool2.execute_spec(spec, x)
        before = pool2.segments_active
        X = np.stack([x, x])  # flat size 512: one new (src, dst) pair
        pool2.execute_spec(spec, X)
        assert pool2.segments_active == before + 2
