"""Tests for the SMP runtimes (sequential, pthreads pool) and make_runtime."""

import threading
import time

import numpy as np
import pytest

from repro.codegen import generate
from repro.rewrite import derive_multicore_ct, expand_dft
from repro.sigma import lower
from repro.hunt import ExecutorPools
from repro.mp import ProcessPoolRuntime
from repro.smp import (
    PlanStage,
    PThreadsRuntime,
    SequentialRuntime,
    make_runtime,
)
from repro.smp.runtime import RUNTIME_NAMES, WorkerPoolBroken
from tests.conftest import random_vector


def make_plan(n=256, p=2, mu=4, leaf=16):
    f = expand_dft(derive_multicore_ct(n, p, mu), "balanced", min_leaf=leaf)
    return generate(lower(f))


def make_mixed_plan(copy_procs=None):
    """six_step(8, 8) without merging: sequential transpose/twiddle passes."""
    from repro.rewrite import six_step

    return generate(
        lower(
            six_step(8, 8),
            merge_permutations=False,
            merge_diagonals=False,
            copy_procs=copy_procs,
        )
    )


class TestSequentialRuntime:
    def test_executes_all_proc_shares(self, rng):
        gen = make_plan()
        x = random_vector(rng, 256)
        np.testing.assert_allclose(gen.run(x), np.fft.fft(x), atol=1e-7)

    def test_stats(self, rng):
        gen = make_plan()
        out, stats = gen.run_with_stats(
            random_vector(rng, 256), SequentialRuntime()
        )
        assert stats.parallel_stages == len(gen.stages)

    def test_no_synchronization_ever(self, rng):
        """One thread synchronizes with nobody: barriers are 0."""
        for gen in (make_plan(), make_mixed_plan(), make_mixed_plan(2)):
            _, stats = gen.run_with_stats(
                random_vector(rng, gen.size), SequentialRuntime()
            )
            assert stats.barriers == 0


class TestPThreadsRuntime:
    @pytest.mark.parametrize("n,p,mu,leaf", [(256, 2, 4, 16), (1024, 4, 4, 8)])
    def test_correct(self, rng, n, p, mu, leaf):
        gen = make_plan(n, p, mu, leaf)
        x = random_vector(rng, n)
        with PThreadsRuntime(p) as rt:
            out, _ = gen.run_with_stats(x, rt)
        np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-6)

    def test_pool_is_reusable(self, rng):
        gen = make_plan()
        with PThreadsRuntime(2) as rt:
            for _ in range(5):
                x = random_vector(rng, 256)
                out, _ = gen.run_with_stats(x, rt)
                np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-7)

    def test_barriers_skipped_for_local_stages(self, rng):
        gen = make_plan(256, 2, 4, 16)  # has one elided barrier
        elided = sum(1 for s in gen.stages if not s.needs_barrier)
        assert elided >= 1
        with PThreadsRuntime(2) as rt:
            _, stats = gen.run_with_stats(random_vector(rng, 256), rt)
        # barriers = required stage barriers + final rendezvous; strictly
        # fewer than (stages + 1) when elision kicked in
        assert stats.barriers <= len(gen.stages)

    def test_worker_exception_propagates(self):
        def boom(proc, src, dst):
            raise RuntimeError("kernel failed")

        stage = PlanStage(work=boom, parallel=True, needs_barrier=True, nprocs=2)
        rt = PThreadsRuntime(2)
        with pytest.raises(RuntimeError, match="kernel failed"):
            rt.execute([stage], np.zeros(4, dtype=complex), 4)
        # whichever side of the stage barrier the failure broke, no worker
        # stays parked at the job rendezvous for close() to time out on
        t0 = time.perf_counter()
        rt.close()
        assert time.perf_counter() - t0 < 1.0
        assert not any(t.is_alive() for t in rt._threads)

    def test_worker_only_exception_strands_nobody(self):
        """The worker alone fails, while the master is still inside the
        stage barrier's wait: the master sees a broken barrier, skips the
        rendezvous the worker is parked at, and must release it."""
        def boom_on_worker(proc, src, dst):
            if proc == 1:
                raise RuntimeError("kernel failed")
            time.sleep(0.05)

        stages = [PlanStage(work=boom_on_worker, parallel=True,
                            needs_barrier=True, nprocs=2)] * 2
        rt = PThreadsRuntime(2)
        with pytest.raises(RuntimeError, match="kernel failed"):
            rt.execute(stages, np.zeros(4, dtype=complex), 4)
        assert not rt.healthy
        with pytest.raises(WorkerPoolBroken):
            rt.execute(stages, np.zeros(4, dtype=complex), 4)
        t0 = time.perf_counter()
        rt.close()
        assert time.perf_counter() - t0 < 1.0
        assert not any(t.is_alive() for t in rt._threads)

    def test_master_role_may_pass_between_threads(self, rng):
        """Every job submitted from a fresh thread, as a service's baton
        hands the pool from one connection's thread to another's: the
        barrier must not remember which thread arrived before (a
        thread-local sense put the pool out of lockstep and hung it)."""
        gen = make_plan(256, 2, 4, 16)
        xs = [random_vector(rng, 256) for _ in range(200)]
        outs: list = []

        def one(x):
            outs.append(gen.run_with_stats(x, rt)[0])

        def jobs():
            for x in xs:
                t = threading.Thread(target=one, args=(x,))
                t.start()
                t.join()

        with PThreadsRuntime(2) as rt:
            driver = threading.Thread(target=jobs, daemon=True)
            driver.start()
            driver.join(timeout=60)
            assert not driver.is_alive(), f"hung after {len(outs)} jobs"
        assert len(outs) == len(xs)
        for x, y in zip(xs, outs):
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-7)

    def test_rejects_oversized_plan(self):
        stage = PlanStage(
            work=lambda *a: None, parallel=True, needs_barrier=True, nprocs=4
        )
        with PThreadsRuntime(2) as rt:
            with pytest.raises(ValueError, match="processors"):
                rt.execute([stage], np.zeros(4, dtype=complex), 4)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            PThreadsRuntime(0)


class TestCrossRuntimeAgreement:
    @pytest.mark.parametrize("n,p,mu,leaf", [(256, 2, 4, 8), (576, 2, 2, 8)])
    def test_all_runtimes_agree(self, rng, n, p, mu, leaf):
        gen = make_plan(n, p, mu, leaf)
        x = random_vector(rng, n)
        seq = gen.run(x, SequentialRuntime())
        with PThreadsRuntime(p) as rt:
            pth = gen.run(x, rt)
        np.testing.assert_allclose(seq, pth, atol=1e-9)

    def test_sequential_stage_in_plan(self, rng):
        """Plans with explicit sequential passes run on every runtime."""
        from repro.rewrite import six_step

        prog = lower(
            six_step(8, 8), merge_permutations=False, merge_diagonals=False
        )
        gen = generate(prog)
        x = random_vector(rng, 64)
        want = np.fft.fft(x)
        np.testing.assert_allclose(gen.run(x), want, atol=1e-7)
        with PThreadsRuntime(2) as rt:
            np.testing.assert_allclose(gen.run(x, rt), want, atol=1e-7)


class TestMakeRuntime:
    CLASSES = {
        "sequential": SequentialRuntime,
        "pthreads": PThreadsRuntime,
        "threads": PThreadsRuntime,
        "process": ProcessPoolRuntime,
    }

    @pytest.mark.parametrize("threads", [0, 1, 2])
    @pytest.mark.parametrize("name", RUNTIME_NAMES)
    def test_each_name_gives_its_class(self, name, threads):
        """``threads <= 1`` is sequential whatever the name."""
        with make_runtime(name, threads) as rt:
            want = SequentialRuntime if threads <= 1 else self.CLASSES[name]
            assert type(rt) is want
            assert rt.p == (1 if want is SequentialRuntime else threads)

    @pytest.mark.parametrize("name", ["thread", "openmp", "bogus"])
    def test_unknown_name_raises(self, name):
        with pytest.raises(ValueError, match="expected one of"):
            make_runtime(name, 2)

    def test_executor_pools_refuse_unknown_names(self):
        pools = ExecutorPools()
        try:
            pools.get("pthreads", 2)
            # a cached thread pool on the same lane must not answer for it
            with pytest.raises(ValueError, match="bogus"):
                pools.get("bogus", 2)
        finally:
            pools.close()
