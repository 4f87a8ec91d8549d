"""End-to-end tests of the public frontend (spec -> running program)."""

import numpy as np
import pytest

from repro.frontend import (
    SpiralSMP,
    feasible_threads,
    generate_fft,
    spiral_formula,
    verify_program,
)
from repro.machine import SyncProfile, core_duo, opteron
from repro.smp import PThreadsRuntime
from tests.conftest import random_vector


class TestGenerateFFT:
    @pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096])
    def test_sequential(self, rng, n):
        gen = generate_fft(n)
        x = random_vector(rng, n)
        np.testing.assert_allclose(gen(x), np.fft.fft(x), atol=1e-6)

    @pytest.mark.parametrize("n,threads", [(256, 2), (1024, 2), (1024, 4)])
    def test_parallel(self, rng, n, threads):
        gen = generate_fft(n, threads=threads, mu=4)
        x = random_vector(rng, n)
        with PThreadsRuntime(threads) as rt:
            out = gen.run(x, rt)
        np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-6)

    def test_verify_helper(self):
        assert verify_program(generate_fft(64))

    @pytest.mark.parametrize("strategy", ["radix2", "radix-right", "balanced"])
    def test_strategies(self, rng, strategy):
        gen = generate_fft(256, strategy=strategy, min_leaf=8)
        x = random_vector(rng, 256)
        np.testing.assert_allclose(gen(x), np.fft.fft(x), atol=1e-6)

    def test_non_power_of_two(self, rng):
        gen = generate_fft(144, threads=2, mu=2)
        x = random_vector(rng, 144)
        np.testing.assert_allclose(gen(x), np.fft.fft(x), atol=1e-7)


class TestSpiralSMPPlanner:
    def test_plan_reports_threads_used(self):
        spec = opteron()
        spiral = SpiralSMP(spec)
        assert spiral.plan(1024, 4).threads == 4
        assert spiral.plan(64, 4).threads == 2  # 4-way infeasible at 64
        assert spiral.plan(32, 4).threads == 1

    def test_program_cache(self):
        spiral = SpiralSMP(core_duo())
        assert spiral.program(256, 2) is spiral.program(256, 2)
        spiral.clear_cache()
        assert (256, 2) not in spiral._programs

    def test_pseudo_mflops_positive(self):
        spiral = SpiralSMP(core_duo())
        assert spiral.pseudo_mflops(256, 1) > 0
        assert spiral.pseudo_mflops(256, 2) > 0

    def test_openmp_profile_slower_or_equal(self):
        spiral = SpiralSMP(core_duo())
        pth = spiral.cost(1024, 2, SyncProfile.POOLED).total_cycles
        omp = spiral.cost(1024, 2, SyncProfile.FORK_JOIN).total_cycles
        assert omp >= pth

    def test_formula_helper(self, rng):
        f = spiral_formula(256, 2, 4)
        x = random_vector(rng, 256)
        np.testing.assert_allclose(f.apply(x), np.fft.fft(x), atol=1e-7)


class TestFullPipelineAgainstOracles:
    """The whole stack against every oracle we have."""

    def test_against_naive_dft(self, rng):
        from repro.baselines import dft_naive

        gen = generate_fft(48, min_leaf=8)
        x = random_vector(rng, 48)
        np.testing.assert_allclose(gen(x), dft_naive(x), atol=1e-7)

    def test_against_iterative(self, rng):
        from repro.baselines import fft_iterative

        gen = generate_fft(512, threads=2)
        x = random_vector(rng, 512)
        np.testing.assert_allclose(gen(x), fft_iterative(x), atol=1e-6)

    def test_linearity_of_generated_program(self, rng):
        gen = generate_fft(256, threads=2)
        x, y = random_vector(rng, 256), random_vector(rng, 256)
        np.testing.assert_allclose(
            gen(2 * x + 3j * y), 2 * gen(x) + 3j * gen(y), atol=1e-6
        )

    def test_parseval(self, rng):
        gen = generate_fft(1024)
        x = random_vector(rng, 1024)
        X = gen(x)
        np.testing.assert_allclose(
            np.sum(np.abs(X) ** 2) / 1024, np.sum(np.abs(x) ** 2), rtol=1e-9
        )

    def test_impulse_response_is_flat(self):
        gen = generate_fft(64)
        e = np.zeros(64, dtype=complex)
        e[0] = 1.0
        np.testing.assert_allclose(gen(e), np.ones(64), atol=1e-9)

    def test_shift_theorem(self, rng):
        n = 128
        gen = generate_fft(n)
        x = random_vector(rng, n)
        shifted = np.roll(x, 1)
        k = np.arange(n)
        phase = np.exp(-2j * np.pi * k / n)
        np.testing.assert_allclose(gen(shifted), gen(x) * phase, atol=1e-6)
