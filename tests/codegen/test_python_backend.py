"""Tests for the Python/NumPy code generator."""

import numpy as np
import pytest

from repro.codegen import generate
from repro.rewrite import (
    cooley_tukey_step,
    derive_multicore_ct,
    derive_sequential_ct,
    expand_dft,
    six_step,
)
from repro.sigma import lower
from repro.spl import DFT
from tests.conftest import random_vector


class TestGeneratedCorrectness:
    @pytest.mark.parametrize("n", [4, 8, 16, 64, 256, 1024])
    def test_sequential_sizes(self, rng, n):
        gen = generate(lower(expand_dft(DFT(n), "radix2")))
        x = random_vector(rng, n)
        np.testing.assert_allclose(gen.run(x), np.fft.fft(x), atol=1e-6)

    @pytest.mark.parametrize("n,p,mu", [(64, 2, 2), (256, 2, 4), (1024, 4, 4)])
    def test_parallel_formulas(self, rng, n, p, mu):
        f = expand_dft(derive_multicore_ct(n, p, mu), "balanced", min_leaf=16)
        gen = generate(lower(f))
        x = random_vector(rng, n)
        np.testing.assert_allclose(gen.run(x), np.fft.fft(x), atol=1e-6)

    def test_mixed_radix(self, rng):
        gen = generate(lower(expand_dft(DFT(48), "balanced", min_leaf=8)))
        x = random_vector(rng, 48)
        np.testing.assert_allclose(gen.run(x), np.fft.fft(x), atol=1e-7)

    def test_unmerged_six_step(self, rng):
        prog = lower(
            six_step(8, 8), merge_permutations=False, merge_diagonals=False
        )
        gen = generate(prog)
        x = random_vector(rng, 64)
        np.testing.assert_allclose(gen.run(x), np.fft.fft(x), atol=1e-7)

    def test_callable_interface(self, rng):
        gen = generate(lower(cooley_tukey_step(4, 4)))
        x = random_vector(rng, 16)
        np.testing.assert_allclose(gen(x), np.fft.fft(x), atol=1e-8)


    @pytest.mark.parametrize("b", [1, 3, 8])
    def test_stack_input_matches_fft_rowwise(self, rng, b):
        """A generated program takes ``(b, n)`` like every plan record."""
        from repro.frontend import generate_fft

        gen = generate_fft(256, threads=2, mu=4)
        X = np.stack([random_vector(rng, 256) for _ in range(b)])
        Y = gen(X)
        assert Y.shape == X.shape
        np.testing.assert_allclose(Y, np.fft.fft(X, axis=-1), atol=1e-6)
        with pytest.raises(ValueError, match="stack"):
            gen(X[:, :128])


class TestGeneratedSource:
    def test_source_is_real_python(self):
        gen = generate(lower(cooley_tukey_step(4, 4)))
        compile(gen.source, "<check>", "exec")  # must parse standalone
        assert "def make_stages(C):" in gen.source

    def test_codelets_emitted_as_matmul(self):
        gen = generate(lower(cooley_tukey_step(4, 4)))
        assert "# codelet" in gen.source

    def test_f2_unrolled(self):
        gen = generate(lower(expand_dft(DFT(8), "radix2")))
        assert "F_2 butterfly" in gen.source

    def test_merged_twiddles_visible(self):
        gen = generate(lower(cooley_tukey_step(4, 4)))
        assert "merged twiddle/diagonal" in gen.source

    def test_library_kernel_flagged_for_large_leaves(self):
        gen = generate(lower(cooley_tukey_step(64, 64)), codelet_max=32)
        assert "library kernel" in gen.source

    def test_contiguous_scatter_uses_slices(self):
        f = expand_dft(derive_multicore_ct(256, 2, 4), "balanced", min_leaf=16)
        gen = generate(lower(f))
        assert "contiguous block" in gen.source

    def test_barrier_elision_annotated(self):
        f = expand_dft(derive_multicore_ct(256, 2, 4), "balanced", min_leaf=16)
        gen = generate(lower(f))
        assert "ELIDED" in gen.source

    def test_proc_branches_cover_all_processors(self):
        f = expand_dft(derive_multicore_ct(1024, 4, 4), "balanced", min_leaf=8)
        gen = generate(lower(f))
        for proc in range(4):
            assert f"proc == {proc}" in gen.source

    def test_consts_referenced_exist(self):
        gen = generate(lower(cooley_tukey_step(8, 8)))
        import re

        for name in re.findall(r"C\['([^']+)'\]", gen.source):
            assert name in gen.consts

    def test_stage_count_matches_program(self):
        prog = lower(cooley_tukey_step(8, 8))
        gen = generate(prog)
        assert len(gen.stages) == len(prog.stages)
        assert [s.needs_barrier for s in gen.stages] == [
            s.needs_barrier for s in prog.stages
        ]
