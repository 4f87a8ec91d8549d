"""Tests for the C backend: generation, compilation, and execution.

Compilation/execution tests are skipped when no C compiler is present.
"""

import numpy as np
import pytest

from repro.codegen import (
    compile_and_run,
    compiler_available,
    generate_c,
)
from repro.codegen.c_backend import MODES
from repro.frontend import vectorize_formula
from repro.rewrite import (
    cooley_tukey_step,
    derive_multicore_ct,
    expand_dft,
    six_step,
)
from repro.sigma import lower
from repro.spl import DFT
from tests.conftest import random_vector

needs_cc = pytest.mark.skipif(
    not compiler_available(), reason="no C compiler on this machine"
)


class TestGeneration:
    def test_source_structure(self):
        f = expand_dft(derive_multicore_ct(64, 2, 2), "balanced", min_leaf=4)
        gen = generate_c(lower(f), mode="pthreads")
        src = gen.source
        assert "#include <pthread.h>" in src
        assert "barrier_wait" in src
        assert "sense-reversing" in src
        assert "#define P 2" in src
        assert "int main(void)" in src

    def test_openmp_pragmas(self):
        f = expand_dft(derive_multicore_ct(64, 2, 2), "balanced", min_leaf=4)
        src = generate_c(lower(f), mode="openmp").source
        assert "#pragma omp parallel" in src
        assert "omp_get_thread_num" in src

    def test_sequential_has_no_threads(self):
        src = generate_c(lower(cooley_tukey_step(4, 4)), mode="sequential").source
        assert "pthread" not in src and "#pragma omp" not in src

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            generate_c(lower(cooley_tukey_step(4, 4)), mode="cuda")

    def test_elided_barriers_marked(self):
        f = expand_dft(derive_multicore_ct(256, 2, 4), "balanced", min_leaf=16)
        src = generate_c(lower(f), mode="pthreads").source
        assert "barrier=elided" in src

    def test_grid_indices_closed_form(self):
        """Strided accesses are emitted as arithmetic, not tables."""
        src = generate_c(lower(cooley_tukey_step(4, 4)), mode="sequential").source
        assert "j*" in src  # closed-form strided indexing present

    def test_f2_butterfly_unrolled(self):
        src = generate_c(
            lower(expand_dft(DFT(8), "radix2")), mode="sequential"
        ).source
        assert "F_2 butterfly" in src


def _driver_matrix():
    """mode x unroll_max x nu; the plain dense scalar cases keep their ids."""
    for mode in MODES:
        for unroll_max in (0, 8):
            for nu in (1, 4):
                plain = unroll_max == 0 and nu == 1
                yield pytest.param(
                    mode, unroll_max, nu,
                    id=mode if plain else f"{mode}-unroll{unroll_max}-nu{nu}",
                )


@needs_cc
class TestCompileAndRun:
    @pytest.mark.parametrize("mode,unroll_max,nu", _driver_matrix())
    def test_small_parallel_dft(self, rng, mode, unroll_max, nu):
        # vec(nu) needs nu | mu, or line permutations would split vectors
        f = expand_dft(
            derive_multicore_ct(64, 2, max(2, nu)), "balanced", min_leaf=4
        )
        f, effective_nu = vectorize_formula(f, 64, 2, nu)
        assert effective_nu == nu
        gen = generate_c(lower(f), mode=mode, unroll_max=unroll_max)
        assert (f"nu={nu} lanes" in gen.source) == (nu > 1)
        assert ("codelet0" in gen.source) == (unroll_max > 0)
        x = random_vector(rng, 64)
        out = compile_and_run(gen, x)
        np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-6)

    def test_four_processors(self, rng):
        f = expand_dft(derive_multicore_ct(256, 4, 2), "balanced", min_leaf=8)
        gen = generate_c(lower(f), mode="pthreads")
        x = random_vector(rng, 256)
        out = compile_and_run(gen, x)
        np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-6)

    def test_six_step_with_explicit_passes(self, rng):
        prog = lower(
            six_step(8, 8),
            merge_permutations=False,
            merge_diagonals=False,
            copy_procs=2,
        )
        gen = generate_c(prog, mode="pthreads")
        x = random_vector(rng, 64)
        out = compile_and_run(gen, x)
        np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-6)

    def test_sequential_radix2(self, rng):
        gen = generate_c(lower(expand_dft(DFT(32), "radix2")), mode="sequential")
        x = random_vector(rng, 32)
        out = compile_and_run(gen, x)
        np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-7)

    def test_odd_stage_count_buffer_parity(self, rng):
        """Programs with an odd number of stages return the right buffer."""
        prog = lower(cooley_tukey_step(4, 4))
        if len(prog.stages) % 2 == 0:
            prog2 = lower(DFT(16))  # single-stage program
            assert len(prog2.stages) % 2 == 1
            gen = generate_c(prog2, mode="sequential")
            x = random_vector(rng, 16)
            out = compile_and_run(gen, x)
            np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-7)


@needs_cc
class TestTimingHarness:
    def test_timing_build_runs(self):
        from repro.codegen import compile_and_time

        prog = lower(expand_dft(DFT(64), "radix2"))
        t = compile_and_time(prog, "sequential", reps=10)
        assert 0 < t < 1.0  # a 64-point FFT takes far less than a second

    def test_timing_source_structure(self):
        gen = generate_c(lower(cooley_tukey_step(4, 4)), timing=True)
        assert "clock_gettime" in gen.source
        assert "scanf" not in gen.source
        assert "#include <time.h>" in gen.source

    def test_timing_pthreads_build(self):
        from repro.codegen import compile_and_time

        f = expand_dft(derive_multicore_ct(64, 2, 2), "balanced", min_leaf=4)
        t = compile_and_time(lower(f), "pthreads", reps=3)
        assert t > 0
