"""Tests for the C backend: generation, compilation, and execution.

Compilation/execution tests are skipped when no C compiler is present or
``REPRO_NO_CC`` switches it off (``compiled_available`` is the one answer).
"""

import numpy as np
import pytest

from repro.codegen import (
    CodeletCompileError,
    compile_and_run,
    compiled_available,
    generate_c,
)
from repro.codegen.c_backend import MODES
from repro.codegen.compiled_backend import DEFAULT_CODELET_MAX
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
    not compiled_available(), reason="no usable C compiler on this host"
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
        assert "stages[NSTAGES] = {repro_stage0, " in src

    def test_openmp_pragmas(self):
        f = expand_dft(derive_multicore_ct(64, 2, 2), "balanced", min_leaf=4)
        src = generate_c(lower(f), mode="openmp").source
        assert "#pragma omp parallel" in src
        assert "omp_get_thread_num" in src

    def test_sequential_has_no_threads(self):
        src = generate_c(lower(cooley_tukey_step(4, 4)), mode="sequential").source
        assert "pthread" not in src and "#pragma omp" not in src

    def test_sequential_has_no_driver_of_its_own(self):
        """``main`` calls the plan's chain; nothing else walks the stages."""
        src = generate_c(lower(cooley_tukey_step(4, 4)), mode="sequential").source
        assert "repro_plan(1, bufA, bufB)" in src
        assert "transform" not in src and "NSTAGES" not in src

    def test_default_unroll_bound_is_the_compiled_backends(self):
        """No dense-by-default path: a size-8 kernel is a codelet unless
        ``codelet_max`` says otherwise."""
        prog = lower(cooley_tukey_step(8, 8))
        assert "codelet0" in generate_c(prog, mode="sequential").source
        dense = generate_c(prog, mode="sequential", codelet_max=0).source
        assert "codelet0" not in dense and "kmat0" in dense

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
        assert "sc[0 + jb*1 + u*4]" in src  # closed-form strided indexing
        assert "const int" not in src  # ... and no index table beside it

    def test_f2_butterfly_unrolled(self):
        src = generate_c(
            lower(expand_dft(DFT(8), "radix2")), mode="sequential"
        ).source
        assert "/* F_2 x 1 */" in src and "codelet0" not in src


def _driver_matrix():
    """mode x codelet_max (dense, a small bound, the default) x nu; the
    plain dense scalar cases keep their ids."""
    for mode in MODES:
        for codelet_max in (0, 8, DEFAULT_CODELET_MAX):
            for nu in (1, 4):
                plain = codelet_max == 0 and nu == 1
                yield pytest.param(
                    mode, codelet_max, nu,
                    id=mode if plain else f"{mode}-unroll{codelet_max}-nu{nu}",
                )


@needs_cc
class TestCompileAndRun:
    @pytest.mark.parametrize("mode,codelet_max,nu", _driver_matrix())
    def test_small_parallel_dft(self, rng, mode, codelet_max, nu):
        # vec(nu) needs nu | mu, or line permutations would split vectors
        f = expand_dft(
            derive_multicore_ct(64, 2, max(2, nu)), "balanced", min_leaf=4
        )
        f, effective_nu = vectorize_formula(f, 64, 2, nu)
        assert effective_nu == nu
        gen = generate_c(lower(f), mode=mode, codelet_max=codelet_max)
        assert f"/* nu={nu} lanes x " in gen.source
        assert f"_v{nu}(" in gen.source or codelet_max == 0
        assert ("codelet0" in gen.source) == (codelet_max > 0)
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
        """Programs with an odd number of stages return the right buffer:
        the chain's ``y`` (sequential), the ping-pong's parity (threaded)."""
        prog = lower(DFT(16))  # single-stage program
        assert len(prog.stages) == 1
        x = random_vector(rng, 16)
        for mode in MODES:
            out = compile_and_run(generate_c(prog, mode=mode), x)
            np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-7)


class TestNoCompiler:
    def test_kill_switch_reaches_the_standalone_build(self, monkeypatch):
        """``REPRO_NO_CC`` is the compiled backend's switch, and this is
        the compiled backend's compiler seam: no second lookup runs gcc."""
        monkeypatch.setenv("REPRO_NO_CC", "1")
        assert not compiled_available()
        gen = generate_c(lower(cooley_tukey_step(4, 4)), mode="sequential")
        with pytest.raises(CodeletCompileError):
            compile_and_run(gen, np.zeros(16, dtype=complex))

    @needs_cc
    def test_rejected_program_is_a_compile_error(self):
        gen = generate_c(lower(cooley_tukey_step(4, 4)), mode="sequential")
        gen.source += "\n#error not C\n"
        with pytest.raises(CodeletCompileError, match="not C"):
            compile_and_run(gen, np.zeros(16, dtype=complex))
