"""The compiled-codelet JIT backend: correctness, caching, fallback.

Everything that needs a real compiler is guarded by ``needs_cc``; the
fallback tests run everywhere (they simulate compiler absence with
``REPRO_NO_CC``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.codegen.compiled_backend import (
    CodeletCompileError,
    clear_compiled_memo,
    compile_plan,
    compiled_available,
    compiler_fingerprint,
    emit_plan_source,
    find_compiler,
)
from repro.codegen.registry import CompiledBackend, NumpyBackend
from repro.frontend import generate_fft
from repro.serve.batch_exec import run_batched
from repro.smp.runtime import PThreadsRuntime, SequentialRuntime
from repro.spl.expr import COMPLEX

needs_cc = pytest.mark.skipif(
    not compiled_available(), reason="no usable C compiler on this host"
)


def _stack(rng, b, n):
    return (
        rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))
    ).astype(COMPLEX)


class TestEmission:
    def test_source_names_every_stage(self):
        gen = generate_fft(64, threads=2)
        src = emit_plan_source(gen.program)
        for sid in range(len(gen.program.stages)):
            assert f"repro_stage{sid}" in src

    def test_source_is_deterministic(self):
        a = emit_plan_source(generate_fft(128).program)
        b = emit_plan_source(generate_fft(128).program)
        assert a == b


@needs_cc
class TestCompiledCorrectness:
    @pytest.mark.parametrize("n,threads", [(64, 1), (256, 2), (1024, 2)])
    def test_matches_fft_sequential(self, n, threads, rng):
        gen = generate_fft(n, threads=threads)
        stages = compile_plan(gen.program).plan_stages()
        X = _stack(rng, 3, n)
        Y, _ = run_batched(stages, n, X, SequentialRuntime())
        np.testing.assert_allclose(
            Y, np.fft.fft(X, axis=-1), atol=1e-9 * n, rtol=1e-9
        )

    def test_matches_fft_on_pthreads_pool(self, rng):
        n, p = 1024, 2
        gen = generate_fft(n, threads=p)
        stages = compile_plan(gen.program).plan_stages()
        X = _stack(rng, 4, n)
        with PThreadsRuntime(p) as pool:
            Y, _ = run_batched(stages, n, X, pool)
        np.testing.assert_allclose(
            Y, np.fft.fft(X, axis=-1), atol=1e-9 * n, rtol=1e-9
        )

    def test_single_vector_batch(self, rng):
        n = 256
        stages = compile_plan(generate_fft(n).program).plan_stages()
        x = _stack(rng, 1, n)
        y, _ = run_batched(stages, n, x, SequentialRuntime())
        np.testing.assert_allclose(
            y[0], np.fft.fft(x[0]), atol=1e-9 * n, rtol=1e-9
        )


@needs_cc
class TestArtifactCache:
    def test_disk_cache_hit_skips_recompile(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        clear_compiled_memo()
        gen = generate_fft(128)
        first = compile_plan(gen.program)
        mtime = os.path.getmtime(first.so_path)
        clear_compiled_memo()  # drop the in-process memo, keep the disk
        second = compile_plan(gen.program)
        assert second.so_path == first.so_path
        assert os.path.getmtime(second.so_path) == mtime
        assert second.source_hash == first.source_hash

    def test_compiler_is_resolved_once_per_call(self, tmp_path, monkeypatch):
        """``compile_plan`` walks ``$PATH`` once for the default compiler and
        not at all for an explicit one; the ``--version`` probe is memoized
        by compiler path, so both spellings share it and one fingerprint."""
        import shutil
        import subprocess

        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        clear_compiled_memo()
        program = generate_fft(64).program
        cc = find_compiler()
        first = compile_plan(program)
        walks, real_which = [], shutil.which

        def which(*args, **kwargs):
            walks.append(args)
            return real_which(*args, **kwargs)

        monkeypatch.setattr(shutil, "which", which)
        assert compile_plan(program) is first  # memo hit, default compiler
        assert len(walks) == 1
        monkeypatch.setattr(subprocess, "run", None)  # no probe, no launch
        assert compile_plan(program, cc=cc) is first  # ... the same entry
        assert compiler_fingerprint(cc) == first.compiler
        assert len(walks) == 1

    def test_artifact_info_names_the_toolchain(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        clear_compiled_memo()
        info = compile_plan(generate_fft(64).program).artifact_info()
        fp = compiler_fingerprint()
        assert info["cc"] == fp["cc"]
        assert info["cc_version"] == fp["version"]
        assert info["source_hash"] and os.path.exists(info["so"])


class TestFallbackSeams:
    def test_no_cc_env_disables_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CC", "1")
        assert not compiled_available()
        assert not CompiledBackend().available()

    def test_compile_plan_raises_without_compiler(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CC", "1")
        clear_compiled_memo()
        with pytest.raises(CodeletCompileError):
            compile_plan(generate_fft(64).program)

    def test_build_stages_falls_back_to_numpy(self, monkeypatch, rng):
        monkeypatch.setenv("REPRO_NO_CC", "1")
        clear_compiled_memo()
        n = 128
        gen = generate_fft(n)
        with pytest.warns(RuntimeWarning):
            import repro.codegen.registry as reg

            reg._WARNED.discard("compiled")
            stages = CompiledBackend().build_stages(gen.program)
        X = _stack(rng, 2, n)
        Y, _ = run_batched(stages, n, X, SequentialRuntime())
        np.testing.assert_allclose(
            Y, np.fft.fft(X, axis=-1), atol=1e-9 * n, rtol=1e-9
        )

    def test_injected_compile_fault_falls_back(self, rng):
        from repro.faults import FaultPlan, FaultSpec, fault_plan

        clear_compiled_memo()
        n = 64
        gen = generate_fft(n)
        plan = FaultPlan([FaultSpec("codegen.compile_fail", rate=1.0)])
        with fault_plan(plan):
            stages = CompiledBackend().build_stages(gen.program)
        assert plan.fires("codegen.compile_fail") >= 1
        X = _stack(rng, 2, n)
        Y, _ = run_batched(stages, n, X, SequentialRuntime())
        np.testing.assert_allclose(
            Y, np.fft.fft(X, axis=-1), atol=1e-9 * n, rtol=1e-9
        )

    def test_fallback_preserves_plan_structure(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CC", "1")
        clear_compiled_memo()
        gen = generate_fft(256, threads=2)
        fell_back = CompiledBackend().build_stages(gen.program)
        reference = NumpyBackend().build_stages(gen.program)
        assert [
            (s.parallel, s.needs_barrier, s.nprocs) for s in fell_back
        ] == [(s.parallel, s.needs_barrier, s.nprocs) for s in reference]


@needs_cc
class TestEndToEnd:
    def test_serve_plan_cache_builds_compiled_plans(self, rng):
        from repro.serve.plan_cache import PlanCache, PlanKey

        cache = PlanCache(backend="compiled")
        plan = cache.get(PlanKey(n=256, threads=1, mu=4))
        assert plan.backend == "compiled"

    def test_a_compiled_miss_rewrites_the_wisdom_file_zero_times(
        self, tmp_path, wisdom_saves
    ):
        """A compiled build reads the file and writes nothing back: a file
        holding a ranking is byte for byte the same after the miss."""
        from repro.serve.plan_cache import PlanCache, PlanKey
        from repro.tune import measured_search
        from repro.wisdom import Wisdom

        wisdom = Wisdom(tmp_path / "w.json")
        measured_search(128, backend="compiled", budget=2, repeats=1,
                        wisdom=wisdom)
        written = wisdom.path.read_bytes()
        wisdom_saves.clear()
        cache = PlanCache(wisdom=wisdom, backend="compiled")
        plan = cache.get(PlanKey(n=128, threads=1, mu=4))
        assert plan.backend == "compiled"
        assert wisdom_saves == []
        assert wisdom.path.read_bytes() == written

    def test_wisdom_attached_build_prints_its_c_once(
        self, tmp_path, monkeypatch, wisdom_saves
    ):
        """A miss on a wisdom-attached cache compiles once and only reads
        the file: one ``emit_plan_source``, zero rewrites."""
        from repro.serve.plan_cache import PlanCache, PlanKey
        from repro.trace import Tracer, tracing
        from repro.wisdom import Wisdom

        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path / "cache"))
        clear_compiled_memo()
        wisdom = Wisdom(tmp_path / "w.json")
        cache = PlanCache(wisdom=wisdom, backend="compiled")
        with tracing(Tracer()) as tr:
            plan = cache.get(PlanKey(n=256, threads=1, mu=4))
        assert plan.backend == "compiled"
        assert [e.name for e in tr.events].count("codegen.emit_c") == 1
        assert wisdom_saves == [] and not wisdom.path.exists()

    def test_mp_spec_compiles_with_backend(self, rng):
        from repro.mp.spec import PlanSpec, clear_spec_cache, compile_spec

        clear_spec_cache()
        n = 256
        cs = compile_spec(PlanSpec(n=n, backend="compiled"))
        X = _stack(rng, 2, n)
        Y, _ = run_batched(cs.stages, n, X, SequentialRuntime())
        np.testing.assert_allclose(
            Y, np.fft.fft(X, axis=-1), atol=1e-9 * n, rtol=1e-9
        )
        clear_spec_cache()

    def test_check_differential_passes(self):
        from repro.hunt import HuntCase, run_oracle

        case = HuntCase(n=512, req_threads=2, mu=4, strategy="balanced",
                        batch=3, backend="compiled")
        assert run_oracle(case).ok
