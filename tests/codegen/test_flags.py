"""Compiler-flag policy: one flag set, cache invalidation on change.

The regression suite for the flag-drift bugfix: standalone executables
(``compile_and_run``) and production ``.so`` builds (``compile_plan``)
must share one optimization tier, and any change to the
flag set must miss the content-addressed codelet cache instead of serving
an object built under other flags.
"""

from __future__ import annotations

import subprocess

import numpy as np
import pytest

from repro.codegen import flags as flags_mod
from repro.codegen.c_backend import compile_and_run, generate_c
from repro.codegen.compiled_backend import (
    _source_key,
    clear_compiled_memo,
    compile_plan,
    compiled_available,
    compiler_fingerprint,
    emit_plan_source,
)
from repro.codegen.flags import (
    OPT_NATIVE,
    OPT_PORTABLE,
    exe_cflags,
    optimization_tier,
    shared_cflags,
    simd_disabled,
)
from repro.frontend import generate_fft
from repro.sigma.lower import lower
from repro.spl.matrices import DFT
from repro.rewrite.breakdown import expand_dft

needs_cc = pytest.mark.skipif(
    not compiled_available(), reason="no usable C compiler on this host"
)


class TestTierPolicy:
    def test_exe_and_shared_flags_share_the_tier(self):
        tier = optimization_tier()
        assert exe_cflags()[: len(tier)] == tier
        assert shared_cflags()[: len(tier)] == tier

    def test_no_simd_selects_portable_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SIMD", "1")
        assert simd_disabled()
        assert optimization_tier() == OPT_PORTABLE
        assert exe_cflags() == OPT_PORTABLE + ("-std=gnu99",)

    def test_default_tier_is_native_when_accepted(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_SIMD", raising=False)
        assert optimization_tier() == OPT_NATIVE

    def test_rejecting_compiler_degrades_to_portable(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_SIMD", raising=False)
        flags_mod.clear_flag_probe_cache()
        try:
            assert optimization_tier("/nonexistent/cc") == OPT_PORTABLE
        finally:
            flags_mod.clear_flag_probe_cache()


def _captured_compiles(monkeypatch, fn):
    """Run ``fn`` while recording every compiler argv subprocess sees."""
    calls = []
    real_run = subprocess.run

    def spy(cmd, *a, **kw):
        if isinstance(cmd, (list, tuple)) and any(
            str(c).endswith(".c") for c in cmd
        ):
            calls.append([str(c) for c in cmd])
        return real_run(cmd, *a, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(subprocess, "run", spy)
        fn()
    return calls


class TestOneFlagSet:
    """Standalone and production builds provably invoke the same tier."""

    @needs_cc
    def test_run_and_so_builds_use_one_tier(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        clear_compiled_memo()
        prog = lower(expand_dft(DFT(16), "radix2"))
        gen = generate_c(prog, mode="sequential")
        x = np.arange(16, dtype=np.complex128)

        argvs = _captured_compiles(
            monkeypatch,
            lambda: (
                compile_and_run(gen, x),
                compile_plan(generate_fft(64).program),
            ),
        )
        assert len(argvs) >= 3  # ... and the plan's codelet object
        exe = exe_cflags(argvs[0][0])  # compile_and_run's launch
        assert tuple(argvs[0][1:1 + len(exe)]) == exe
        tier = optimization_tier(argvs[0][0])
        for argv in argvs:
            for flag in tier:
                assert flag in argv, f"{flag} missing from {argv}"

    def test_fingerprint_carries_the_full_flag_set(self):
        fp = compiler_fingerprint()
        assert tuple(fp["flags"]) == shared_cflags(fp["cc"])


class TestCacheInvalidation:
    """A flag change must miss the content-addressed codelet cache."""

    def test_flag_change_changes_source_key(self):
        src = "int x;"
        fp = {"cc": "gcc", "version": "x", "flags": ["-O2"]}
        fp2 = {"cc": "gcc", "version": "x", "flags": ["-O3"]}
        assert _source_key(src, fp) != _source_key(src, fp2)

    def test_no_simd_flag_flip_changes_fingerprint(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_SIMD", raising=False)
        native = compiler_fingerprint()
        monkeypatch.setenv("REPRO_NO_SIMD", "1")
        portable = compiler_fingerprint()
        if native["cc"] is None:
            pytest.skip("no compiler to fingerprint")
        assert native["flags"] != portable["flags"]
        src = emit_plan_source(generate_fft(64).program)
        assert _source_key(src, native) != _source_key(src, portable)

    @needs_cc
    def test_flag_change_misses_disk_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_SIMD", raising=False)
        clear_compiled_memo()
        gen = generate_fft(64)
        native_plan = compile_plan(gen.program)
        monkeypatch.setenv("REPRO_NO_SIMD", "1")
        clear_compiled_memo()
        portable_plan = compile_plan(gen.program)
        assert native_plan.source_hash != portable_plan.source_hash
        assert native_plan.so_path != portable_plan.so_path
        # both objects exist side by side: nothing was silently reused
        assert native_plan.so_path.exists() and portable_plan.so_path.exists()
        clear_compiled_memo()

    @needs_cc
    def test_flag_flip_shares_no_codelet_object(self, monkeypatch, tmp_path):
        """Objects are keyed like plans: a portable plan built into a cache
        full of native-tier objects compiles its own and links only those."""
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_SIMD", raising=False)
        clear_compiled_memo()
        program = generate_fft(128).program  # 8 x 16: two codelets
        native_plan = compile_plan(program)
        native = {p.name for p in tmp_path.glob("codelet_*.o")}
        assert native == {f"codelet_{k}.o" for k in native_plan.codelets}
        assert len(native) == 2

        monkeypatch.setenv("REPRO_NO_SIMD", "1")
        clear_compiled_memo()
        argvs = _captured_compiles(
            monkeypatch, lambda: compile_plan(program)
        )
        portable = {p.name for p in tmp_path.glob("codelet_*.o")} - native
        assert len(portable) == 2  # same two codelets, compiled again
        assert len(argvs) == 3
        for argv in argvs:
            assert "-O2" in argv and "-march=native" not in argv
        (link,) = [argv for argv in argvs if "-shared" in argv]
        linked = {arg for arg in link if arg.endswith(".o")}
        assert linked == portable and not linked & native
        clear_compiled_memo()
