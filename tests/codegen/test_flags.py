"""Compiler-flag policy: one flag set, cache invalidation on change.

The regression suite for the flag-drift bugfix: standalone executables
(``compile_and_run``) and production ``.so`` builds (``compile_plan``)
must share one optimization tier, and any change to the
flag set must miss the content-addressed codelet cache instead of serving
an object built under other flags.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.codegen import flags as flags_mod
from repro.codegen.c_backend import compile_and_run, generate_c
from repro.codegen.c_emit import emit_plan_unit
from repro.codegen.compiled_backend import (
    DEFAULT_CODELET_MAX,
    _source_key,
    clear_compiled_memo,
    compile_plan,
    compiled_available,
    compiler_fingerprint,
    emit_plan_source,
)
from repro.codegen.flags import (
    GLUE_NU,
    OPT_GLUE,
    OPT_NATIVE,
    OPT_PORTABLE,
    exe_cflags,
    optimization_tier,
    shared_cflags,
    simd_disabled,
    unit_cflags,
)
from repro.frontend import generate_fft
from repro.sigma.lower import lower
from repro.spl.matrices import DFT
from repro.rewrite.breakdown import expand_dft

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_emit_digests.json").read_text()
)

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


class TestL2Probe:
    """The L2 reading the in-place rule follows: the level-2 data or
    unified cache, once per process; no reading where sysfs lists none."""

    @staticmethod
    def _cache(root, index, level, kind, size):
        d = root / f"index{index}"
        d.mkdir()
        for name, value in (("level", level), ("type", kind), ("size", size)):
            (d / name).write_text(f"{value}\n")

    def test_reads_the_level_2_data_or_unified_cache(self, tmp_path,
                                                     monkeypatch):
        self._cache(tmp_path, 0, 1, "Data", "48K")
        self._cache(tmp_path, 1, 1, "Instruction", "32K")
        self._cache(tmp_path, 2, 2, "Unified", "2048K")
        self._cache(tmp_path, 3, 3, "Unified", "300M")
        monkeypatch.setattr(flags_mod, "CACHE_SYSFS", tmp_path)
        flags_mod.clear_flag_probe_cache()
        try:
            assert flags_mod.l2_cache_bytes() == 2 << 20
            (tmp_path / "index2" / "size").write_text("1M\n")
            assert flags_mod.l2_cache_bytes() == 2 << 20  # memoized
            flags_mod.clear_flag_probe_cache()
            assert flags_mod.l2_cache_bytes() == 1 << 20
        finally:
            flags_mod.clear_flag_probe_cache()

    @pytest.mark.parametrize("layout", ["none", "l1-only", "unreadable"])
    def test_no_listing_is_no_reading(self, layout, tmp_path, monkeypatch):
        if layout == "l1-only":
            self._cache(tmp_path, 0, 1, "Data", "48K")
        elif layout == "unreadable":
            self._cache(tmp_path, 0, 2, "Unified", "lots")
            (tmp_path / "index1").mkdir()  # no files at all
        monkeypatch.setattr(flags_mod, "CACHE_SYSFS", tmp_path / "cache"
                            if layout == "none" else tmp_path)
        flags_mod.clear_flag_probe_cache()
        try:
            assert flags_mod.l2_cache_bytes() is None
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


def _lanes(n, nu):
    """A plan of size ``n`` whose every loop carries ``nu`` lanes."""
    program = generate_fft(n, nu=nu).program
    assert {lp.nu for st in program.stages for lp in st.loops} == {nu}
    return program


def _launches(argvs):
    """``(unit launches, codelet launches)`` of captured ``compile_plan``
    argvs: a unit links (``-shared``), a codelet compiles only (``-c``)."""
    units = [argv for argv in argvs if "-shared" in argv]
    objects = [argv for argv in argvs if "-c" in argv]
    assert len(units) + len(objects) == len(argvs)
    return units, objects


def _level(argv, tier):
    """The launch's optimisation flags, in ``tier``'s positions (after
    the compiler and a unit's ``-D`` naming its table file)."""
    args = [arg for arg in argv[1:] if not arg.startswith("-D")]
    return tuple(args[:len(tier)])


class TestGlueTier:
    """A plan unit whose loops all carry four lanes compiles at ``-O2``
    at the native tier; everything else keeps ``optimization_tier()``."""

    def test_unit_cflags_drops_only_a_four_lane_native_unit(self):
        rest = ("-fPIC", "-shared", "-std=gnu99")
        native = OPT_NATIVE + rest
        assert unit_cflags(native, GLUE_NU) == OPT_GLUE + rest
        for nu in (1, 2, None):
            assert unit_cflags(native, nu) == native
        for other in (OPT_PORTABLE + rest, ("-O0", "-ffp-contract=off")):
            assert unit_cflags(other, GLUE_NU) == other
        assert OPT_GLUE == ("-O2", "-march=native")

    def test_fingerprint_carries_the_glue_tier(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_SIMD", raising=False)
        fp = compiler_fingerprint()
        flags = shared_cflags(fp["cc"])
        assert tuple(fp["glue"]) == unit_cflags(flags, GLUE_NU)
        if fp["cc"] is not None and optimization_tier(fp["cc"]) == OPT_NATIVE:
            assert fp["glue"] != fp["flags"]

    @needs_cc
    def test_a_four_lane_unit_compiles_at_the_glue_tier(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_SIMD", raising=False)
        clear_compiled_memo()
        program = _lanes(1024, 4)
        argvs = _captured_compiles(monkeypatch, lambda: compile_plan(program))
        units, objects = _launches(argvs)
        tier = optimization_tier(argvs[0][0])
        glue = unit_cflags(tier, GLUE_NU)
        (unit,) = units
        assert _level(unit, glue) == glue
        assert objects  # the codelets keep the tier
        for argv in objects:
            assert _level(argv, tier) == tier
        if tier == OPT_NATIVE:
            assert "-O3" not in unit and "-march=native" in unit
        clear_compiled_memo()

    @needs_cc
    def test_codelets_narrow_units_and_programs_keep_the_tier(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_SIMD", raising=False)
        clear_compiled_memo()
        narrow = [_lanes(256, nu) for nu in (1, 2)]
        wide = _lanes(256, 4)
        argvs = _captured_compiles(
            monkeypatch, lambda: [compile_plan(p) for p in narrow]
        )
        tier = optimization_tier(argvs[0][0])
        units, objects = _launches(argvs)
        assert len(units) == 2 and objects
        for argv in units + objects:
            assert _level(argv, tier) == tier
        # a four-lane standalone program is a program: the tier, not glue
        x = np.arange(256, dtype=np.complex128)
        (exe,) = _captured_compiles(
            monkeypatch,
            lambda: compile_and_run(generate_c(wide, "sequential"), x),
        )
        assert _level(exe, tier) == tier and "-shared" not in exe
        clear_compiled_memo()

    @needs_cc
    def test_portable_tier_is_o2_for_every_launch(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_SIMD", raising=False)
        programs = [_lanes(256, nu) for nu in (1, 2, 4)]  # before the flip
        monkeypatch.setenv("REPRO_NO_SIMD", "1")
        clear_compiled_memo()
        x = np.arange(256, dtype=np.complex128)
        argvs = _captured_compiles(
            monkeypatch,
            lambda: (
                [compile_plan(p) for p in programs],
                compile_and_run(generate_c(programs[2], "sequential"), x),
            ),
        )
        units, _ = _launches(argvs[:-1])
        assert len(units) == 3
        for argv in argvs:
            assert "-O2" in argv
            assert "-O3" not in argv and "-march=native" not in argv
        clear_compiled_memo()

    @needs_cc
    def test_no_launch_links_libm(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        clear_compiled_memo()
        programs = [_lanes(256, nu) for nu in (1, 4)]
        x = np.arange(256, dtype=np.complex128)
        plans = []
        argvs = _captured_compiles(
            monkeypatch,
            lambda: (
                plans.extend(compile_plan(p) for p in programs),
                [compile_and_run(generate_c(programs[1], mode), x)
                 for mode in ("sequential", "pthreads")],
            ),
        )
        assert len(argvs) >= 4
        for argv in argvs:
            assert not any(arg.startswith("-lm") for arg in argv), argv
        nm = shutil.which("nm")
        if nm is None:
            pytest.skip("no nm to list the plans' undefined symbols")
        for plan in plans:
            listed = subprocess.run(
                [nm, "-D", "--undefined-only", str(plan.so_path)],
                capture_output=True, text=True, check=True,
            ).stdout.split("\n")
            # ``U`` is a strong reference; the ``w`` entries are the
            # toolchain's own weak hooks, resolved or not
            wanted = {
                line.split()[-1].split("@")[0]
                for line in listed if line.split()[:1] == ["U"]
            }
            assert wanted == {"posix_memalign", "free"}, listed
        clear_compiled_memo()

    @needs_cc
    def test_glue_tier_flip_misses_disk_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_SIMD", raising=False)
        clear_compiled_memo()
        program = _lanes(256, 4)
        glue_plan = compile_plan(program)
        monkeypatch.setattr(flags_mod, "OPT_GLUE", ("-O1", "-march=native"))
        clear_compiled_memo()
        other_plan = compile_plan(program)
        if glue_plan.compiler["flags"][:2] != list(OPT_NATIVE):
            pytest.skip("no native tier: there is no glue tier to flip")
        assert glue_plan.source_hash != other_plan.source_hash
        assert glue_plan.so_path != other_plan.so_path
        assert other_plan.cflags[:1] == ("-O1",)
        # both objects exist side by side: nothing was silently reused
        assert glue_plan.so_path.exists() and other_plan.so_path.exists()
        clear_compiled_memo()


def test_no_emitted_unit_or_codelet_source_includes_a_header():
    """Over the golden grid: no plan unit (linked or single-file) and no
    codelet object source parses a libc header."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for key in sorted(GOLDEN["plan"]):
            k, nu, threads = map(
                int, re.fullmatch(r"k(\d+)_nu(\d+)_t(\d+)", key).groups()
            )
            program = generate_fft(2 ** k, threads=threads, mu=4, nu=nu).program
            for linked in (True, False):
                unit = emit_plan_unit(program, DEFAULT_CODELET_MAX, linked=linked)
                assert "#include" not in unit.text, key
                for codelet in unit.codelets:  # the linked form's
                    assert "#include" not in codelet.object_source(), key
