"""Compiler-flag policy: one flag set, cache invalidation on change.

The regression suite for the flag-drift bugfix: standalone executables
(``compile_and_run``) and production ``.so`` builds (``compile_plan``)
must share one optimization tier, and any change to the
flag set must miss the content-addressed codelet cache instead of serving
an object built under other flags.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import multiprocessing
import re
import shutil
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.codegen import flags as flags_mod
from repro.codegen.c_backend import compile_and_run, generate_c
from repro.codegen.c_emit import CACHE_LINE, TABLES_MACRO, emit_plan_unit
from repro.codegen.compiled_backend import (
    DEFAULT_CODELET_MAX,
    _source_key,
    clear_compiled_memo,
    compile_plan,
    compiled_available,
    compiler_fingerprint,
    emit_plan_source,
    run_cc,
)
from repro.codegen.flags import (
    GLUE_NU,
    OPT_GLUE,
    OPT_NATIVE,
    OPT_PORTABLE,
    SHARED_LINK,
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
from repro.spl.expr import COMPLEX

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
        assert tuple(fp["link"]) == SHARED_LINK


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

    @needs_cc
    @pytest.mark.parametrize("flip", [
        ("OPT_GLUE", ("-O1", "-march=native")),
        ("SHARED_LINK", ("-shared", "-nostdlib", "-lgcc")),
    ], ids=["glue", "link"])
    def test_a_unit_only_flip_shares_every_codelet_object(
        self, monkeypatch, tmp_path, flip
    ):
        """A codelet object is keyed by what its ``-c`` launch sees: a
        flip of the glue tier or of the link line misses the plan's
        ``.so`` and compiles no codelet again."""
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_SIMD", raising=False)
        clear_compiled_memo()
        program = _lanes(256, 4)  # a glue unit at the native tier
        before = compile_plan(program)
        objects = {p.name for p in tmp_path.glob("codelet_*.o")}
        assert objects == {f"codelet_{k}.o" for k in before.codelets}

        monkeypatch.setattr(flags_mod, *flip)
        clear_compiled_memo()
        built = []
        argvs = _captured_compiles(
            monkeypatch, lambda: built.append(compile_plan(program)))
        (after,) = built
        assert after.so_path != before.so_path and after.so_path.exists()
        assert {p.name for p in tmp_path.glob("codelet_*.o")} == objects
        assert after.codelets == before.codelets
        assert [argv for argv in argvs if "-c" in argv] == []
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
            # ``U`` is a strong reference: exactly the two the chain calls,
            # and no ``w`` entry — the toolchain's weak hooks came with the
            # C runtime the freestanding link leaves out
            wanted = {
                line.split()[-1].split("@")[0]
                for line in listed if line.split()[:1] == ["U"]
            }
            assert wanted == {"posix_memalign", "free"}, listed
            assert sorted(line.split()[0] for line in listed
                          if line.strip()) == ["U", "U"], listed
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


#: the plan_build ladder: 2^6 ... 2^12, each one and four lanes wide
LADDER = tuple((1 << k, nu) for k in range(6, 13) for nu in (1, 4))


def _tool(*argv) -> list:
    """The lines a binutils listing prints, blank ones dropped."""
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    return [line for line in out.stdout.splitlines() if line.strip()]


def _linked_the_old_way(plan, workdir):
    """``plan`` with its unit and codelet objects linked as before the
    freestanding link: the same launch, the default C runtime around it."""
    cache, stem = plan.so_path.parent, plan.so_path.stem
    old = workdir / f"{stem}_old.so"
    tables = [f'-D{TABLES_MACRO}="{stem}.tab"'] if plan.tables else []
    run_cc(plan.compiler["cc"], [
        *tables, *plan.cflags, "-shared", "-o", str(old), f"{stem}.c",
        *(f"codelet_{key}.o" for key in plan.codelets),
    ], cache)
    lib = ctypes.CDLL(str(old))
    chain = lib.repro_plan  # bound as compile_plan binds it
    chain.argtypes = [ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
    chain.restype = ctypes.c_int
    return dataclasses.replace(plan, so_path=old, _lib=lib, _chain=chain)


def _results(plan, X):
    """``repro_plan``'s ``Y`` for ``X``: into a fresh result, into an
    ``out`` on its cache line, and into one at 16 mod 64 — as bytes."""
    whole = plan.plan_stages().whole
    got = [whole(X, True).tobytes()]
    for skew in (0, 16):
        raw = np.empty(X.nbytes + 2 * CACHE_LINE, np.uint8)
        at = -raw.ctypes.data % CACHE_LINE + skew
        out = raw[at:at + X.nbytes].view(COMPLEX).reshape(X.shape)
        assert whole(X, True, out) is out
        got.append(out.tobytes())
    return got


def _run_in_child(n, nu, X):
    """In a fresh interpreter: the plan ``compile_plan`` finds for ``(n,
    nu)`` in the inherited cache, and its result for ``X``."""
    plan = compile_plan(generate_fft(n, nu=nu).program)
    return str(plan.so_path), plan.plan_stages().whole(X, True)


@pytest.fixture(scope="module")
def ladder(tmp_path_factory):
    """The ladder's plans and 2^16 four lanes wide on a host whose L2 is
    two of its rows (stages 1 and 3 in place), built cold into one
    private cache at the native tier."""
    if not compiled_available():
        pytest.skip("no usable C compiler on this host")
    patch = pytest.MonkeyPatch()
    cache = tmp_path_factory.mktemp("ladder")
    patch.setenv("REPRO_CODELET_CACHE", str(cache))
    patch.delenv("REPRO_CODELET_CACHE_MAX", raising=False)
    patch.delenv("REPRO_NO_SIMD", raising=False)
    clear_compiled_memo()
    plans = {(n, nu): compile_plan(_lanes(n, nu)) for n, nu in LADDER}
    with pytest.MonkeyPatch.context() as l2:
        l2.setattr(flags_mod, "l2_cache_bytes", lambda: 32 << 16)
        program = generate_fft(1 << 16, nu=4).program
        plans[1 << 16, 4] = compile_plan(program)
    assert plans[1 << 16, 4].in_place == (1, 3)
    yield plans
    patch.undo()
    clear_compiled_memo()


class TestFreestandingLink:
    """A plan unit links none of the C runtime: ``-nostdlib``, with the
    compiler's static helpers after its last input.  The ``.so`` needs no
    library and binds ``posix_memalign`` and ``free`` from the loading
    process; its bits are the old link's."""

    def test_every_plan_is_a_freestanding_elf(self, ladder):
        readelf, nm = shutil.which("readelf"), shutil.which("nm")
        if readelf is None or nm is None:
            pytest.skip("no binutils to read the plans' ELF")
        for (n, nu), plan in ladder.items():
            so = str(plan.so_path)
            dynamic = " ".join(_tool(readelf, "-d", so))
            for tag in ("(NEEDED)", "(INIT)", "(FINI)"):
                assert tag not in dynamic, (n, nu, tag)
            undefined = sorted(
                line.split() for line in
                _tool(nm, "-D", "--undefined-only", so))
            assert undefined == [["U", "free"], ["U", "posix_memalign"]], (
                n, nu, undefined)
            symbols = {line.split()[-1]
                       for line in _tool(nm, "--defined-only", so)}
            assert not symbols & {"_init", "_fini"}, (n, nu)
            exported = {line.split()[-1]
                        for line in _tool(nm, "-D", "--defined-only", so)}
            stages = {f"repro_stage{k}" for k in range(plan.nstages)}
            assert {"repro_plan", *stages} <= exported, (n, nu, exported)

    def test_the_chain_calls_its_stages_directly(self, ladder):
        """``-Bsymbolic``: ``repro_plan`` calls each ``repro_stage<k>`` by
        address; only the two libc symbols go through the PLT."""
        objdump = shutil.which("objdump")
        if objdump is None:
            pytest.skip("no binutils to disassemble the plans")
        for (n, nu), plan in ladder.items():
            text = "\n".join(_tool(objdump, "-d", str(plan.so_path)))
            plt = set(re.findall(r"<([\w.]+)@plt>", text))
            assert plt <= {"free", "posix_memalign"}, (n, nu, plt)
            called = set(re.findall(r"call\s+\w+ <(repro_stage\d+)>", text))
            assert called == {f"repro_stage{k}" for k in range(plan.nstages)}, (
                n, nu, called)

    @needs_cc
    def test_no_codelet_launch_links_and_the_unit_links_last(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        clear_compiled_memo()
        programs = [_lanes(256, nu) for nu in (1, 4)]
        argvs = _captured_compiles(
            monkeypatch, lambda: [compile_plan(p) for p in programs]
        )
        units, objects = _launches(argvs)
        assert len(units) == 2 and objects
        for argv in objects:
            assert "-shared" not in argv and "-nostdlib" not in argv, argv
            assert not any(arg.startswith("-l") for arg in argv), argv
        for argv in units:
            assert tuple(argv[-len(SHARED_LINK):]) == SHARED_LINK, argv
            inputs = [at for at, arg in enumerate(argv)
                      if arg.endswith((".c", ".o"))]
            assert argv.index("-lgcc") > max(inputs), argv
            assert sum(arg.endswith(".o") for arg in argv) >= 1, argv
        clear_compiled_memo()

    @needs_cc
    def test_link_line_flip_misses_disk_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        clear_compiled_memo()
        program = _lanes(256, 4)
        freestanding = compile_plan(program)
        # the C runtime linked back in: another link line, another plan
        monkeypatch.setattr(flags_mod, "SHARED_LINK", ("-shared",))
        clear_compiled_memo()
        runtime = compile_plan(program)
        assert runtime.compiler["link"] == ["-shared"]
        assert freestanding.source_hash != runtime.source_hash
        assert freestanding.so_path != runtime.so_path
        # both objects exist side by side: nothing was silently reused
        assert freestanding.so_path.exists() and runtime.so_path.exists()
        readelf = shutil.which("readelf")
        if readelf is not None:
            assert any("(NEEDED)" in line for line in
                       _tool(readelf, "-d", str(runtime.so_path)))
        clear_compiled_memo()

    def test_the_freestanding_link_changes_no_bit(self, ladder, tmp_path):
        rng = np.random.default_rng(43)
        for (n, nu), plan in ladder.items():
            old = _linked_the_old_way(plan, tmp_path)
            for b in (1, 3):
                X = (rng.standard_normal((b, n))
                     + 1j * rng.standard_normal((b, n))).astype(COMPLEX)
                new = _results(plan, X)
                assert new == _results(old, X), (n, nu, b)
                assert len(set(new)) == 1, (n, nu, b)
                np.testing.assert_allclose(
                    np.frombuffer(new[0], COMPLEX).reshape(b, n),
                    np.fft.fft(X, axis=-1), atol=1e-9 * n, rtol=1e-9,
                )

    def test_a_plan_runs_in_a_spawn_child(self, ladder, monkeypatch):
        """A fresh interpreter (the process pool's start method) finds the
        plan on disk, binds the two libc symbols from its own libc, and
        computes the parent's bits."""
        plan = ladder[1024, 4]
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(plan.so_path.parent))
        rng = np.random.default_rng(7)
        X = (rng.standard_normal((3, 1024))
             + 1j * rng.standard_normal((3, 1024))).astype(COMPLEX)
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            so, Y = pool.apply(_run_in_child, (1024, 4, X))
        assert so == str(plan.so_path)  # a disk hit: the same object
        assert Y.tobytes() == plan.plan_stages().whole(X, True).tobytes()


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
