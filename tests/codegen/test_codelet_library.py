"""A plan object is three artifacts: codelet objects, a table blob, a unit.

What ``cc`` sees per plan is only what is new in the plan.  The first
class needs no compiler (it pins what the emitter hands over: the blob's
bytes are the text tables' values exactly, a library codelet is the static
one under another head line, the unit carries neither); the rest build
into a private cache and check what lands there, what is counted, what a
damaged object does, and that concurrent builders — threads, and spawned
processes sharing the directory — publish whole files only.
"""

from __future__ import annotations

import ctypes
import hashlib
import multiprocessing
import re
import threading
import warnings

import numpy as np
import pytest

from repro.codegen import registry
from repro.codegen.c_emit import (
    CACHE_LINE,
    CODELET_STEM,
    CodeletDef,
    Table,
    TableBlob,
    codelet_formula,
    emit_stage_functions,
)
from repro.codegen.compiled_backend import (
    CodeletCompileError,
    clear_compiled_memo,
    compile_plan,
    compiled_available,
    emit_plan_source,
)
from repro.codegen.unroll import Codelet
from repro.frontend import generate_fft
from repro.rewrite import expand_dft
from repro.serve.batch_exec import run_batched
from repro.sigma import lower
from repro.smp.runtime import FusedStages, SequentialRuntime
from repro.spl import DFT
from repro.trace import Tracer, tracing

needs_cc = pytest.mark.skipif(
    not compiled_available(), reason="no usable C compiler on this host"
)


def _program(n, threads=1, nu=1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return generate_fft(n, threads=threads, mu=4, nu=nu).program


def _source(program, codelet_max=32):
    return emit_stage_functions(program, codelet_max)


def _verify(plan, n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    y, _ = run_batched(plan.plan_stages(), n, x, SequentialRuntime())
    np.testing.assert_allclose(
        y, np.fft.fft(x, axis=-1), atol=1e-9 * n, rtol=1e-9
    )


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_CODELET_CACHE_MAX", raising=False)
    clear_compiled_memo()
    yield tmp_path
    clear_compiled_memo()


class TestThreeProducts:
    PROGRAMS = {
        "index-tables-and-lane-planes":
            lambda: (_program(2 ** 11, threads=2, nu=4), 32),
        "interleaved-twiddles": lambda: (_program(2 ** 11), 32),
        "dense-kmat":
            lambda: (lower(expand_dft(DFT(64), "balanced", min_leaf=8)), 4),
    }

    @pytest.mark.parametrize("make", PROGRAMS.values(), ids=PROGRAMS)
    def test_blob_holds_the_text_tables_values_exactly(self, make, tmp_path):
        program, codelet_max = make()
        tables = _source(program, codelet_max).tables
        assert tables
        blob = TableBlob(tables)
        path = tmp_path / "plan.tab"
        with open(path, "wb") as fh:
            blob.write(fh)
        data = path.read_bytes()
        assert len(data) == blob.nbytes
        assert hashlib.sha256(data).hexdigest()[:16] == blob.digest
        for table in tables:
            decl, _, body = table.to_c().partition(" = {")
            assert decl == (
                f"static const {table.ctype} {table.name}[{table.values.size}]"
            )
            dtype = np.int32 if table.ctype == "int" else np.float64
            # what a C compiler reads from the text (repr round-trips)
            parsed = np.array(
                [float(tok) for tok in body.rstrip("};").split(",")]
            ).astype(dtype)
            at = blob.offsets[table.name]
            assert at % CACHE_LINE == 0
            stored = np.frombuffer(data, dtype, parsed.size, at)
            assert stored.tobytes() == parsed.tobytes()  # bit for bit

    def test_identical_tables_are_stored_once(self):
        tables = _source(_program(2 ** 12, nu=4)).tables
        blob = TableBlob(tables)
        total = sum(t.flat().nbytes for t in tables)
        by_offset: dict = {}
        for t in tables:
            by_offset.setdefault(blob.offsets[t.name], []).append(t)
        shared = [ts for ts in by_offset.values() if len(ts) > 1]
        assert shared
        for ts in shared:
            assert len({t.flat().tobytes() for t in ts}) == 1
        # every repeated byte is saved, none else: 67,584 B of tables in
        # 66,560 — stages 1 and 3 share one 2 x 512 B broadcast pair (it
        # was 221,184 in 151,552 while they carried whole planes and
        # ``int`` tables, most of what there was to share)
        repeated = sum(t.flat().nbytes for ts in shared for t in ts[1:])
        assert repeated == 1024 and blob.nbytes == total - repeated == 66560

    def test_dedupe_is_by_content_not_by_name(self):
        a = Table("a", np.arange(5))
        b = Table("b", np.arange(5).astype(np.int64))
        c = Table("c", np.arange(5) + 1)
        blob = TableBlob([a, c, b])
        assert blob.offsets == {"a": 0, "c": CACHE_LINE, "b": 0}
        assert blob.nbytes == CACHE_LINE + 5 * 4

    def test_the_unit_declares_and_binds_and_defines_neither(self):
        program = _program(2 ** 12, nu=4)
        text = emit_plan_source(program)
        source = _source(program)
        assert len(text) < 16_000  # 180-500 KB with the tables printed
        assert "static const" not in text and "static void" not in text
        for table in source.tables:
            assert text.count(f"extern const {table.ctype} {table.name}[") == 1
            assert text.count(f".set {table.name}, repro_tables+") == 1
        for codelet in source.codelets:
            assert f"#define {codelet.name} {codelet.symbol}\n" in text
        assert TableBlob(source.tables).digest in text

    def test_a_table_value_moves_the_unit_text(self):
        program = _program(256)
        before = emit_plan_source(program)
        scaled = next(
            lp for st in program.stages for lp in st.loops
            if lp.pre_scale is not None
        )
        scaled.pre_scale = scaled.pre_scale.copy()  # may alias a shared array
        w = scaled.pre_scale[1, 1]
        scaled.pre_scale[1, 1] = complex(np.nextafter(w.real, 2), w.imag)
        after = emit_plan_source(program)
        assert before != after
        strip = lambda text: re.sub(r"\(sha256 \w+\)", "", text)  # noqa: E731
        assert strip(before) == strip(after)  # only the digest moved

    def test_library_codelet_is_the_static_one_renamed(self):
        for k, nu in ((8, 1), (16, 4), (32, 2)):
            codelet = Codelet.from_formula(codelet_formula(DFT(k)), "local7")
            cdef = CodeletDef("local7", nu, codelet)
            static, library = cdef.to_c(), cdef.definition
            assert static.startswith("static __attribute__((optimize(")
            assert "void local7(" in static.split("\n")[0]
            assert library.startswith(
                '__attribute__((visibility("hidden"))) __attribute__'
            )
            assert f" void {CODELET_STEM}(" in library.split("\n")[0]
            assert static.split("\n")[1:] == library.split("\n")[1:]
            obj = cdef.object_source()
            assert f"#define {CODELET_STEM} {cdef.symbol}\n" in obj
            assert obj.endswith(library)

    def test_symbol_is_derived_from_content_alone(self):
        def cdef(k, nu, name):
            return CodeletDef(
                name, nu, Codelet.from_formula(codelet_formula(DFT(k)), name)
            )

        assert cdef(8, 4, "vcodelet0_v4").symbol == \
            cdef(8, 4, "vcodelet3_v4").symbol
        assert cdef(8, 4, "x").object_source() == cdef(8, 4, "y").object_source()
        symbols = {cdef(k, nu, "c").symbol for k in (8, 16) for nu in (1, 2, 4)}
        assert len(symbols) == 6
        assert all(
            re.fullmatch(CODELET_STEM + r"_[0-9a-f]{16}", s) for s in symbols
        )


@needs_cc
class TestBuild:
    def test_counters_say_what_was_built(self, cache):
        with tracing(Tracer()) as tr:
            first = compile_plan(_program(64, nu=4))      # 8 x 8
            second = compile_plan(_program(128, nu=4))    # 8 x 16
            total = tr.counter_total
            assert total("codegen.compile") == 2
            assert total("codegen.codelet_compile") == 2  # size 8, size 16
            assert total("codegen.codelet_hit") == 1      # size 8 again
            assert total("codegen.table_bytes") == sum(
                TableBlob(_source(_program(n, nu=4)).tables).nbytes
                for n in (64, 128)
            )
            clear_compiled_memo()
            again = compile_plan(_program(64, nu=4))
            assert total("codegen.disk_hit") == 1
            assert total("codegen.compile") == 2
            assert total("codegen.codelet_compile") == 2
            assert total("codegen.codelet_hit") == 1
            assert compile_plan(_program(64, nu=4)) is again
            assert total("codegen.memo_hit") == 1
        assert set(first.codelets) < set(second.codelets)
        assert again.artifact_info() == first.artifact_info()
        _verify(second, 128)

    def test_artifact_record_names_the_build_inputs(self, cache):
        plan = compile_plan(_program(512, nu=4))  # 16 x 32
        info = plan.artifact_info()
        assert len(info["codelets"]) == 2
        for key in info["codelets"]:
            assert (cache / f"codelet_{key}.o").exists()
            assert (cache / f"codelet_{key}.c").exists()
        tab = plan.so_path.with_suffix(".tab")
        assert hashlib.sha256(tab.read_bytes()).hexdigest()[:16] == \
            info["tables"]
        assert info["tables"] in plan.so_path.with_suffix(".c").read_text()
        # exactly one file the harness's cold-build proof counts
        assert [p.name for p in cache.glob("plan_*.so")] == [plan.so_path.name]
        assert not list(cache.glob("build_*"))

    def test_only_the_plan_abi_is_exported(self, cache):
        program = _program(256, nu=4)
        source = _source(program)
        lib = ctypes.CDLL(str(compile_plan(program).so_path))
        assert lib.repro_plan and lib.repro_stage0
        hidden = [c.symbol for c in source.codelets]
        hidden += [t.name for t in source.tables] + ["repro_tables"]
        for name in hidden:
            with pytest.raises(AttributeError):
                getattr(lib, name)

    def test_a_plan_without_tables_has_no_table_file(self, cache):
        program = lower(DFT(8))  # one stage, one codelet, closed-form grids
        assert not _source(program).tables
        plan = compile_plan(program)
        assert plan.tables == "" and len(plan.codelets) == 1
        assert sorted(p.suffix for p in cache.glob("plan_*")) == [".c", ".so"]
        _verify(plan, 8)

    def test_a_damaged_object_fails_the_link(self, cache):
        """A torn ``codelet_*.o`` can only come from outside (publishes
        are atomic); it must be a compile error — the NumPy fallback —
        never a crash or a plan linked from half an object."""
        good = compile_plan(_program(64))
        (obj,) = cache.glob("codelet_*.o")
        whole = obj.read_bytes()
        neighbour = _program(64, threads=2)  # the same size-8 codelet
        compiled = registry.get_backend("compiled")
        for damaged in (b"", whole[: len(whole) // 2]):
            obj.write_bytes(damaged)
            with pytest.raises(CodeletCompileError):
                compiled.build_stages(neighbour, fallback=False)
            assert not list(cache.glob("build_*"))
            assert [p.name for p in cache.glob("plan_*.so")] == \
                [good.so_path.name]
        registry._WARNED.discard("compiled")
        with tracing(Tracer()) as tr, pytest.warns(RuntimeWarning):
            stages = compiled.build_stages(neighbour)
        assert tr.counter_total("codegen.compile_fallback") == 1
        assert not isinstance(stages, FusedStages)  # NumPy's
        obj.write_bytes(whole)
        _verify(compile_plan(neighbour), 64)


#: four plans over the size-8 scalar codelet; 128 = 8 x 16 adds a second
SHARING = [(64, 1), (64, 2), (128, 1), (128, 2)]


def _build_into(cache, n, threads):
    """Process-pool-worker-shaped builder: its own interpreter, one cache."""
    import os

    os.environ["REPRO_CODELET_CACHE"] = str(cache)
    _verify(compile_plan(_program(n, threads=threads)), n)


@needs_cc
class TestConcurrentBuilders:
    def _assert_whole_files_only(self, cache, plans):
        assert len(list(cache.glob("plan_*.so"))) == plans
        objects = sorted(cache.glob("codelet_*.o"))
        assert len(objects) == 2  # one per distinct codelet, not per plan
        residue = [
            p.name for p in cache.iterdir()
            if not re.fullmatch(
                r"(plan_\d+_\w{16}\.(so|c|tab)|codelet_\w{16}\.(o|c))", p.name
            )
        ]
        assert residue == []
        # every object on disk is whole: a later plan links and verifies
        clear_compiled_memo()
        _verify(compile_plan(_program(256)), 256)  # 16 x 16
        assert sorted(cache.glob("codelet_*.o")) == objects

    def test_threads_sharing_one_codelet(self, cache):
        programs = [_program(n, threads=t) for n, t in SHARING]
        start = threading.Barrier(len(programs))
        built: list = [None] * len(programs)

        def build(i):
            start.wait(timeout=30)
            built[i] = compile_plan(programs[i])

        workers = [
            threading.Thread(target=build, args=(i,))
            for i in range(len(programs))
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
        assert not any(w.is_alive() for w in workers)
        for plan, (n, _) in zip(built, SHARING):
            _verify(plan, n)
        self._assert_whole_files_only(cache, len(SHARING))

    def test_processes_sharing_one_cache(self, cache):
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_build_into, args=(cache, n, t))
            for n, t in SHARING[1:3]  # both need size 8; one adds size 16
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert [p.exitcode for p in procs] == [0, 0]
        self._assert_whole_files_only(cache, 2)
