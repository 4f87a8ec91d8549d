"""The whole-plan call against the stage walk it replaces.

A compiled plan's stage sequence (``CompiledPlan.plan_stages()``, a
:class:`~repro.smp.runtime.FusedStages`) carries one call that runs every
stage inside the shared object; :class:`SequentialRuntime` takes it, every
pool and the tracer still walk stage by stage.  Pinned here:

* **bit for bit** — the one call and the walk run the same C functions in
  the same order per row (the chain runs a row through every stage before
  the next row, over a one-row scratch): equal outputs, equal
  ``ExecutionStats``;
* **the result starts on a cache line and owns its memory** — wherever the
  input sits in its line;
* **only the sequence as built is fused** — every derived or edited list is
  walked, counted by wrapping ``work`` and by spying on the chain;
* **tracing keeps its stages** — one ``smp`` span and one
  ``smp.stage_wall_s`` count per stage, the chain never entered;
* **the input is read, never written, never assumed aligned** — read-only,
  misaligned, strided, ``complex64`` and zero-row inputs, on both paths;
* **concurrent callers share nothing**, and a failed scratch allocation is
  a ``MemoryError``;
* **the call is its C call plus a few Python steps** — one chain entry, no
  NumPy ``.ctypes`` object for a writable input, a fixed count of frames;
* **a stage closure refuses what C would overrun** — the wrong dtype, a
  short ``dst``, a size that is not a multiple of ``n``;
* **a stage run in place changes no bit** — with the L2 reading forced
  down so that the rule fires at every size, the chain equals the stage
  walk and the three-buffer chain, ``x`` untouched, ``restrict`` gone from
  exactly the stages it runs in place, a scratch only when two or more
  stages move data.

Everything needs a C compiler; the ``no-compiler`` lane skips the module.
"""

from __future__ import annotations

import ctypes
import dataclasses
import gc
import os
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.codegen import flags
from repro.codegen.c_emit import CHAIN_MARKER, emit_plan_unit
from repro.codegen.compiled_backend import (
    DEFAULT_CODELET_MAX,
    compile_plan,
    compiled_available,
    emit_plan_source,
    find_compiler,
    run_cc,
)
from repro.codegen.flags import shared_cflags
from repro.frontend import feasible_threads, generate_fft
from repro.mp import PlanSpec, ProcessPoolRuntime
from repro.serve.batch_exec import run_batched
from repro.serve.plan_cache import build_plan
from repro.smp.runtime import (
    ExecutionStats,
    FusedStages,
    PThreadsRuntime,
    SequentialRuntime,
)
from repro.spl.expr import COMPLEX
from repro.trace import Tracer, tracing

pytestmark = pytest.mark.skipif(
    not compiled_available(), reason="no usable C compiler on this host"
)

SEQ = SequentialRuntime()


def _stack(rng, b, n):
    return (
        rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))
    ).astype(COMPLEX)


def _plan(n, threads=1, nu=1):
    """The compiled plan for ``(n, threads, nu)`` (threads clamped, an
    inadmissible nu devectorized — both as serving would)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        gen = generate_fft(n, threads=feasible_threads(n, threads, 4), nu=nu)
    return compile_plan(gen.program)


def _spied(plan):
    """``plan``'s stages with every entry into the chain counted."""
    calls = []

    def chain(b, x, y):
        calls.append(b)
        return plan._chain(b, x, y)

    return dataclasses.replace(plan, _chain=chain).plan_stages(), calls


@pytest.fixture(scope="module")
def pthreads2():
    with PThreadsRuntime(2) as rt:
        yield rt


# -- bit for bit --------------------------------------------------------------


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("nu", [1, 4])
@pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
def test_whole_plan_equals_the_stage_walk(k, nu, threads, rng, pthreads2):
    n = 1 << k
    stages, calls = _spied(_plan(n, threads, nu))
    assert isinstance(stages, FusedStages)
    par = sum(st.parallel for st in stages)
    want_stats = ExecutionStats(
        barriers=0, parallel_stages=par, sequential_stages=len(stages) - par,
    )
    for b in (1, 3):
        X = _stack(rng, b, n)
        keep = X.copy()
        fused, fused_stats = run_batched(stages, n, X, SEQ)
        assert calls == [b]
        walked, walked_stats = run_batched(list(stages), n, X, SEQ)
        assert calls == [b]
        calls.clear()
        np.testing.assert_array_equal(fused, walked)
        np.testing.assert_array_equal(X, keep)
        assert fused_stats == walked_stats == want_stats
        # the plan's one record, which no caller can change under it
        assert run_batched(stages, n, X, SEQ)[1] is stages.stats
        with pytest.raises(dataclasses.FrozenInstanceError):
            fused_stats.barriers = 1
        calls.clear()
        np.testing.assert_allclose(
            fused, np.fft.fft(X, axis=-1), atol=1e-9 * n, rtol=1e-9
        )
        if max(st.nprocs for st in stages) == 2:
            # the service's fallback after a pool death runs the pool's
            # plan sequentially: same stages, same answer
            pooled, pool_stats = run_batched(stages, n, X, pthreads2)
            np.testing.assert_array_equal(pooled, fused)
            assert pool_stats.parallel_stages == par
            assert calls == []


@pytest.mark.parametrize("k,nstages", [(1, 1), (11, 3)])
def test_every_stage_count_lands_in_the_result(k, nstages, rng):
    """One stage: ``x -> y``, no scratch at all.  An odd count:
    ``x -> y -> t -> y``."""
    n = 1 << k
    plan = _plan(n)
    assert plan.nstages == nstages
    trailer = plan.so_path.with_suffix(".c").read_text().partition(
        CHAIN_MARKER
    )[2]
    assert ("posix_memalign(" in trailer) == (nstages > 1)
    stages, calls = _spied(plan)
    X = _stack(rng, 3, n)
    fused, _ = run_batched(stages, n, X, SEQ)
    assert calls == [3]
    np.testing.assert_array_equal(
        fused, run_batched(list(stages), n, X, SEQ)[0]
    )
    np.testing.assert_allclose(
        fused, np.fft.fft(X, axis=-1), atol=1e-9 * n, rtol=1e-9
    )


@pytest.mark.parametrize("offset", [0, 16, 48])
@pytest.mark.parametrize("b", [0, 1, 3, 8])
def test_row_resident_chain_on_line_aligned_buffers(b, offset, rng):
    """Rows are independent, so row-outermost equals stage-outermost bit
    for bit; the input is read where it lies (0 / 16 / 48 bytes into a
    line, read-only), the result is 64-byte aligned, and the only thing
    that outlives the call is the result's own allocation."""
    n = 4096
    plan = _plan(n, nu=4)
    assert plan.nstages == 4
    raw = np.empty(b * n * 16 + 128, np.uint8)
    start = -raw.ctypes.data % 64 + offset
    X = raw[start:start + b * n * 16].view(COMPLEX).reshape(b, n)
    X[...] = _stack(rng, b, n)
    X.flags.writeable = False
    assert not b or X.ctypes.data % 64 == offset
    stages, calls = _spied(plan)
    fused, _ = run_batched(stages, n, X, SEQ)
    assert calls == [b]
    np.testing.assert_array_equal(
        fused, run_batched(list(stages), n, X, SEQ)[0]
    )
    assert fused.shape == (b, n)
    assert not b or fused.ctypes.data % 64 == 0
    owner = fused.base
    assert owner.base is None and owner.flags.owndata
    assert owner.size == b * n + 4  # one line longer, nothing more
    del owner
    holders = sys.getrefcount(fused.base)
    assert holders == 2  # the result's reference, and this call's


def test_the_scratch_is_one_row_whatever_the_batch():
    n = 4096
    trailer = emit_plan_source(generate_fft(n, nu=4).program).partition(
        CHAIN_MARKER
    )[2]
    head, _, body = trailer.partition("for (long r = 0; r < b; ++r")
    assert f"posix_memalign(&line, 64, {2 * n} * sizeof(double))" in head
    assert "b *" not in head and "b*" not in head
    assert body.count("repro_stage") == 4 and body.count("(0, 1, ") == 4


def test_portable_flag_tier_through_the_chain(rng, monkeypatch):
    """``REPRO_NO_SIMD=1``: scalar plan, ``-O2`` object, same contract."""
    n = 256
    monkeypatch.setenv("REPRO_NO_SIMD", "1")
    plan = _plan(n, nu=4)
    assert "-march=native" not in plan.compiler["flags"]
    stages, calls = _spied(plan)
    X = _stack(rng, 3, n)
    fused, _ = run_batched(stages, n, X, SEQ)
    assert calls == [3]
    np.testing.assert_array_equal(
        fused, run_batched(list(stages), n, X, SEQ)[0]
    )
    np.testing.assert_allclose(
        fused, np.fft.fft(X, axis=-1), atol=1e-9 * n, rtol=1e-9
    )


# -- a stage run in place -----------------------------------------------------


def _compiled_under_l2(monkeypatch, l2, program):
    """``program`` compiled as on a host whose L2 reads ``l2`` bytes."""
    with monkeypatch.context() as patch:
        patch.setattr(flags, "l2_cache_bytes", lambda: l2)
        return compile_plan(program)


def _scatters_where_it_gathers(stage):
    return all(np.array_equal(lp.gather, lp.scatter) for lp in stage.loops)


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("nu", [1, 2, 4])
@pytest.mark.parametrize("k", range(2, 13))
def test_the_in_place_chain_changes_no_bit(k, nu, threads, rng, monkeypatch):
    """The rule forced to fire — two rows (``32 n`` bytes) exactly the L2
    — against the same plan one byte of L2 later, which runs every stage
    out of place: equal to each other and to the stage walk bit for bit,
    ``x`` never written, whichever buffer the result is asked into."""
    n = 1 << k
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        program = generate_fft(
            n, threads=feasible_threads(n, threads, 4), nu=nu
        ).program
    three = _compiled_under_l2(monkeypatch, 32 * n + 1, program)
    forced = _compiled_under_l2(monkeypatch, 32 * n, program)
    assert three.in_place == ()
    assert forced.in_place == tuple(
        sid for sid, st in enumerate(program.stages)
        if sid and _scatters_where_it_gathers(st)
    )
    assert forced.artifact_info()["in_place"] == list(forced.in_place)

    text = forced.so_path.with_suffix(".c").read_text()
    heads = [ln for ln in text.splitlines()
             if ln.startswith("void repro_stage")]
    assert [sid for sid, head in enumerate(heads)
            if "restrict" not in head] == list(forced.in_place)
    trailer = text.partition(CHAIN_MARKER)[2]
    moving = forced.nstages - len(forced.in_place)
    assert ("posix_memalign(" in trailer) == (moving >= 2)
    named = ", ".join(map(str, forced.in_place))
    assert (trailer.splitlines()[1] == f"/* in place (two rows >= L2):"
            f" stages {named} */") == bool(forced.in_place)

    stages, calls = _spied(forced)
    three_stages = three.plan_stages()
    for b in (0, 1, 3):
        X = _stack(rng, b, n)
        keep = X.copy()
        got, _ = run_batched(stages, n, X, SEQ)
        assert calls == [b]
        calls.clear()
        walked, _ = run_batched(list(stages), n, X, SEQ)
        np.testing.assert_array_equal(got, walked)
        np.testing.assert_array_equal(
            got, run_batched(three_stages, n, X, SEQ)[0]
        )
        np.testing.assert_array_equal(X, keep)
        # ... and stored straight into a caller's out at 16 mod 64
        raw = np.empty(b * n * 16 + 128, np.uint8)
        start = -raw.ctypes.data % 64 + 16
        out = raw[start:start + b * n * 16].view(COMPLEX).reshape(b, n)
        assert SEQ.run_stages(stages, n, X, None, out)[0] is out
        assert calls == [b]
        calls.clear()
        np.testing.assert_array_equal(out, got)
        np.testing.assert_array_equal(X, keep)
    np.testing.assert_allclose(
        got, np.fft.fft(X, axis=-1), atol=1e-9 * n, rtol=1e-9
    )


def test_the_rule_follows_the_l2(monkeypatch):
    """Two rows of 2^16 are 2 MiB: an L2 of 2 MiB runs stages 1 and 3 in
    place; one byte more, or no reading at all, is the three-buffer chain
    with ``restrict`` on every stage."""
    program = generate_fft(1 << 16, nu=4).program
    texts = {}
    for l2 in (None, (2 << 20) + 1, 2 << 20):
        with monkeypatch.context() as patch:
            patch.setattr(flags, "l2_cache_bytes", lambda: l2)
            texts[l2] = emit_plan_source(program)
    assert texts[None] == texts[(2 << 20) + 1]
    assert texts[None].count("restrict srcd") == 4
    trailer = texts[2 << 20].partition(CHAIN_MARKER)[2]
    assert texts[2 << 20].count("restrict srcd") == 2
    assert "/* in place (two rows >= L2): stages 1, 3 */" in trailer
    body = trailer.partition("for (long r = 0; r < b; ++r")[2]
    assert [ln.strip() for ln in body.splitlines()[1:5]] == [
        "repro_stage0(0, 1, x, t);",
        "repro_stage1(0, 1, t, t);",
        "repro_stage2(0, 1, t, y);",
        "repro_stage3(0, 1, y, y);",
    ]


# -- only the sequence as built is fused --------------------------------------


def test_derived_and_edited_lists_are_walked(rng):
    n = 1024
    stages, calls = _spied(_plan(n, threads=2, nu=4))
    shares = sum(st.nprocs for st in stages)
    assert shares > len(stages)
    X = _stack(rng, 2, n)
    want, _ = run_batched(stages, n, X, SEQ)
    assert calls == [2]
    calls.clear()

    worked = []

    def counting(st):
        def work(proc, src, dst):
            worked.append(proc)
            st.work(proc, src, dst)

        return dataclasses.replace(st, work=work)

    edited = list(stages)
    edited[0] = counting(edited[0])
    for derived, count in [
        ([counting(st) for st in stages], shares),
        (edited, stages[0].nprocs),
        (list(stages), 0),
        (tuple(stages), 0),
        (stages[:], 0),
        (stages + (), 0),
    ]:
        assert not isinstance(derived, FusedStages)
        got, _ = run_batched(derived, n, X, SEQ)
        np.testing.assert_array_equal(got, want)
        assert len(worked) == count
        worked.clear()
    assert calls == []

    # and the sequence itself cannot be edited into disagreeing with its chain
    with pytest.raises(TypeError):
        stages[0] = counting(stages[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        stages[0].work = counting(stages[0]).work


def test_tracing_keeps_one_span_per_stage(rng):
    n = 1024
    stages, calls = _spied(_plan(n, nu=4))
    X = _stack(rng, 2, n)
    want, _ = run_batched(stages, n, X, SEQ)
    calls.clear()
    with tracing(Tracer()) as tr:
        got, stats = run_batched(stages, n, X, SEQ)
    assert calls == []
    np.testing.assert_array_equal(got, want)
    spans = [ev for ev in tr.events if ev.cat == "smp" and ev.ph == "X"]
    assert [ev.args["stage"] for ev in spans] == list(range(len(stages)))
    assert len(tr.counter_items("smp.stage_wall_s")) == len(stages)
    assert stats.parallel_stages + stats.sequential_stages == len(stages)


def test_pools_walk_the_same_sequence(rng, pthreads2):
    n = 1024
    plan = build_plan(PlanSpec.for_request(
        n, threads=2, backend="compiled", nu=4
    ))
    assert isinstance(plan.stages, FusedStages)
    X = _stack(rng, 3, n)
    want, _ = SEQ.run(plan, X)
    np.testing.assert_array_equal(
        want, run_batched(list(plan.stages), n, X, SEQ)[0]
    )
    with ProcessPoolRuntime(2) as procs:
        for rt in (pthreads2, procs):
            got, stats = rt.run(plan, X)
            np.testing.assert_array_equal(got, want)
            assert stats.barriers > 0


# -- the input boundary -------------------------------------------------------


def _as_built(stages):
    return stages


@pytest.fixture(scope="module")
def plan256():
    return _plan(256, nu=4)


@pytest.mark.parametrize("path", [_as_built, list], ids=["whole", "walked"])
class TestInputIsReadNeverWritten:
    n = 256

    def _check(self, path, plan, X, exact=True):
        stages, calls = _spied(plan)
        before = X.tobytes()
        got, _ = run_batched(path(stages), self.n, X, SEQ)
        assert X.tobytes() == before
        assert len(calls) == (path is _as_built)
        want, _ = run_batched(
            list(stages), self.n, np.array(X, dtype=COMPLEX, order="C"), SEQ
        )
        np.testing.assert_array_equal(got, want)
        return got

    def test_zero_rows(self, path, plan256):
        got = self._check(path, plan256, np.empty((0, self.n), COMPLEX))
        assert got.shape == (0, self.n) and got.dtype == COMPLEX

    def test_read_only_wire_payload(self, path, plan256, rng):
        X = np.frombuffer(
            _stack(rng, 2, self.n).tobytes(), dtype="<c16"
        ).reshape(2, self.n)
        assert not X.flags.writeable
        self._check(path, plan256, X)

    def test_misaligned(self, path, plan256, rng):
        buf = b"\0" + _stack(rng, 1, self.n).tobytes()
        X = np.frombuffer(buf, dtype="<c16", offset=1, count=self.n)
        assert X.flags.c_contiguous and not X.flags.aligned
        self._check(path, plan256, X)

    def test_non_contiguous(self, path, plan256, rng):
        X = _stack(rng, 6, self.n)[::2]
        assert not X.flags.c_contiguous
        self._check(path, plan256, X)
        cols = _stack(rng, 2, 2 * self.n)[:, ::2]
        self._check(path, plan256, cols)

    def test_complex64(self, path, plan256, rng):
        X = _stack(rng, 2, self.n).astype(np.complex64)
        got = self._check(path, plan256, X)
        assert got.dtype == COMPLEX

    def test_wrong_width_is_refused(self, path, plan256, rng):
        stages, calls = _spied(plan256)
        with pytest.raises(ValueError, match="stack"):
            run_batched(path(stages), self.n, _stack(rng, 2, 128), SEQ)
        assert calls == []


def test_failed_scratch_allocation_is_a_memory_error(plan256, rng, tmp_path):
    n = 256
    assert plan256.nstages > 1
    # the chain allocates its one row before it runs any stage and returns
    # non-zero, having touched neither buffer, when it cannot: the same
    # program's single-file unit, built against an allocator that refuses
    # (the scratch is one row whatever ``b``, so no row count exhausts it)
    cc = find_compiler()
    unit = emit_plan_unit(
        generate_fft(n, nu=4).program, DEFAULT_CODELET_MAX, linked=False
    )
    (tmp_path / "plan.c").write_text(unit.text)
    (tmp_path / "nomem.c").write_text(
        "int nomem(void **p, unsigned long a, unsigned long n) { return 12; }"
    )
    run_cc(
        cc,
        [*shared_cflags(cc), "-shared", "-Dposix_memalign=nomem",
         "-o", "plan.so", "plan.c", "nomem.c", "-lm"],
        tmp_path,
    )
    chain = ctypes.CDLL(str(tmp_path / "plan.so")).repro_plan
    chain.argtypes = [ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
    X = _stack(rng, 2, n)
    Y = np.full_like(X, 7.0)
    before = X.copy()
    assert chain(2, X.ctypes.data, Y.ctypes.data) != 0
    assert (Y == 7.0).all() and np.array_equal(X, before)
    # ... which the runtime turns into the caller's exception
    failing = dataclasses.replace(plan256, _chain=lambda b, x, y: 1)
    with pytest.raises(MemoryError, match="scratch"):
        run_batched(failing.plan_stages(), n, X, SEQ)


def test_concurrent_callers_of_one_plan_share_nothing(plan256, rng):
    """The service's fallback, the tuner and a request thread can all be
    inside one cached plan's whole-plan call at once."""
    n, workers, rounds = 256, 4, 200
    stages = plan256.plan_stages()
    inputs = [_stack(rng, 1 + i, n) for i in range(workers)]
    serial = [run_batched(stages, n, X, SEQ)[0] for X in inputs]
    wrong = [0] * workers
    start = threading.Barrier(workers)

    def hammer(i):
        start.wait(timeout=30)
        for _ in range(rounds):
            got, _ = run_batched(stages, n, inputs[i], SequentialRuntime())
            wrong[i] += not np.array_equal(got, serial[i])

    threads = [
        threading.Thread(target=hammer, args=(i,)) for i in range(workers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [0] * workers


# -- what the call costs in Python --------------------------------------------

#: every Python frame one whole-plan ``run_batched`` enters outside this
#: module: ``run_batched``, ``Runtime.run_stages``, ``get_tracer`` and
#: ``whole`` (the plan's ``ExecutionStats`` is built once, with the plan)
CALL_FRAMES = 4


def _frames(fn, *args):
    """``fn(*args)`` under ``sys.setprofile``, and the ``(file, name)`` of
    every Python frame it entered (the collector off, so no finalizer runs
    inside)."""
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append((frame.f_code.co_filename, frame.f_code.co_name))

    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return result, entered


def _numpy_internal(entered):
    """The frames in NumPy's ``_internal.py``, where ``.ctypes`` builds
    its object (one ``__init__`` per array asked)."""
    return [
        (f, name) for f, name in entered
        if os.path.basename(f) == "_internal.py" and "numpy" in f
    ]


def test_the_call_is_its_c_call_plus_a_few_python_steps(rng):
    n = 1024
    stages, calls = _spied(_plan(n, nu=4))
    X = _stack(rng, 1, n)
    want = run_batched(list(stages), n, X, SEQ)[0]
    (got, _), entered = _frames(run_batched, stages, n, X, SEQ)
    np.testing.assert_array_equal(got, want)
    assert calls == [1]
    ours = [(f, name) for f, name in entered if f != __file__]
    assert [name for f, name in entered if f == __file__] == ["chain"]
    assert not _numpy_internal(ours), ours
    assert len(ours) <= CALL_FRAMES, ours

    # a read-only wire payload pays for its one address through NumPy
    calls.clear()
    wire = np.frombuffer(X.tobytes(), dtype=COMPLEX).reshape(1, n)
    (got, _), entered = _frames(run_batched, stages, n, wire, SEQ)
    np.testing.assert_array_equal(got, want)
    assert calls == [1]
    assert [name for _, name in _numpy_internal(entered)].count(
        "__init__"
    ) == 1

    # no rows: nothing to address, and the shape survives
    calls.clear()
    (got, _), entered = _frames(run_batched, stages, n, X[:0], SEQ)
    assert got.shape == (0, n) and calls == [0]
    assert not _numpy_internal(entered)


# -- the staged closure's boundary --------------------------------------------


def test_a_stage_refuses_buffers_c_would_overrun(rng):
    """Each stage function trusts its buffers' length and layout, so the
    closure refuses every pair it cannot vouch for — the wrong dtype on
    either side, a short ``dst``, a size that is not a multiple of ``n``,
    a strided or read-only buffer — with a ``ValueError`` before C, both
    buffers left as they were.  The pools' walks of this plan are pinned
    bit for bit in ``test_pools_walk_the_same_sequence``."""
    n = 1024
    st = _plan(n, threads=2, nu=4).plan_stages()
    src = _stack(rng, 2, n).reshape(-1)
    for bad_src, bad_dst in [
        (src, np.zeros(2 * n, np.complex64)),
        (src, np.zeros(n, COMPLEX)),
        (np.ones(2 * n), np.zeros(2 * n, COMPLEX)),
        (np.ones(n + 4, COMPLEX), np.zeros(n + 4, COMPLEX)),
        (src[::2], np.zeros(n, COMPLEX)),
        (np.frombuffer(src.tobytes(), COMPLEX), np.zeros(2 * n, COMPLEX)),
    ]:
        before = bad_src.tobytes(), bad_dst.tobytes()
        with pytest.raises(ValueError, match="C-contiguous complex128"):
            st[0].work(0, bad_src, bad_dst)
        assert (bad_src.tobytes(), bad_dst.tobytes()) == before
    dst = np.zeros_like(src)
    st[0].work(0, src, dst)
    assert dst.any()
