"""Affine loop nests, explicit ν-lane glue, twiddle planes stored once.

What the C emitter prints for a loop, pinned from the outside:

* **forms** — every gather / scatter table of the default plans and of
  the hunt corpus either recovers as a mixed-radix
  :class:`~repro.sigma.index_map.AffineForm` that reproduces it (and
  recovers again from its own ``indices()``) or stays a table; sequential
  Cooley-Tukey plans recover everywhere, so they carry **no** ``int``
  table;
* **no lane loop** — stage text at every ν (a scalar loop is the one-lane
  case of the same nest) has no ``for (int l = 0;`` outside a codelet
  body, and no ``double complex`` arithmetic: with explicit vectors there
  is no vectorizer decision left to audit;
* **same values, fewer copies** — a twiddle table indexed the way the
  stage text indexes it reads exactly the loop's scale, lane by lane;
* **the table fallback** — maps no form reproduces (lane-contiguous and
  strided) and planes that do not repeat still compile and agree with the
  loop's own semantics, at the native tier and at the portable one
  (``-O2``, no ``-march``: vector extensions lowered to SSE2), and under
  either spelling of the shuffle builtin.
"""

from __future__ import annotations

import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.codegen import generate_c
from repro.codegen.c_backend import compile_and_run
from repro.codegen.c_emit import TableBlob, emit_stage_functions
from repro.codegen.compiled_backend import (
    DEFAULT_CODELET_MAX,
    compile_plan,
    compiled_available,
)
from repro.frontend import generate_fft, spiral_formula
from repro.hunt import load_corpus
from repro.serve.batch_exec import run_batched
from repro.sigma import BlockLoop, SigmaProgram, Stage, lower, recover_affine
from repro.smp.runtime import SequentialRuntime
from repro.spl import DFT
from repro.spl.expr import COMPLEX

needs_cc = pytest.mark.skipif(
    not compiled_available(), reason="no usable C compiler on this host"
)

CORPUS = load_corpus(Path(__file__).parents[1] / "hunt" / "corpus")


def _program(n, nu=1, threads=1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return generate_fft(n, threads=threads, mu=4, nu=nu).program


def _loops(program):
    return [lp for st in program.stages for lp in st.loops]


def _check_forms(program) -> int:
    """Round-trip every table that recovers; returns how many did not."""
    tables = 0
    for lp in _loops(program):
        for table in (lp.gather, lp.scatter):
            form = recover_affine(table, lp.nu)
            if form is None:
                tables += 1
                continue
            np.testing.assert_array_equal(form.indices(), table)
            assert recover_affine(form.indices(), lp.nu) == form
            assert form.lanes == lp.nu and form.cols == table.shape[1]
    return tables


# -- forms --------------------------------------------------------------------


def _grid(full: bool):
    """Tier-1 walks every plan up to 2^10 and the ν = 4 kernels above it;
    ``--full-grid`` (CI's compiled job) walks all of 2^4 .. 2^18."""
    for k in range(4, 19):
        for nu in (1, 2, 4):
            for threads in (1, 2, 4):
                if threads > 1 and 2 ** k % (threads * 4) ** 2:
                    continue
                if full or k <= 10 or (nu, threads) == (4, 1):
                    yield k, nu, threads


def test_default_plans_recover_and_sequential_ones_carry_no_int_table(request):
    for k, nu, threads in _grid(request.config.getoption("--full-grid")):
        program = _program(2 ** k, nu, threads)
        tables = _check_forms(program)
        ints = [
            t.name
            for t in emit_stage_functions(program, DEFAULT_CODELET_MAX).tables
            if t.ctype == "int"
        ]
        assert len(ints) == tables, (k, nu, threads)
        if threads == 1:
            assert not ints, (k, nu, ints)


@pytest.mark.parametrize(
    "repro", [r for _, r in CORPUS], ids=[p.name for p, _ in CORPUS]
)
def test_hunt_corpus_tables_round_trip(repro):
    case = repro.case
    formula = repro.term or spiral_formula(
        case.n, case.threads, case.mu, case.strategy, nu=case.nu
    )
    _check_forms(lower(formula, barrier_mu=case.mu))


def test_sixteen_bit_plan_is_the_nest_the_docs_print():
    """2^16, ν = 4: three digits where there were 384 KiB of ``int``
    tables, and stages 1 and 3 read 2 x 2 KiB where they read 2 x 512.
    The scatter's digits are the codelet's store address: it is handed
    the block's element 0 and the column stride (256 elements, 512
    doubles), and no stage keeps a ``yre`` / ``yim`` block."""
    source = emit_stage_functions(_program(1 << 16, 4), DEFAULT_CODELET_MAX)
    text = "\n".join(source.lines)
    assert "(double *)(d + (0 + (jb%64)*4 + (jb/64)*4096)), 512);" in text
    assert "yre" not in text and "for (int v = 0;" not in text
    assert "(jb%64)*1024 + (jb/64)*1 + u*16 + 256]" in text
    sizes = {t.name: t.flat().nbytes for t in source.tables}
    assert sizes == {
        "wb1_0re": 2048, "wb1_0im": 2048,
        "wv2_0re": 1 << 19, "wv2_0im": 1 << 19,
        "wb3_0re": 2048, "wb3_0im": 2048,
    }


def test_one_lane_plan_stores_what_the_four_lane_plan_stores():
    """2^16 at ν = 1 carried three interleaved twiddle tables the size of
    the data (3 x 1 MiB) while ν = 4 stored each distinct block once; one
    emitter means one table policy, so the blobs are the same size — only
    stage 2's plane, split re/im, is as large as a row."""
    row = (1 << 16) * 16
    blobs = {}
    for nu in (1, 4):
        source = emit_stage_functions(_program(1 << 16, nu), DEFAULT_CODELET_MAX)
        assert all(t.flat().nbytes < row for t in source.tables)
        blobs[nu] = TableBlob(source.tables).nbytes
    assert blobs[1] == blobs[4] == 1_052_672


# -- no lane loop -------------------------------------------------------------


@pytest.mark.parametrize("codelet_max", [0, DEFAULT_CODELET_MAX])
@pytest.mark.parametrize(
    "n,nu,threads",
    [(64, 1, 1), (256, 1, 2), (1024, 1, 1),
     (64, 2, 1), (256, 4, 2), (1024, 4, 1), (4096, 2, 1)],
)
def test_vector_stage_text_has_no_scalar_lane_loop(n, nu, threads, codelet_max):
    program = _program(n, nu, threads)
    assert {lp.nu for lp in _loops(program)} == {nu}
    text = "\n".join(emit_stage_functions(program, codelet_max).lines)
    assert f"v{nu} tre[" in text
    assert "cplx t[" not in text and "_Complex_I" not in text
    assert "for (int l = 0;" not in text
    assert not re.search(r"for \(int l\b", text)


# -- same values, fewer copies ------------------------------------------------

_READ = re.compile(r"\b([wv][bv]\d+_\d+)re(?:\[| \+ \()([^\];]+?)(?:\]|\)\*\d+\))")


@pytest.mark.parametrize("n", [1 << 11, 1 << 12, 1 << 14])
@pytest.mark.parametrize("nu", [1, 2, 4])
def test_twiddle_tables_read_the_loops_own_scale(n, nu):
    program = _program(n, nu)
    source = emit_stage_functions(program, DEFAULT_CODELET_MAX)
    tables = {t.name: t.values for t in source.tables}
    reads = dict(_READ.findall("\n".join(source.lines)))
    assert any(name[1] == "b" for name in reads)  # a broadcast table exists
    seen = 0
    for sid, stage in enumerate(program.stages):
        for lid, lp in enumerate(stage.loops):
            for kind, scale, col in (
                ("w", lp.pre_scale, "u"), ("v", lp.post_scale, "v")
            ):
                if scale is None:
                    continue
                (name, index), = [
                    it for it in reads.items()
                    if it[0][0] == kind and it[0][2:] == f"{sid}_{lid}"
                ]
                rows, k = scale.shape
                jb = np.arange(rows // nu)[:, None]
                at = eval(  # the C index expression, over every (jb, col)
                    index.replace("/", "//"),
                    {"jb": jb, col: np.arange(k)[None, :]},
                )
                stored = tables[name + "re"] + 1j * tables[name + "im"]
                got = stored.reshape(-1, *stored.shape[2:])[at]
                want = scale.reshape(rows // nu, nu, k).transpose(0, 2, 1)
                if name[1] == "b":
                    got = got[..., None]
                assert np.array_equal(np.broadcast_to(got, want.shape), want)
                seen += 1
    assert seen == len(reads)


# -- the table fallback -------------------------------------------------------


def _irregular_program(nu: int, rng) -> SigmaProgram:
    """Two stages of ``DFT_4`` loops over 64 points no form reproduces:
    stage 0 gathers strided lanes through a shuffled table and scatters
    lane-contiguous blocks in shuffled order; stage 1 does the reverse,
    under planes that do not repeat (stage 0) and that repeat per block
    with the lanes differing (stage 1)."""
    n, k = 64, 4
    rows = n // k
    groups = rng.permutation(n // nu).reshape(rows // nu, k)
    contig = (groups[:, None, :] * nu + np.arange(nu)[None, :, None]).reshape(
        rows, k
    )
    strided = rng.permutation(n).reshape(rows, k)
    scale = np.exp(2j * np.pi * rng.random((rows, k)))
    periodic = np.tile(scale[: 2 * nu], (rows // (2 * nu), 1))
    for table in (contig, strided):
        assert recover_affine(table, nu) is None
    return SigmaProgram(n, [
        Stage([BlockLoop(DFT(k), strided, contig, scale, None, nu=nu)]),
        Stage([BlockLoop(DFT(k), contig, strided, None, periodic, nu=nu)]),
    ])


@needs_cc
@pytest.mark.parametrize("portable", [False, True], ids=["native", "portable"])
@pytest.mark.parametrize("nu", [1, 2, 4])
def test_tables_no_form_reproduces_still_run(nu, portable, rng, monkeypatch):
    if portable:
        monkeypatch.setenv("REPRO_NO_SIMD", "1")
    program = _irregular_program(nu, rng)
    source = emit_stage_functions(program, DEFAULT_CODELET_MAX)
    # one lane has no neighbour to be contiguous with (a per-row table),
    # and a plane of one lane is a broadcast table
    blocks, plane = ("vb", "v") if nu > 1 else ("v", "b")
    assert [t.name for t in source.tables] == [
        "gv0_0", f"s{blocks}0_0", f"w{plane}0_0re", f"w{plane}0_0im",
        f"g{blocks}1_0", "sv1_0", f"v{plane}1_0re", f"v{plane}1_0im",
    ]
    period = (2, 4, nu) if nu > 1 else (2, 4)
    assert source.tables[-1].values.shape == period
    plan = compile_plan(program)
    assert ("-march=native" in plan.compiler["flags"]) != portable
    X = (rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64)))
    got, _ = run_batched(plan.plan_stages(), 64, X, SequentialRuntime())
    want = np.stack([program.apply(row) for row in X.astype(COMPLEX)])
    np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


@needs_cc
def test_a_vector_unit_verifies_at_the_portable_tier(rng, monkeypatch):
    """A real ν = 4 plan built ``-O2`` with no ``-march`` equals the native
    build to rounding (FMA contraction is the only difference)."""
    program = _program(4096, 4)
    X = rng.standard_normal((2, 4096)) + 1j * rng.standard_normal((2, 4096))
    native, _ = run_batched(
        compile_plan(program).plan_stages(), 4096, X, SequentialRuntime()
    )
    monkeypatch.setenv("REPRO_NO_SIMD", "1")
    plan = compile_plan(program)
    assert "-march=native" not in plan.compiler["flags"]
    portable, _ = run_batched(plan.plan_stages(), 4096, X, SequentialRuntime())
    want = np.fft.fft(X, axis=-1)
    for got in (native, portable):
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 2e-15


@needs_cc
@pytest.mark.parametrize("n,nu", [(36, 3), (144, 3), (144, 6), (100, 5)])
def test_a_lane_count_no_vector_type_has_degrades_to_scalar(n, nu, rng):
    """``vN`` is ``vector_size(8ν)`` and the re-interleave halves ν: the
    glue exists for 2^k lanes only, so any other ν (all of these discharge
    under the vec rules) is inadmissible in the frontend, as a ν the rules
    cannot discharge is, and the plan compiles and verifies as before."""
    program = _program(n, nu)
    assert {lp.nu for lp in _loops(program)} == {1}
    X = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    got, _ = run_batched(
        compile_plan(program).plan_stages(), n, X, SequentialRuntime()
    )
    np.testing.assert_allclose(got, np.fft.fft(X, axis=-1), atol=1e-11)


@needs_cc
def test_both_spellings_of_the_shuffle_agree(rng):
    """``__builtin_shufflevector`` (clang, gcc >= 12) and ``__builtin_shuffle``
    are picked once in the preamble; the other branch builds the same."""
    gen = generate_c(_program(256, 4), mode="sequential")
    picked = "defined(__clang__) || __GNUC__ >= 12"
    assert gen.source.count(picked) == 1
    other = dataclasses.replace(
        gen, source=gen.source.replace(picked, "!(" + picked + ")")
    )
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    try:
        swapped = compile_and_run(other, x)
    except Exception as exc:  # a compiler that knows only one spelling
        pytest.skip(f"the other spelling does not build here: {exc}")
    np.testing.assert_array_equal(swapped, compile_and_run(gen, x))
    np.testing.assert_allclose(swapped, np.fft.fft(x), atol=1e-10)
