"""Emitted source is pinned: byte-identical across refactors and threads.

``golden_emit_digests.json`` holds ``sha256`` digests (no source text) of
``emit_plan_source`` and of the Python backend's ``generate`` source for
k=4..12 x nu in {1,2,4} x threads in {1,2,4} at mu=4 and the default
``codelet_max``, in maps recorded at different times for different ends:

``"stages"``
    The stage functions — plan source from the ``repro_stage0`` definition
    to ``CHAIN_MARKER``.  It is the "the loops did not change" alarm: the
    loop nests are what runs.  First recorded at the last commit that
    printed tables and codelets into the plan source; re-recorded once,
    deliberately, in PR 22's step 3, which changed what the loops *are*:
    every ν > 1 nest became explicit vector-extension statements over
    affine index forms (42 digests), and the ν = 1 nests of k = 11 and 12
    moved because an ``int`` table became a two-digit affine expression
    (6 digests).  The other 15 — ν = 1, k <= 10 — did not move a byte
    then; all 21 ν = 1 digests were re-recorded when the scalar body was
    deleted and ν = 1 became the one-lane case of the ν-lane nest (``v1``
    planes, broadcast twiddle tables, no ``double complex`` arithmetic).
    No ν > 1 digest moved: :data:`FROZEN` pins them.  All 63 were
    re-recorded when codelets began storing their own outputs: a codelet
    loop whose scatter is an affine form with contiguous lanes and no
    post-scale passes the block's scatter address and ``2*col_stride``
    to the codelet and lost its ``yre`` / ``yim`` locals and scatter loop;
    every other codelet loop passes a line-aligned local ``yb`` block its
    scatter loop reads (every plan has a codelet loop, so every digest
    moved; the results did not move a bit).
``"plan"``
    Everything before ``CHAIN_MARKER``: the unit's preamble and the stage
    functions.  Re-recorded in the commit that made the preamble *declare*
    tables (values in a binary file whose digest the preamble carries) and
    *bind* codelets (bodies in content-addressed objects), and twice in
    PR 22: all 63 with the twiddle fix (``spl.matrices.omega``: roots of
    unity from an exactly reduced exponent instead of a rounded root
    raised to a power, so every table digest and every codelet symbol the
    preamble names changed value — the loops did not: ``"stages"`` held),
    then the 48 of step 3 above (plus the vector prelude ahead of them);
    the 21 ν = 1 entries again with the one-lane text (the prelude, split
    re/im broadcast tables where interleaved ones stood, ``vcodelet<i>_v1``
    bindings); all 63 once more, with ``"plan_chain"``, when the unit
    stopped including libc headers: ``typedef double _Complex cplx;``
    where ``<complex.h>``, ``<math.h>`` and ``typedef double complex
    cplx;`` stood (``"stages"`` held); all 63 again with the codelet
    stores of ``"stages"`` (the bindings' signature is ``(xre, xim, y,
    ys)``; ``"plan_chain"`` held).
``"plan_chain"``
    The trailer (marker to end of file), recorded in the commit that
    added it and re-recorded in PR 22's steps 1 and 2: the chain runs row
    by row over a one-row scratch, allocated by ``posix_memalign``.  All
    63 again when the chain declared ``posix_memalign`` and ``free``
    itself in place of ``#include <stdlib.h>``, and wrote ``0`` for
    ``NULL``.
``"codelet"``
    The library definition of each distinct codelet, k in {2,4,8,16,32} x
    nu in {1,2,4}: the text a ``codelet_<key>.o`` is compiled from and its
    symbol derived from.  The nine with k >= 8 moved with PR 22's twiddle
    fix (their constants are now correctly rounded and symmetric:
    ``0.7071067811865476`` four times, where ``...75``, ``...74`` and
    ``...77`` stood beside it); untouched by steps 1-3.  The five ν = 1
    entries moved when the scalar ``cplx`` printer was deleted: a ν = 1
    codelet is :meth:`Codelet.to_c_vec` at one lane.  All 15 moved when
    the printer emitted the schedule in construction order as explicit
    ``v<ν>`` statements (``double`` at ν = 1; no lane loop), printed ±i
    as a swap and a negation, and stored each output at ``y + i*ys``
    right after the statement that defines it.
``"generate_c"``
    The standalone program's driver tail, one per mode: what
    ``generate_c`` appends to the plan's single-file text (driver +
    ``main``).  Re-recorded once, deliberately, in the commit that made
    the standalone program *be* the plan unit: until then this map held 12
    whole-program digests (modes x unroll bound x nu) of a text with its
    own header, ``static void stage<k>`` functions and a second sequential
    driver.  Everything ahead of the tail is now pinned by identity, not
    by digest — over ``test_c_backend.py::TestCompileAndRun``'s matrix
    the program's stage functions and chain equal ``emit_plan_source``'s
    byte for byte, so ``"stages"`` and ``"plan_chain"`` speak for both.
    The ``pthreads`` entry was re-recorded once more, deliberately, when
    the driver's barrier became race-free under C's memory model: it
    spins on an ``__atomic_load_n`` acquire, publishes the sense with an
    ``__atomic_store_n`` release and resets the count relaxed, where a
    ``volatile int`` was read and stored plainly (ThreadSanitizer found
    races in every two-thread program of 2^6 … 2^14; none since).
``"python"``
    Re-recorded once, in the commit that made the printer emit batched
    ``(b, n)`` stage bodies (the printed program became the NumPy
    backend); nothing is keyed on it.

Every ``.so`` cache key is a hash of the *whole* plan source, so a digest
of ``"plan"`` or ``"plan_chain"`` that moves means every cached object on
every host recompiles once — as adding the chain did, as moving the
tables and codelets out did, and as PR 22 did; a ``"codelet"`` digest that
moves recompiles that codelet's object and every plan that names it.
"""

import hashlib
import json
import re
import sys
import threading
import warnings
from pathlib import Path

import pytest

from repro.codegen import emit_plan_source, generate_c
from repro.codegen.c_backend import MODES
from repro.codegen.c_emit import CHAIN_MARKER, CodeletDef, codelet_formula
from repro.codegen.compiled_backend import DEFAULT_CODELET_MAX
from repro.codegen.unroll import Codelet
from repro.frontend import generate_fft, vectorize_formula
from repro.rewrite import derive_multicore_ct, expand_dft
from repro.sigma import lower
from repro.spl import DFT

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_emit_digests.json").read_text()
)


def _generated(key: str):
    k, nu, threads = map(
        int, re.fullmatch(r"k(\d+)_nu(\d+)_t(\d+)", key).groups()
    )
    with warnings.catch_warnings():
        # small sizes degrade nu requests to scalar with a one-time warning
        warnings.simplefilter("ignore", RuntimeWarning)
        return generate_fft(2 ** k, threads=threads, mu=4, nu=nu)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: sha256 of the entries the one-lane re-record had no business moving:
#: every ν > 1 entry of ``plan`` / ``stages`` / ``codelet`` and the whole
#: ``plan_chain``, ``python`` and ``generate_c`` maps, as they stood at the
#: commit before it.  A deliberate re-record of any of them re-pins this:
#: re-pinned once, by the header-free re-record of ``plan`` and
#: ``plan_chain`` (no ``stages``, ``codelet``, ``python`` or
#: ``generate_c`` entry moved), once by the codelet-stores re-record
#: of ``plan``, ``stages`` and ``codelet`` (no ``plan_chain``, ``python``
#: or ``generate_c`` entry moved), and once by the acquire/release barrier
#: (only ``generate_c["pthreads"]`` moved).
FROZEN = "d59c12b53c591764b23cd29bd7bf293dcd35c28f13c06e869bba4c8e03525ec7"


def test_one_lane_rerecord_left_every_other_entry_alone():
    by_nu = ("plan", "stages", "codelet")
    frozen = {
        name: {k: v for k, v in entries.items() if "_nu1" not in k}
        if name in by_nu else entries
        for name, entries in GOLDEN.items()
    }
    assert {len(frozen[name]) for name in by_nu} == {42, 10}
    assert _sha(json.dumps(frozen, sort_keys=True)) == FROZEN


def test_golden_set_is_the_full_admissible_grid():
    """9 sizes x 3 nu x 3 thread counts, minus (threads*mu)^2 not dividing n."""
    admissible = {
        f"k{k}_nu{nu}_t{t}"
        for k in range(4, 13) for nu in (1, 2, 4) for t in (1, 2, 4)
        if t == 1 or 2 ** k % (t * 4) ** 2 == 0
    }
    assert set(GOLDEN["plan"]) == set(GOLDEN["python"]) == admissible
    assert set(GOLDEN["plan_chain"]) == set(GOLDEN["stages"]) == admissible


@pytest.mark.parametrize("key", sorted(GOLDEN["plan"]))
def test_emitted_source_matches_golden_digest(key):
    gen = _generated(key)
    stage_text, marker, chain = emit_plan_source(gen.program).partition(
        CHAIN_MARKER
    )
    assert _sha(stage_text) == GOLDEN["plan"][key]
    stages = stage_text[stage_text.index("void repro_stage0("):]
    assert _sha(stages) == GOLDEN["stages"][key]
    assert _sha(marker + chain) == GOLDEN["plan_chain"][key]
    assert _sha(gen.source) == GOLDEN["python"][key]


@pytest.mark.parametrize("key", sorted(GOLDEN["codelet"]))
def test_codelet_definition_matches_golden_digest(key):
    k, nu = map(int, re.fullmatch(r"k(\d+)_nu(\d+)", key).groups())
    codelet = Codelet.from_formula(codelet_formula(DFT(k)), "codelet0")
    assert _sha(CodeletDef("codelet0", nu, codelet).definition) == \
        GOLDEN["codelet"][key]


def test_codelet_set_is_the_leaf_sizes_by_nu():
    assert set(GOLDEN["codelet"]) == {
        f"k{k}_nu{nu}" for k in (2, 4, 8, 16, 32) for nu in (1, 2, 4)
    }


#: modes x unroll bound (dense, small, the default) x nu
STANDALONE_GRID = [
    f"{mode}_unroll{u}_nu{nu}"
    for mode in MODES for u in (0, 8, DEFAULT_CODELET_MAX) for nu in (1, 4)
]


@pytest.mark.parametrize("key", STANDALONE_GRID)
def test_standalone_program_matches_golden_digest(key):
    """Standalone = the plan unit's header, stage functions and chain,
    then the mode's pinned driver tail."""
    mode, codelet_max, nu = re.fullmatch(
        r"(\w+)_unroll(\d+)_nu(\d+)", key
    ).groups()
    codelet_max, nu = int(codelet_max), int(nu)
    f = expand_dft(
        derive_multicore_ct(64, 2, max(2, nu)), "balanced", min_leaf=4
    )
    f, effective_nu = vectorize_formula(f, 64, 2, nu)
    assert effective_nu == nu
    program = lower(f)
    head, _, rest = generate_c(
        program, mode=mode, codelet_max=codelet_max
    ).source.partition(CHAIN_MARKER)
    plan_head, _, plan_chain = emit_plan_source(
        program, codelet_max
    ).partition(CHAIN_MARKER)
    typedef, stage0 = "typedef double _Complex cplx;\n", "void repro_stage0("
    assert head[:head.index(typedef)] == plan_head[:plan_head.index(typedef)]
    assert head[head.index(stage0):] == plan_head[plan_head.index(stage0):]
    assert rest.startswith(plan_chain)
    assert _sha(rest[len(plan_chain):]) == GOLDEN["generate_c"][mode]


def test_standalone_set_is_the_compile_and_run_matrix():
    from tests.codegen.test_c_backend import _driver_matrix

    assert set(STANDALONE_GRID) == {
        "{}_unroll{}_nu{}".format(*point.values) for point in _driver_matrix()
    }
    assert set(GOLDEN["generate_c"]) == set(MODES)


def test_concurrent_emission_equals_serial():
    """Planning threads must not perturb each other's emitted text.

    A request thread and a prewarm/tuner thread emit different plans at
    once; codelet CSE and operand ordering once lived in interpreter-wide
    state, so a thread switch mid-codelet could change the text (and with
    it the cache key) of whichever plan was being unrolled.
    """
    programs = [
        _generated(f"k{k}_nu{nu}_t1").program
        for k in (6, 7, 8, 9) for nu in (1, 4)
    ]
    serial = [emit_plan_source(p) for p in programs]
    rounds = 6
    got: list = [None] * len(programs)
    start = threading.Barrier(len(programs))

    def emit(i: int) -> None:
        start.wait(timeout=30)
        got[i] = [emit_plan_source(programs[i]) for _ in range(rounds)]

    workers = [
        threading.Thread(target=emit, args=(i,)) for i in range(len(programs))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for i, text in enumerate(serial):
        assert got[i] == [text] * rounds, f"plan {i} emitted differently"
