"""Emitted source is pinned: byte-identical across refactors and threads.

``golden_emit_digests.json`` holds ``sha256`` digests (no source text) of
``emit_plan_source`` and of the Python backend's ``generate`` source for
k=4..12 x nu in {1,2,4} x threads in {1,2,4} at mu=4 and the default
``codelet_max``.  The ``"plan"`` map was recorded at the commit before the
C emitters were merged and has never moved: it pins the tables, codelets
and stage functions — the plan source up to ``CHAIN_MARKER``, which was
the whole source until the whole-plan chain was appended after it.  The
``"plan_chain"`` map pins that trailer (marker to end of file), recorded
in the commit that added it.  Every ``.so`` cache key is a hash of the
*whole* plan source, so a digest of either map that moves means every
cached object on every host recompiles once — as adding the chain did,
without moving a byte of stage text.  The ``"python"`` map was re-recorded
once, in the commit that made the printer emit batched ``(b, n)`` stage
bodies (the printed program became the NumPy backend); nothing is keyed on
it.
"""

import hashlib
import json
import re
import sys
import threading
import warnings
from pathlib import Path

import pytest

from repro.codegen import emit_plan_source
from repro.codegen.c_emit import CHAIN_MARKER
from repro.frontend import generate_fft

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


def test_golden_set_is_the_full_admissible_grid():
    """9 sizes x 3 nu x 3 thread counts, minus (threads*mu)^2 not dividing n."""
    admissible = {
        f"k{k}_nu{nu}_t{t}"
        for k in range(4, 13) for nu in (1, 2, 4) for t in (1, 2, 4)
        if t == 1 or 2 ** k % (t * 4) ** 2 == 0
    }
    assert set(GOLDEN["plan"]) == set(GOLDEN["python"]) == admissible
    assert set(GOLDEN["plan_chain"]) == admissible


@pytest.mark.parametrize("key", sorted(GOLDEN["plan"]))
def test_emitted_source_matches_golden_digest(key):
    gen = _generated(key)
    stage_text, marker, chain = emit_plan_source(gen.program).partition(
        CHAIN_MARKER
    )
    assert _sha(stage_text) == GOLDEN["plan"][key]
    assert _sha(marker + chain) == GOLDEN["plan_chain"][key]
    assert _sha(gen.source) == GOLDEN["python"][key]


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
