"""``Runtime.run(plan, X, out=...)``: the result lands where the caller says.

Pinned on every way a plan runs — the sequential runtime's whole-plan C
call (compiled, ν ∈ {1, 4}), its walk of the NumPy stages, the pthreads
pool and the process pool:

* **the result is ``out``** — returned as itself, 1-D and stacked, bit for
  bit what ``out=None`` returns, with the same ``ExecutionStats``;
* **an ``out`` off its cache line is the same result** — a wire region may
  start 16 bytes past a line, and the whole-plan call copies into it once;
* **a line-aligned ``out`` is the chain's own store** — the one C call is
  handed ``out``'s address, and nothing is copied;
* **an ``out`` no runtime may write is refused first** — a wrong dtype, a
  wrong shape, a strided, read-only or input-overlapping buffer is a
  ``ValueError`` before any stage runs, ``out`` and ``X`` left as they were.

The whole-plan call with ``out=None`` keeps its frame count
(``tests/codegen/test_whole_plan.py::test_the_call_is_its_c_call_plus_a_few_python_steps``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.codegen.compiled_backend import compile_plan, compiled_available
from repro.mp import PlanSpec, ProcessPoolRuntime
from repro.serve.plan_cache import build_plan
from repro.smp.runtime import PThreadsRuntime, SequentialRuntime
from repro.spl.expr import COMPLEX

N = 1024
LINE = 64

needs_cc = pytest.mark.skipif(not compiled_available(),
                              reason="no usable C compiler on this host")

#: lane id -> (runtime kind, backend, threads, nu)
LANES = {
    "compiled-nu1": ("sequential", "compiled", 1, 1),
    "compiled-nu4": ("sequential", "compiled", 1, 4),
    "numpy": ("sequential", "numpy", 1, 1),
    "pthreads2": ("pthreads", "numpy", 2, 1),
    "process2": ("process", "numpy", 2, 1),
}
LANE_PARAMS = [
    pytest.param(name, marks=needs_cc) if LANES[name][1] == "compiled"
    else name
    for name in LANES
]


@pytest.fixture(scope="module")
def runtimes():
    rts = {"sequential": SequentialRuntime(), "pthreads": PThreadsRuntime(2),
           "process": None}
    yield rts
    for rt in rts.values():
        if rt is not None:
            rt.close()


@pytest.fixture(params=LANE_PARAMS)
def lane(request, runtimes):
    """``(runtime, plan)`` of one lane; the process pool starts on first
    use."""
    kind, backend, threads, nu = LANES[request.param]
    if runtimes[kind] is None:
        runtimes[kind] = ProcessPoolRuntime(2)
    plan = build_plan(PlanSpec.for_request(N, threads=threads,
                                           backend=backend, nu=nu))
    assert plan.backend == backend
    return runtimes[kind], plan


def _stack(rng, shape):
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)).astype(COMPLEX)


def _at(shape, past_line: int) -> np.ndarray:
    """A NaN-filled ``complex128`` array of ``shape`` whose first element
    sits ``past_line`` bytes (a multiple of 16) past a cache line."""
    size = int(np.prod(shape))
    raw = np.empty(size + LINE // 16 * 2, COMPLEX)
    skip = (-raw.ctypes.data % LINE + past_line) // 16
    out = raw[skip:skip + size].reshape(shape)
    out[...] = np.nan
    assert out.ctypes.data % LINE == past_line
    return out


@pytest.mark.parametrize("shape", [(N,), (3, N)], ids=["1d", "stack"])
@pytest.mark.parametrize("past_line", [0, 16], ids=["on-line", "16-mod-64"])
def test_the_result_is_out_bit_for_bit(lane, rng, shape, past_line):
    rt, plan = lane
    X = _stack(rng, shape)
    want, want_stats = rt.run(plan, X)
    out = _at(shape, past_line)
    got, stats = rt.run(plan, X, out)
    assert got is out
    assert got.tobytes() == want.tobytes()
    assert stats == want_stats
    np.testing.assert_allclose(out, np.fft.fft(X, axis=-1), atol=1e-9)


def _refusals(buf: np.ndarray) -> dict:
    """Every kind of ``out`` no runtime may write the result of ``X =
    buf[:-1]`` into."""
    X = buf[:-1]
    strided = _at((2 * len(X), N), 0)[::2]
    read_only = _at(X.shape, 0)
    read_only.setflags(write=False)
    return {
        "complex64": np.full(X.shape, np.nan, np.complex64),
        "wrong-shape": _at((len(X) + 1, N), 0),
        "flat": _at((X.size,), 0),
        "strided": strided,
        "read-only": read_only,
        "the-input": X,
        "overlapping-the-input": buf[1:],
        "not-an-array": [[0j] * N] * len(X),
    }


REFUSALS = sorted(_refusals(np.zeros((4, N), COMPLEX)))


@pytest.mark.parametrize("case", REFUSALS)
def test_an_out_no_runtime_may_write_is_refused_first(lane, rng, case):
    rt, plan = lane
    buf = _stack(rng, (4, N))
    X, out = buf[:-1], _refusals(buf)[case]
    before = buf.tobytes(), np.array(out).tobytes()
    with pytest.raises(ValueError, match="out"):
        rt.run(plan, X, out)
    assert (buf.tobytes(), np.array(out).tobytes()) == before
    assert rt.healthy


def _spied(program):
    """The compiled stages of ``program`` with every chain entry's output
    address recorded."""
    plan = compile_plan(program)
    seen = []

    def chain(b, x, y):
        seen.append(y)
        return plan._chain(b, x, y)

    return dataclasses.replace(plan, _chain=chain).plan_stages(), seen


@needs_cc
@pytest.mark.parametrize("nu", [1, 4])
def test_a_line_aligned_out_is_the_chains_own_store(rng, monkeypatch, nu):
    """The whole-plan call hands a line-aligned ``out`` to C as is and
    copies nothing; an ``out`` 16 bytes past its line gets a result of its
    own and one copy; a refused one never reaches C."""
    program = build_plan(PlanSpec.for_request(
        N, backend="compiled", nu=nu)).program
    stages, seen = _spied(program)
    copies = []
    copyto = np.copyto
    monkeypatch.setattr(np, "copyto",
                        lambda dst, src, **kw: copies.append(dst)
                        or copyto(dst, src, **kw))
    rt = SequentialRuntime()
    X = _stack(rng, (4, N))
    want = rt.run_stages(stages, N, X)[0]

    aligned = _at((4, N), 0)
    assert rt.run_stages(stages, N, X, out=aligned)[0] is aligned
    assert seen[-1] == aligned.ctypes.data and copies == []

    off = _at((4, N), 16)
    assert rt.run_stages(stages, N, X, out=off)[0] is off
    assert seen[-1] % LINE == 0 and seen[-1] != off.ctypes.data
    assert len(copies) == 1 and copies[0] is off
    assert aligned.tobytes() == off.tobytes() == want.tobytes()

    calls = len(seen)
    buf = _stack(rng, (5, N))
    for out in _refusals(buf).values():
        with pytest.raises(ValueError, match="out"):
            stages.whole(buf[:-1], True, out)
    assert len(seen) == calls

    # no rows: nothing to address, and out is still the result
    none = np.empty((0, N), COMPLEX)
    assert stages.whole(X[:0], True, none) is none and seen[-1] == 0
