"""A codelet stores what it computes.

A codelet (:meth:`repro.codegen.unroll.Codelet.to_c_vec`) prints its
schedule in the order :func:`~repro.codegen.unroll.symbolic_apply` built
the DAG, as explicit ν-vector statements, and stores each output — ν
interleaved re/im pairs at ``y + i*ys`` — right after the statement that
defines it.  A codelet loop whose scatter is an affine form with
contiguous lanes (or one lane) and no post-scale hands the codelet the
block's scatter address and stride; every other codelet loop hands it a
line-aligned local block that the scatter loop reads.  Pinned as counts
over the golden matrix (k = 4..12 x ν ∈ {1, 2, 4} x threads ∈ {1, 2, 4})
and 2^16 at ν = 4:

* **no block where the codelet can store** — a stage declares no
  ``yre`` / ``yim`` / ``yb`` when every codelet loop of it scatters
  contiguously, and makes one direct call per such loop;
* **each output stored once, where it is defined** — in every codelet
  definition, at its own multiple of ``ys``;
* **one object per leaf size, as before** — one codelet at even k, two
  at odd;
* **bit for bit** — the whole-plan call equals the stage walk, and
  ``np.fft`` to rounding.

The block is pinned on loops built to need it: a plan's loops whose
gather lanes sit apart, transposed so that they *scatter* there (threads
= 1: an affine form with strided lanes; threads = 2: an ``int`` table),
and its loops with the twiddles moved after the kernel (a post-scale).

Everything that runs code needs a C compiler; the ``no-compiler`` lane
skips those tests.
"""

from __future__ import annotations

import dataclasses
import re
import warnings

import numpy as np
import pytest

from repro.codegen.c_emit import emit_stage_functions
from repro.codegen.compiled_backend import (
    DEFAULT_CODELET_MAX,
    compile_plan,
    compiled_available,
)
from repro.frontend import generate_fft
from repro.serve.batch_exec import run_batched
from repro.sigma import SigmaProgram, Stage, recover_affine
from repro.smp.runtime import SequentialRuntime
from repro.spl.expr import COMPLEX
from repro.spl.matrices import F2, I

needs_cc = pytest.mark.skipif(
    not compiled_available(), reason="no usable C compiler on this host"
)

SEQ = SequentialRuntime()

#: the golden matrix, and the kernel workload's plan
GRID = [
    (k, nu, t)
    for k in range(4, 13) for nu in (1, 2, 4) for t in (1, 2, 4)
    if t == 1 or 2 ** k % (t * 4) ** 2 == 0
] + [(16, 4, 1)]

_STATEMENT = re.compile(r"  const \w+ (t\d+)re = ")
_DIRECT = "(const double *)tim, (double *)(d + ("
_BLOCK = re.compile(r"\byb\[\d+\] __attribute__")


def _program(k, nu, threads):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return generate_fft(2 ** k, threads=threads, mu=4, nu=nu).program


def _codelet_loop(loop) -> bool:
    return not isinstance(loop.kernel, (F2, I)) \
        and loop.kernel.cols <= DEFAULT_CODELET_MAX


def _lanes_contiguous(table, nu) -> bool:
    steps = np.diff(table.reshape(-1, nu, table.shape[1]), axis=1)
    return bool((steps == 1).all())


def _direct(loop) -> bool:
    """Does the codelet store this loop's block at its scatter address?"""
    form = recover_affine(loop.scatter, loop.nu)
    return (
        _codelet_loop(loop) and form is not None and form.lane_stride <= 1
        and loop.post_scale is None
    )


def _stage_texts(source) -> list[str]:
    return "\n".join(source.lines).split("void repro_stage")[1:]


def _stores(cdef) -> list[tuple[int, str]]:
    """``(output, temp)`` per store of a codelet definition, in order;
    asserts each follows the statement of its temp, or another store
    after it."""
    stores, defined = [], None
    for line in cdef.to_c().splitlines():
        statement = _STATEMENT.match(line)
        if statement:
            defined = statement[1]
        elif "*ys" in line:
            (at,) = set(re.findall(r"(\d+)\*ys", line))
            names = set(re.findall(r"\b(t\d+)(?:re|im)\b", line))
            assert names == {defined}, line
            stores.append((int(at), defined))
        else:
            defined = None
    return stores


def _check_run(program, rng, want):
    n = program.size
    plan = compile_plan(program)
    X = (rng.standard_normal((3, n))
         + 1j * rng.standard_normal((3, n))).astype(COMPLEX)
    whole, _ = run_batched(plan.plan_stages(), n, X, SEQ)
    walked, _ = run_batched(list(plan.plan_stages()), n, X, SEQ)
    np.testing.assert_array_equal(whole, walked)
    np.testing.assert_allclose(whole, want(X), atol=1e-9 * n, rtol=1e-9)


@pytest.mark.parametrize("k,nu,threads", GRID)
def test_a_codelet_stores_each_output_once_where_it_is_defined(k, nu, threads):
    program = _program(k, nu, threads)
    source = emit_stage_functions(program, DEFAULT_CODELET_MAX)
    for stage, text in zip(program.stages, _stage_texts(source)):
        loops = [lp for lp in stage.loops if _codelet_loop(lp)]
        direct = sum(map(_direct, loops))
        assert text.count(_DIRECT) == direct
        assert len(_BLOCK.findall(text)) == len(loops) - direct
        if direct == len(loops):
            assert not re.search(r"\by(re|im|b)\b", text)
    # one object per distinct (kernel, ν): a leaf size at even k, two at odd
    assert len(source.codelets) == (2 if k % 2 else 1)
    for cdef in source.codelets:
        codelet = cdef.codelet
        stores = _stores(cdef)
        assert sorted(at for at, _ in stores) == list(range(codelet.size))
        names = dict(codelet.schedule)
        for at, temp in stores:
            assert names[temp] is codelet.outputs[at]


@needs_cc
@pytest.mark.parametrize("k,nu,threads", GRID)
def test_the_whole_plan_call_is_the_stage_walk_bit_for_bit(
    k, nu, threads, rng
):
    _check_run(
        _program(k, nu, threads), rng, lambda X: np.fft.fft(X, axis=-1)
    )


@needs_cc
@pytest.mark.parametrize("k,nu,threads", [(12, 2, 1), (12, 4, 1), (8, 4, 2)])
def test_a_scatter_the_codelet_cannot_store_to_runs_through_the_block(
    k, nu, threads, rng
):
    """A stage whose gather lanes sit apart, transposed, scatters there;
    a stage with its twiddles moved after the kernel carries a
    post-scale.  Each passes its codelets a local block (every loop of
    the stage in one sequential share), and the plan agrees with the
    Σ-SPL reference."""
    stages = _program(k, nu, threads).stages

    def changed(change, which):
        return [
            Stage([dataclasses.replace(change(lp), proc=None)
                   for lp in st.loops])
            for st in stages if any(map(which, st.loops))
        ]

    program = SigmaProgram(2 ** k, changed(
        lambda lp: dataclasses.replace(lp, gather=lp.scatter,
                                       scatter=lp.gather),
        lambda lp: not _lanes_contiguous(lp.gather, nu),
    ) + changed(
        lambda lp: dataclasses.replace(lp, pre_scale=None,
                                       post_scale=lp.pre_scale),
        lambda lp: lp.pre_scale is not None,
    ))
    source = emit_stage_functions(program, DEFAULT_CODELET_MAX)
    blocks = 0
    for stage, text in zip(program.stages, _stage_texts(source)):
        assert text.count(_DIRECT) == sum(map(_direct, stage.loops))
        blocks += len(_BLOCK.findall(text))
        assert "yre" not in text
    assert blocks >= 2
    _check_run(program, rng, lambda X: np.stack(
        [program.apply(row) for row in X]
    ))
