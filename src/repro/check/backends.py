"""Differential backend verification for ``repro check --backend``.

The structural checker certifies a *plan*; this module certifies an
*executor*.  For a given lowered program it runs the requested execution
backend's stages (through the real runtime double-buffer protocol) and
compares the result index-for-index against two references:

* the analytic DFT (``np.fft.fft``) — ground truth, and
* the NumPy backend (the printed program) — so a divergence can be attributed to
  the backend under test rather than to the plan itself.

A backend whose stage list carries a whole-plan call
(:class:`~repro.smp.runtime.FusedStages`) is run both ways — the one call
the sequential runtime makes, and the stage-by-stage walk the pools make —
and the two must agree bit for bit.

Stage structure is also cross-checked: a backend must preserve the
plan's stage count, parallel flags, and barrier-elision decisions, or
the concurrency certificates issued by :mod:`repro.check.checker` for
the Σ-SPL plan would not transfer to what actually executes.
"""

from __future__ import annotations

import numpy as np

from ..sigma.loops import SigmaProgram
from ..spl.expr import COMPLEX

#: |x̂ - fft(x)| tolerance, scaled by n (accumulated butterfly roundoff)
_RTOL = 1e-9


def check_backend_program(
    program: SigmaProgram,
    backend: str,
    batch: int = 3,
    seed: int = 0,
) -> list[str]:
    """Execute ``program`` on ``backend``; return findings (empty = OK).

    Builds the backend's batched stages with ``fallback`` disabled where
    the backend supports it — a differential check that silently tested
    the NumPy fallback would certify nothing about the backend it names.
    """
    from ..codegen.registry import get_backend
    from ..serve.plan_cache import CachedPlan
    from ..smp.runtime import FusedStages, SequentialRuntime

    findings: list[str] = []
    n = program.size
    try:
        stages = get_backend(backend).build_stages(program, fallback=False)
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        return [f"backend {backend!r} failed to build stages: {exc}"]

    # structural transfer: certificates issued for the plan must describe
    # what the backend actually runs
    if len(stages) != len(program.stages):
        findings.append(
            f"backend {backend!r} changed the stage count: plan has "
            f"{len(program.stages)}, backend built {len(stages)}"
        )
    else:
        for i, (ps, bs) in enumerate(zip(program.stages, stages)):
            if bool(ps.parallel) != bool(bs.parallel):
                findings.append(
                    f"stage {i}: parallel flag mismatch "
                    f"(plan={ps.parallel}, backend={bs.parallel})"
                )
            if bool(ps.needs_barrier) != bool(bs.needs_barrier):
                findings.append(
                    f"stage {i}: barrier-elision mismatch "
                    f"(plan={ps.needs_barrier}, backend={bs.needs_barrier})"
                )
    if findings:
        return findings

    rng = np.random.default_rng(seed)
    X = (
        rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))
    ).astype(COMPLEX)
    runtime = SequentialRuntime()
    walked = None
    try:
        Y, _ = runtime.run(CachedPlan(None, program, stages, backend), X)
        if isinstance(stages, FusedStages):
            # Y came from the whole-plan call; a plain copy of the sequence
            # is walked stage by stage, as the pools walk it
            walked, _ = runtime.run(
                CachedPlan(None, program, list(stages), backend), X
            )
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        return [f"backend {backend!r} raised during execution: {exc}"]
    if walked is not None and not np.array_equal(Y, walked):
        row, col = np.argwhere(Y != walked)[0]
        findings.append(
            f"backend {backend!r}: whole-plan entry diverges from its "
            f"stages at [{row}, {col}]: got {Y[row, col]:.17g}, the "
            f"stages give {walked[row, col]:.17g} — executor bug, not a "
            f"plan bug"
        )

    ref = np.fft.fft(X, axis=-1)
    tol = _RTOL * n
    err = np.abs(Y - ref)
    if not np.all(err <= tol * np.maximum(1.0, np.abs(ref))):
        row, col = np.unravel_index(int(np.argmax(err)), err.shape)
        findings.append(
            f"backend {backend!r} diverges from the DFT at "
            f"[{row}, {col}]: got {Y[row, col]:.12g}, "
            f"expected {ref[row, col]:.12g} (|err|={err[row, col]:.3e})"
        )

    if backend != "numpy":
        from ..codegen.registry import NumpyBackend

        base = NumpyBackend().build_stages(program)
        Y0, _ = runtime.run(CachedPlan(None, program, base), X)
        derr = np.abs(Y - Y0)
        if not np.all(derr <= tol * np.maximum(1.0, np.abs(Y0))):
            row, col = np.unravel_index(int(np.argmax(derr)), derr.shape)
            findings.append(
                f"backend {backend!r} diverges from the numpy backend at "
                f"[{row}, {col}] (|err|={derr[row, col]:.3e}) — executor "
                f"bug, not a plan bug"
            )
    return findings
