"""Fault-seeded plan sabotage: the checker's negative test surface.

A checker that has never caught a bug proves nothing, so
:mod:`repro.check` ships its own adversary: under an active
:class:`repro.faults.FaultPlan`, :func:`apply_check_faults` rewrites a
stage plan into a *broken* one along two axes the paper's Definition 1
rules out —

* ``check.overlapping_write`` — two processors of one parallel stage
  write the same output index (a write/write race the race check must
  flag);
* ``check.misaligned_split`` — one element of the per-processor write
  partition is swapped across the processor boundary, leaving the stage
  element-disjoint (still a valid partition, still race-free) but
  sharing cache lines for any ``mu > 1`` — exactly the class of bug the
  structural checker cannot see.

Mutations operate on deep copies: generated programs are cached and
shared (plan cache, per-process spec LRU), so the originals must never
be poisoned.
"""

from __future__ import annotations

import numpy as np

from ..faults import get_fault_plan
from ..sigma.loops import BlockLoop, SigmaProgram, Stage


def _copy_program(program: SigmaProgram) -> SigmaProgram:
    """Deep-enough copy: fresh stages/loops with copied index tables."""
    stages = []
    for stage in program.stages:
        loops = [
            BlockLoop(
                kernel=lp.kernel,
                gather=lp.gather.copy(),
                scatter=lp.scatter.copy(),
                pre_scale=None if lp.pre_scale is None else lp.pre_scale.copy(),
                post_scale=(
                    None if lp.post_scale is None else lp.post_scale.copy()
                ),
                proc=lp.proc,
            )
            for lp in stage.loops
        ]
        stages.append(Stage(
            loops,
            parallel=stage.parallel,
            needs_barrier=stage.needs_barrier,
            name=stage.name,
        ))
    return SigmaProgram(size=program.size, stages=stages)


def _first_parallel_stage(program: SigmaProgram):
    for si, stage in enumerate(program.stages):
        if stage.parallel and len(stage.procs) >= 2:
            return si, stage
    return None, None


def inject_overlapping_write(program: SigmaProgram) -> SigmaProgram:
    """Make two processors write the same index in one parallel stage."""
    out = _copy_program(program)
    si, stage = _first_parallel_stage(out)
    if stage is None:
        return out
    a, b = stage.procs[0], stage.procs[1]
    loop_a = stage.loops_for(a)[0]
    loop_b = stage.loops_for(b)[0]
    # proc b now also writes proc a's first output index
    loop_b.scatter[0, 0] = loop_a.scatter[0, 0]
    stage.name = (stage.name or f"stage{si}") + "+overlapping-write"
    return out


def inject_misaligned_split(program: SigmaProgram) -> SigmaProgram:
    """Swap one write index across the processor boundary.

    The stage still writes a partition of the output (the swap preserves
    the index multiset), so it stays race-free — but each processor now
    writes into a cache line otherwise owned by the other, which any
    ``mu > 1`` false-sharing check must flag.
    """
    out = _copy_program(program)
    si, stage = _first_parallel_stage(out)
    if stage is None:
        return out
    a, b = stage.procs[0], stage.procs[1]
    loop_a = stage.loops_for(a)[0]
    loop_b = stage.loops_for(b)[0]
    loop_a.scatter[0, 0], loop_b.scatter[0, 0] = (
        int(loop_b.scatter[0, 0]),
        int(loop_a.scatter[0, 0]),
    )
    stage.name = (stage.name or f"stage{si}") + "+misaligned-split"
    return out


def apply_check_faults(program: SigmaProgram) -> SigmaProgram:
    """Consult the active fault plan; return a sabotaged copy if one fires.

    With the default :class:`~repro.faults.plan.NullFaultPlan` installed
    this is a no-op returning ``program`` itself.
    """
    fp = get_fault_plan()
    if not fp.enabled:
        return program
    si, _ = _first_parallel_stage(program)
    if si is None:
        # nothing to sabotage: don't consume max_fires on sequential plans
        return program
    if fp.fired("check.overlapping_write"):
        program = inject_overlapping_write(program)
    if fp.fired("check.misaligned_split"):
        program = inject_misaligned_split(program)
    return program


def compare_plans(a: SigmaProgram, b: SigmaProgram) -> list:
    """Structural identity of two independently compiled plans.

    The process runtime relies on every process compiling the same
    :class:`~repro.mp.spec.PlanSpec` into the identical plan; ``repro
    check`` compares two independent builds of every configuration it
    certifies.  Returns :class:`~repro.check.checker.Finding`s.
    """
    from .checker import Finding

    findings: list[Finding] = []
    if a.size != b.size or len(a.stages) != len(b.stages):
        return [Finding(
            "determinism", 0, "error",
            f"plans differ in shape: size {a.size} vs {b.size}, "
            f"{len(a.stages)} vs {len(b.stages)} stages",
        )]
    for si, (sa, sb) in enumerate(zip(a.stages, b.stages)):
        if (sa.parallel, sa.needs_barrier) != (sb.parallel, sb.needs_barrier):
            findings.append(Finding(
                "determinism", si, "error",
                f"stage flags differ: parallel/barrier "
                f"{(sa.parallel, sa.needs_barrier)} vs "
                f"{(sb.parallel, sb.needs_barrier)}",
            ))
            continue
        same = len(sa.loops) == len(sb.loops) and all(
            la.proc == lb.proc
            and np.array_equal(la.gather, lb.gather)
            and np.array_equal(la.scatter, lb.scatter)
            for la, lb in zip(sa.loops, sb.loops)
        )
        if not same:
            findings.append(Finding(
                "determinism", si, "error",
                "stage index tables differ between the two compilations",
            ))
    return findings
