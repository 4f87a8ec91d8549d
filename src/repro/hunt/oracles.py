"""The hunt's oracle stack: one verdict per (case, term) evaluation.

Four oracles compose, evaluated in a fixed order so a failing case
classifies deterministically (the reducer's interestingness test matches
on the resulting :attr:`Verdict.kind`):

``build``
    The pipeline itself: formula derivation/expansion, Σ-SPL lowering,
    and the named backend's stage construction must not raise.  Stages
    are built strictly (``fallback=False``): a backend that cannot build
    fails rather than passing as NumPy.  They must keep the plan's stage
    count and ``parallel`` / ``needs_barrier`` flags, or the checker's
    certificates would not describe what executes.
``numeric``
    Index-for-index output comparison.  For a full DFT configuration the
    reference is ``np.fft.fft``; for a pruned SPL term the reference is
    the term's own structural semantics (``term.apply`` — every SPL
    expression *is* a matrix), which is what makes formula-tree
    reduction possible at all: a pruned term no longer computes a DFT
    but still has exact semantics every executor must agree with.  On
    the sequential runtime, stages that carry a whole-plan call
    (:class:`~repro.smp.runtime.FusedStages`) are also walked stage by
    stage, and the two must agree bit for bit.
``dynamic-check``
    The Definition 1 runtime verdict from :func:`repro.check.check_program`
    (races, false sharing at µ, load balance, barrier elision).
``structural``
    :func:`repro.spl.is_fully_optimized` on the derived formula (full
    DFT configurations with threads > 1 only — pruned terms make no
    Definition 1 claim).

Two ``hunt.*`` fault-plane points prove the pipeline end to end (see
:mod:`repro.faults`): ``hunt.exec_corrupt`` corrupts one element of the
executed output before comparison (the numeric oracle must fail), and
``hunt.plan_sabotage`` passes a µ-misaligned-split copy of the plan to
the dynamic checker (the check oracle must fail).  Both fire through the
active :class:`~repro.faults.FaultPlan`, so ``repro hunt --chaos
hunt.exec_corrupt:1.0`` is the self-test lane CI inverts.

The stack is the one verifier: ``repro hunt`` sweeps it over sampled
cases, ``repro check`` over an enumerated ``(k, p, µ)`` list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..seeding import derive_rng
from ..spl.expr import COMPLEX, Expr
from .gen import HuntCase

if TYPE_CHECKING:
    from ..check import CheckReport
    from ..sigma.loops import SigmaProgram

#: |y - ref| absolute tolerance of the numeric oracle (the worst error
#: over ``repro check``'s default sweep, n <= 4096, is ~1.2e-13)
ATOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    """Outcome of one oracle-stack evaluation."""

    ok: bool
    #: failure class: "build-error" | "numeric" | "dynamic-check" | "structural"
    kind: Optional[str] = None
    #: which oracle flagged, with executor context (informational)
    oracle: Optional[str] = None
    detail: str = ""
    #: the lowered program and the dynamic checker's report on it, where
    #: the stack got that far (``repro check`` prints its rows from them)
    program: Optional[SigmaProgram] = field(
        default=None, compare=False, repr=False)
    report: Optional[CheckReport] = field(
        default=None, compare=False, repr=False)

    def __str__(self) -> str:
        if self.ok:
            return "OK"
        return f"FAIL[{self.kind}] {self.oracle}: {self.detail}"


@dataclass
class ExecutorPools:
    """Lazily built, sweep-long caches of the expensive runtimes.

    Thread pools and process pools are keyed by lane and worker count and
    reused across every case and every reduction step; :meth:`close` tears
    the whole set down (the driver's ``finally``).
    """

    _pools: dict = field(default_factory=dict)

    def get(self, runtime: str, t: int):
        """The shared runtime for ``t``-way plans on ``runtime``'s lane.

        Sequential for ``t <= 1`` (:func:`repro.smp.runtime.lane_name`),
        else the pool :func:`repro.smp.runtime.make_runtime` builds on
        first use; an unknown ``runtime`` raises ``ValueError``.
        """
        from ..smp.runtime import lane_name, make_runtime

        lane = lane_name(runtime, t)
        if lane == "sequential":
            t = 1
        rt = self._pools.get((lane, t))
        if rt is None:
            rt = self._pools[lane, t] = make_runtime(runtime, t)
        return rt

    def close(self) -> None:
        """Close every cached runtime (idempotent)."""
        for rt in self._pools.values():
            rt.close()
        self._pools.clear()


def _input_stack(case: HuntCase, seed: int) -> np.ndarray:
    """The deterministic ``(batch, n)`` input drawn from the case's stream."""
    # nu joins the key only when non-default, so every scalar case keeps
    # the exact input stream it had before the vectorized-term lane
    key = [
        case.n, case.req_threads, case.mu,
        case.strategy, case.batch, case.backend, case.runtime,
    ]
    if case.nu != 1:
        key.append(f"v{case.nu}")
    rng = derive_rng(seed, "hunt-input", *key)
    shape = (case.batch, case.n)
    return (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ).astype(COMPLEX)


def _structure_mismatch(program, stages) -> str:
    """How ``stages`` fail to carry ``program``'s structure ("" if not)."""
    if len(stages) != len(program.stages):
        return (
            f"stage count changed: plan has {len(program.stages)}, "
            f"backend built {len(stages)}"
        )
    for i, (ps, bs) in enumerate(zip(program.stages, stages)):
        for flag in ("parallel", "needs_barrier"):
            want, got = getattr(ps, flag), getattr(bs, flag)
            if bool(want) != bool(got):
                return (
                    f"stage {i}: {flag} mismatch "
                    f"(plan={want}, backend={got})"
                )
    return ""


def run_oracle(
    case: HuntCase,
    term: Optional[Expr] = None,
    pools: Optional[ExecutorPools] = None,
    seed: int = 0,
    atol: float = ATOL,
) -> Verdict:
    """Evaluate the full oracle stack on ``(case, term)``.

    ``term=None`` means "the case's own spiral formula" (the full DFT
    oracle applies); a non-None ``term`` is a reduced SPL expression
    whose own semantics are the reference.  Deterministic for a fixed
    ``(case, term, seed)`` and fault plan.

    The case is lowered once, and its one plan record wraps the named
    backend's stages for that program.  A full DFT configuration keeps
    its :class:`~repro.mp.spec.PlanSpec`, from which process-pool workers
    rebuild the same plan; a pruned term has none, so its process lane
    runs the same stages sequentially in-process (the plan, not the
    transport, is under test at that point).
    """
    from ..check import check_program
    from ..check.negative import inject_misaligned_split
    from ..codegen.registry import get_backend
    from ..faults import get_fault_plan
    from ..frontend import spiral_formula
    from ..mp.spec import PlanSpec
    from ..serve.plan_cache import CachedPlan
    from ..sigma.lower import lower
    from ..smp.runtime import FusedStages
    from ..spl import is_fully_optimized

    own_pools = pools is None
    pools = pools or ExecutorPools()
    fp = get_fault_plan()
    lane = f"{case.backend}/{case.runtime}"
    try:
        # -- build oracle --------------------------------------------------
        spec = None
        try:
            if term is None:
                spec = PlanSpec(
                    n=case.n, threads=case.threads, mu=case.mu,
                    strategy=case.strategy, backend=case.backend, nu=case.nu,
                )
                formula = spiral_formula(
                    spec.n, spec.threads, spec.mu, spec.strategy,
                    spec.min_leaf, nu=spec.nu,
                )
            else:
                formula = term
            program = lower(formula, barrier_mu=case.mu)
        except Exception as exc:  # noqa: BLE001 - classified, not raised
            return Verdict(
                False, "build-error", "build",
                f"{type(exc).__name__}: {exc}",
            )
        try:
            stages = get_backend(case.backend).build_stages(
                program, fallback=False
            )
        except Exception as exc:  # noqa: BLE001 - classified, not raised
            return Verdict(
                False, "build-error", f"build:{case.backend}",
                f"{type(exc).__name__}: {exc}", program=program,
            )
        mismatch = _structure_mismatch(program, stages)
        if mismatch:
            return Verdict(
                False, "build-error", f"structure:{case.backend}", mismatch,
                program=program,
            )
        plan = CachedPlan(None, program, stages, case.backend, spec)

        # -- numeric oracle ------------------------------------------------
        X = _input_stack(case, seed)
        runtime = pools.get(case.runtime, case.threads)
        if spec is None and runtime.needs_spec:
            runtime = pools.get("sequential", 1)
        walked = None
        try:
            Y = runtime.run(plan, X)[0]
            if runtime.fuses and isinstance(stages, FusedStages):
                # Y came from the whole-plan call; the pools walk the
                # stages one by one, and both must give the same bits
                walked = runtime.run_stages(list(stages), program.size, X)[0]
        except Exception as exc:  # noqa: BLE001 - classified, not raised
            return Verdict(
                False, "build-error", f"execute:{lane}",
                f"{type(exc).__name__}: {exc}", program=program,
            )
        if walked is not None and not np.array_equal(Y, walked):
            row, col = np.argwhere(Y != walked)[0]
            return Verdict(
                False, "numeric", f"whole-vs-walk:{lane}",
                f"whole-plan call diverges from its stage walk at "
                f"[{row}, {col}]: got {Y[row, col]:.17g}, the stages give "
                f"{walked[row, col]:.17g}",
                program=program,
            )
        if fp.enabled and fp.fired("hunt.exec_corrupt"):
            Y = Y.copy()
            Y.reshape(-1)[0] += 1.0
        ref = np.fft.fft(X, axis=-1) if term is None else formula.apply(X)
        err = np.abs(Y - ref)
        if not np.all(err <= atol):
            row, col = np.unravel_index(int(np.argmax(err)), err.shape)
            return Verdict(
                False, "numeric", f"differential:{lane}",
                f"diverges from {'np.fft' if term is None else 'term'} "
                f"semantics at [{row}, {col}]: |err|={err[row, col]:.3e}",
                program=program,
            )

        # -- dynamic-check oracle ------------------------------------------
        checked = program
        if fp.enabled and fp.fired("hunt.plan_sabotage"):
            checked = inject_misaligned_split(program)
        report = check_program(checked, case.mu)
        if not report.ok:
            first = report.errors[0]
            return Verdict(
                False, "dynamic-check", f"check:{first.kind}",
                f"{len(report.errors)} error finding(s); first: {first}",
                program=program, report=report,
            )

        # -- structural oracle ---------------------------------------------
        # Definition 1 is stated over scalar constructs; ν > 1 formulas
        # carry vec tags (their structure is certified at derivation by
        # the vectorize rules), so the claim applies to scalar plans only.
        if term is None and case.threads > 1 and case.nu == 1:
            if not is_fully_optimized(formula, case.threads, case.mu):
                return Verdict(
                    False, "structural", "definition-1",
                    f"derived formula violates Definition 1 for "
                    f"p={case.threads}, mu={case.mu}",
                    program=program, report=report,
                )
        return Verdict(True, program=program, report=report)
    finally:
        if own_pools:
            pools.close()
