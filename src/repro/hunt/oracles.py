"""The hunt's oracle stack: one verdict per (case, term) evaluation.

Four oracles compose, evaluated in a fixed order so a failing case
classifies deterministically (the reducer's interestingness test matches
on the resulting :attr:`Verdict.kind`):

``build``
    The pipeline itself: formula derivation/expansion, Σ-SPL lowering,
    and backend stage construction must not raise.
``numeric``
    Index-for-index output comparison.  For a full DFT configuration the
    reference is ``np.fft.fft``; for a pruned SPL term the reference is
    the term's own structural semantics (``term.apply`` — every SPL
    expression *is* a matrix), which is what makes formula-tree
    reduction possible at all: a pruned term no longer computes a DFT
    but still has exact semantics every executor must agree with.
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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..seeding import derive_rng
from ..spl.expr import COMPLEX, Expr
from .gen import HuntCase

#: |y - ref| tolerance of the numeric oracle (measured headroom ~2e-12
#: at n=512; see tests/fuzz/test_differential.py)
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
        else the ``PThreadsRuntime(t)`` / ``ProcessPoolRuntime(t)`` built on
        first use.
        """
        from ..smp.runtime import PThreadsRuntime, SequentialRuntime, lane_name

        lane = lane_name(runtime, t)
        if lane == "sequential":
            t = 1
        rt = self._pools.get((lane, t))
        if rt is None:
            if lane == "process":
                from ..mp import ProcessPoolRuntime

                rt = ProcessPoolRuntime(t)
            else:
                rt = PThreadsRuntime(t) if t > 1 else SequentialRuntime()
            self._pools[lane, t] = rt
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


def _execute(
    case: HuntCase,
    program,
    X: np.ndarray,
    pools: ExecutorPools,
    term: Optional[Expr],
) -> np.ndarray:
    """Run the plan on the case's backend × runtime; return Y.

    A full DFT configuration is built from its :class:`PlanSpec` by the
    one builder, exactly as serving would.  A pruned term has no spec, so
    its record wraps the backend's stages for the lowered ``program``; a
    runtime whose workers rebuild plans from the spec (the process pool)
    cannot run it, and that lane degrades to in-process sequential
    execution of the same stages (the plan, not the transport, is under
    test at that point).
    """
    from ..codegen.registry import resolve_backend
    from ..mp.spec import PlanSpec
    from ..serve.plan_cache import CachedPlan, build_plan

    if term is None:
        plan = build_plan(PlanSpec(
            n=case.n, threads=case.threads, mu=case.mu,
            strategy=case.strategy, backend=case.backend, nu=case.nu,
        ))
    else:
        backend = resolve_backend(case.backend)
        plan = CachedPlan(
            None, program, backend.build_stages(program), backend.name
        )
    runtime = pools.get(case.runtime, case.threads)
    if plan.spec is None and runtime.needs_spec:
        runtime = pools.get("sequential", 1)
    return runtime.run(plan, X)[0]


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
    """
    from ..check import check_program
    from ..check.negative import inject_misaligned_split
    from ..faults import get_fault_plan
    from ..frontend import spiral_formula
    from ..sigma.lower import lower
    from ..spl import is_fully_optimized

    own_pools = pools is None
    pools = pools or ExecutorPools()
    fp = get_fault_plan()
    try:
        # -- build oracle --------------------------------------------------
        try:
            if term is None:
                formula = spiral_formula(
                    case.n, case.threads, case.mu, case.strategy,
                    nu=case.nu,
                )
            else:
                formula = term
            program = lower(formula, barrier_mu=case.mu)
        except Exception as exc:  # noqa: BLE001 - classified, not raised
            return Verdict(
                False, "build-error", "build",
                f"{type(exc).__name__}: {exc}",
            )

        # -- numeric oracle ------------------------------------------------
        X = _input_stack(case, seed)
        try:
            Y = _execute(case, program, X, pools, term)
        except Exception as exc:  # noqa: BLE001 - classified, not raised
            return Verdict(
                False, "build-error",
                f"execute:{case.backend}/{case.runtime}",
                f"{type(exc).__name__}: {exc}",
            )
        if fp.enabled and fp.fired("hunt.exec_corrupt"):
            Y = Y.copy()
            Y.reshape(-1)[0] += 1.0
        ref = np.fft.fft(X, axis=-1) if term is None else formula.apply(X)
        err = np.abs(Y - ref)
        if not np.all(err <= atol):
            row, col = np.unravel_index(int(np.argmax(err)), err.shape)
            return Verdict(
                False, "numeric",
                f"differential:{case.backend}/{case.runtime}",
                f"diverges from {'np.fft' if term is None else 'term'} "
                f"semantics at [{row}, {col}]: |err|={err[row, col]:.3e}",
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
                )
        return Verdict(True)
    finally:
        if own_pools:
            pools.close()
