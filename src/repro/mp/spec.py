"""Picklable plan specifications for cross-process execution.

A generated stage plan is a list of closures over index tables and codelet
matrices — it cannot cross a process boundary.  What *can* cross is the
input to the generator: the whole rewrite → Σ-SPL → codegen pipeline is
deterministic, so a small :class:`PlanSpec` (transform size, thread count,
µ, breakdown strategy) compiled independently in every process yields the
*identical* stage plan.  Pool workers therefore receive specs, compile them
locally on first use, and cache the result for the pool's lifetime — the
compile cost is amortized exactly like the master's plan cache.

:func:`compile_spec` is the process-local LRU around the one builder
(:func:`repro.serve.plan_cache.build_plan`, a pure function of the spec —
wisdom only changes *which* spec, :meth:`PlanSpec.tuned`), which builds the *batched*
stage list through the execution-backend registry
(:func:`repro.codegen.resolve_backend` — the spec's ``backend`` field
selects ``numpy``, ``compiled``, or ``simulator``), so one compiled spec
serves single vectors and ``(b, n)`` request stacks alike.  Backend choice
changes only how stages *execute*, never the plan's stage structure or
barrier flags, so SPMD lockstep across workers holds even if one worker
falls back to numpy.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional

#: process-local compile cache: spec -> CachedPlan
_CACHE_LOCK = threading.Lock()
_CACHE: "OrderedDict[PlanSpec, CachedPlan]" = OrderedDict()
_CACHE_MAX = 32


@dataclass(frozen=True)
class PlanSpec:
    """Everything a process needs to regenerate one stage plan.

    Hashable and picklable; equality is plan identity (two equal specs
    compile to byte-identical generated source in any process).
    """

    n: int
    threads: int = 1
    mu: int = 4
    strategy: str = "balanced"
    min_leaf: int = 32
    codelet_max: int = 32
    #: execution backend the compiling process resolves through the
    #: registry (:func:`repro.codegen.resolve_backend`); a worker without
    #: the requested backend (e.g. no C compiler) falls back to numpy —
    #: the *plan structure* is backend-independent, so lockstep holds
    backend: str = "numpy"
    #: vec(ν) granularity; the deterministic frontend fallback means every
    #: process degrades a non-vectorizable (n, threads, µ, ν) identically,
    #: so lockstep holds for ν too
    nu: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need a transform size >= 2, got {self.n}")
        if self.threads < 1:
            raise ValueError(f"need threads >= 1, got {self.threads}")
        if self.nu < 1:
            raise ValueError(f"need nu >= 1, got {self.nu}")

    @classmethod
    def for_request(cls, n: int, threads: int = 1, mu: int = 4,
                    strategy: str = "balanced",
                    backend: str = "numpy", nu: int = 1) -> "PlanSpec":
        """A spec with the thread count clamped to an admissible Eq. (14)."""
        from ..frontend import feasible_threads

        return cls(n=n, threads=feasible_threads(n, threads, mu), mu=mu,
                   strategy=strategy, backend=backend, nu=nu)

    @classmethod
    def from_plan_key(cls, key, backend: str = "numpy") -> "PlanSpec":
        """From a serving-layer :class:`repro.serve.plan_cache.PlanKey`."""
        return cls(n=key.n, threads=key.threads, mu=key.mu,
                   strategy=key.strategy, backend=backend,
                   nu=getattr(key, "nu", 1))

    def tuned(self, best: Optional[dict]) -> "PlanSpec":
        """The requested → effective substitution, the one place a
        measurement changes what gets built: this spec with ``strategy``,
        ``min_leaf`` and ``nu`` from a ranking's ``best`` block
        (:meth:`repro.wisdom.Wisdom.best`).  No block, an unknown strategy
        or a malformed field leaves the spec as requested; an inadmissible
        ν devectorizes in the frontend as a requested one does.
        """
        from ..rewrite.breakdown import RADIX_STRATEGIES

        if not best or best.get("strategy") not in RADIX_STRATEGIES:
            return self
        try:
            return replace(self, strategy=best["strategy"],
                           min_leaf=int(best["min_leaf"]),
                           nu=int(best["nu"]))
        except (KeyError, TypeError, ValueError):
            return self


def compile_spec(spec: PlanSpec) -> "CachedPlan":
    """``build_plan(spec)`` behind a process-local LRU.

    Pool workers need it (each compiles a received spec once and keeps it
    for the pool's lifetime); masters use it as the spec-in shorthand.
    """
    with _CACHE_LOCK:
        hit = _CACHE.get(spec)
        if hit is not None:
            _CACHE.move_to_end(spec)
            return hit
    # import deferred: keep `import repro.mp` light and cycle-free
    from ..serve.plan_cache import build_plan

    compiled = build_plan(spec)
    with _CACHE_LOCK:
        _CACHE[spec] = compiled
        _CACHE.move_to_end(spec)
        while len(_CACHE) > _CACHE_MAX:
            _CACHE.popitem(last=False)
    return compiled


def clear_spec_cache() -> None:
    """Drop every process-locally compiled plan (tests, memory pressure)."""
    with _CACHE_LOCK:
        _CACHE.clear()
