"""Top-level Spiral-SMP pipeline: transform spec -> optimized program.

Mirrors the architecture of Figure 1 in the paper:

1. *Formula generation* — Cooley-Tukey breakdown with an admissible top
   split, tagged ``smp(p, mu)`` and rewritten by Table 1 into the multicore
   Cooley-Tukey FFT (Eq. 14);
2. *Formula optimization* — Sigma-SPL loop merging (permutations and
   twiddles folded into loop index functions);
3. *Implementation* — Python/NumPy or multithreaded C code generation;
4. *Evaluation* — the machine cost model or measured runtime;
5. *Search* — thread-count/radix selection by feedback (see
   :mod:`repro.search` for factorization-tree search).

``generate_fft`` is the one-call convenience API; :class:`SpiralSMP` is the
stateful planner used by benchmarks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .codegen.flags import simd_disabled
from .codegen.python_backend import GeneratedProgram, generate
from .machine.cost_model import CostBreakdown, SyncProfile, estimate_cost
from .machine.topology import MachineSpec
from .rewrite.breakdown import expand_dft
from .rewrite.derive import derive_multicore_ct, derive_sequential_ct
from .sigma.loops import SigmaProgram
from .sigma.lower import lower
from .spl.expr import Expr, SPLError
from .trace import Counters, get_tracer


def feasible_threads(n: int, p: int, mu: int) -> int:
    """Largest thread count t <= p with an admissible Eq. (14): (t*mu)^2 | n.

    Every candidate from ``p`` down to 2 is tried: a halving descent would
    skip feasible counts for non-power-of-two ``p`` (e.g. ``p=6`` would test
    6 and 3 but never 2).
    """
    for t in range(p, 1, -1):
        if n % ((t * mu) * (t * mu)) == 0:
            return t
    return 1


_VEC_WARNED = False

#: process-wide vec→scalar degradations (``FFTService.stats()["vector"]``)
counters = Counters("vector", ("fallback", "no_simd"))


def _warn_vector_fallback(n: int, threads: int, nu: int, why: str) -> None:
    """Warn (once per process) that a ν-way plan degraded to scalar."""
    global _VEC_WARNED
    if not _VEC_WARNED:
        _VEC_WARNED = True
        warnings.warn(
            f"vec({nu}) rewriting of DFT_{n} (threads={threads}) failed "
            f"({why}); generating the scalar plan instead",
            RuntimeWarning,
            stacklevel=4,
        )


def vectorize_formula(f: Expr, n: int, threads: int, nu: int) -> tuple[Expr, int]:
    """Apply ``vec(ν)`` rewriting to an expanded formula, or degrade.

    Returns ``(formula, effective_nu)``.  Mirrors the backend registry's
    :func:`~repro.codegen.registry.resolve_backend` seam: a formula the
    vec rules cannot fully discharge (ν ∤ µ LinePerms, bare small-DFT
    leaves, odd shapes), or a ν that is not a power of two (the C glue's
    ``vN`` types have 2^k lanes), degrades to the scalar formula with a
    ``vector.fallback`` count and a once-per-process warning —
    plan building never fails because a ν was requested.  ``REPRO_NO_SIMD``
    forces scalar plans outright (counted as ``vector.no_simd``).
    """
    from .vector import vectorize, vectorize_smp

    if nu <= 1:
        return f, 1
    tr = get_tracer()
    if simd_disabled():
        counters.add("no_simd")
        return f, 1
    try:
        if nu & (nu - 1):
            raise SPLError(f"ν = {nu} is not a power of two")
        with tr.span("frontend.vectorize", "rewrite", nu=nu):
            v = vectorize_smp(f, nu) if threads > 1 else vectorize(f, nu)
        return v, nu
    except SPLError as exc:  # includes VectorizationError
        counters.add("fallback", nu=nu)
        _warn_vector_fallback(n, threads, nu, str(exc)[:120])
        return f, 1


def spiral_formula(n: int, threads: int, mu: int, strategy: str = "balanced",
                   min_leaf: int = 32, nu: int = 1) -> Expr:
    """Fully expanded formula for ``DFT_n`` on ``threads`` processors.

    ``nu > 1`` additionally applies the short-vector ``vec(ν)`` rewriting
    (:mod:`repro.vector`) so every compute stage carries ν-lane vector
    constructs; inadmissible combinations degrade to the scalar formula
    (see :func:`vectorize_formula`).
    """
    tr = get_tracer()
    with tr.span("frontend.derive", "rewrite", n=n, threads=threads, mu=mu):
        if threads > 1:
            f = derive_multicore_ct(n, threads, mu)
        else:
            f = derive_sequential_ct(n)
    with tr.span("frontend.expand", "rewrite", strategy=strategy):
        f = expand_dft(f, strategy, min_leaf=min_leaf)
    f, _ = vectorize_formula(f, n, threads, nu)
    return f


def lower_fft(n: int, threads: int = 1, mu: int = 4,
              strategy: str = "balanced", min_leaf: int = 32,
              nu: int = 1) -> SigmaProgram:
    """The lowered Σ-SPL program for ``DFT_n``: what every backend builds
    its stages from (:func:`generate_fft` prints it as Python)."""
    f = spiral_formula(n, threads, mu, strategy, min_leaf, nu=nu)
    # mu-aware elision: unsynchronized chains must be line-disjoint,
    # not just element-disjoint (certified by `repro check`)
    return lower(f, barrier_mu=mu)


def generate_fft(
    n: int,
    threads: int = 1,
    mu: int = 4,
    strategy: str = "balanced",
    min_leaf: int = 32,
    nu: int = 1,
) -> GeneratedProgram:
    """Generate an executable FFT program (the quickstart entry point).

    Returns a :class:`GeneratedProgram`; call it on a length-``n`` complex
    vector, or pass a :class:`repro.smp.PThreadsRuntime` to ``run`` for
    multithreaded execution.

    ``nu`` selects the vector granularity: ``nu > 1`` runs the ``vec(ν)``
    rewriting so the lowered loops carry ν-lane blocks the compiled
    backend widens into SIMD-shaped C (interpreted backends execute them
    identically).  Inadmissible (n, threads, µ, ν) combinations fall back
    to the scalar plan instead of erroring.

    Under an active :mod:`repro.trace` tracer the whole pipeline is recorded
    as a ``generate_fft`` span with derivation, lowering, and codegen child
    spans (see ``docs/profiling.md``).
    """
    tr = get_tracer()
    with tr.span("generate_fft", "frontend", n=n, threads=threads, mu=mu,
                 nu=nu):
        return generate(lower_fft(n, threads, mu, strategy, min_leaf, nu))


@dataclass
class TransformPlan:
    """A planned transform: formula, loops, and modeled cost."""

    n: int
    threads: int
    program: SigmaProgram
    cost: CostBreakdown
    profile: SyncProfile

    def pseudo_mflops(self, spec: MachineSpec) -> float:
        return self.cost.pseudo_mflops(spec)


class SpiralSMP:
    """Spiral-with-shared-memory-extension planner on a simulated machine."""

    def __init__(
        self,
        spec: MachineSpec,
        min_leaf: int = 32,
        strategy: str = "balanced",
    ):
        self.spec = spec
        self.min_leaf = min_leaf
        self.strategy = strategy
        self._programs: dict[tuple[int, int], SigmaProgram] = {}

    def program(self, n: int, threads: int) -> SigmaProgram:
        """Lowered (merged, mu-aware) program for ``n`` on ``threads`` cores."""
        key = (n, threads)
        if key not in self._programs:
            self._programs[key] = lower_fft(
                n, threads, self.spec.mu, self.strategy, self.min_leaf
            )
        return self._programs[key]

    def cost(
        self,
        n: int,
        threads: int,
        profile: SyncProfile = SyncProfile.POOLED,
    ) -> CostBreakdown:
        return self.plan(n, threads, profile).cost

    def plan(
        self,
        n: int,
        threads: int,
        profile: SyncProfile = SyncProfile.POOLED,
    ) -> TransformPlan:
        t = feasible_threads(n, threads, self.spec.mu)
        prog = self.program(n, t)
        cost = estimate_cost(
            prog,
            self.spec,
            threads=t,
            profile=profile if t > 1 else SyncProfile.NONE,
        )
        return TransformPlan(n, t, prog, cost, profile)

    def pseudo_mflops(
        self, n: int, threads: int, profile: SyncProfile = SyncProfile.POOLED
    ) -> float:
        return self.cost(n, threads, profile).pseudo_mflops(self.spec)

    def clear_cache(self) -> None:
        self._programs.clear()


def verify_program(gen: GeneratedProgram, rng=None, atol: float = 1e-6) -> bool:
    """Quick numerical check of a generated program against numpy.fft."""
    rng = rng or np.random.default_rng(0)
    x = rng.standard_normal(gen.size) + 1j * rng.standard_normal(gen.size)
    return bool(np.allclose(gen.run(x), np.fft.fft(x), atol=atol))
