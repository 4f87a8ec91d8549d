"""Seeded case generation for the ``repro hunt`` differential fuzzer.

:func:`sample_cases` draws full :class:`HuntCase` configurations (size,
requested threads, µ, breakdown strategy, batch shape, execution
backend, runtime, ν) through :mod:`repro.seeding`, so ``REPRO_SEED``
reproduces a sweep — the CLI's and tier-1's seeded hunt budget alike —
from one knob.

Every dimension pool is deliberately adversarial: sizes span the whole
small-transform range, thread requests include non-powers-of-two (the
clamp path of :func:`repro.frontend.feasible_threads`), µ includes 1
(no false-sharing constraint) through 4, and every registered breakdown
strategy is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..rewrite.breakdown import RADIX_STRATEGIES
from ..seeding import default_seed, derive_rng

#: transform sizes the sweep samples (powers of two; the paper's range)
SIZES: list[int] = [16, 32, 64, 128, 256, 512]

#: requested processor counts — non-powers-of-two exercise thread clamping
THREAD_REQUESTS: list[int] = [1, 2, 3, 4, 5, 6, 8]

#: cache-line lengths (complex elements) the false-sharing oracle certifies
MUS: list[int] = [1, 2, 4]

#: every registered breakdown strategy, in deterministic order
STRATEGIES: list[str] = sorted(RADIX_STRATEGIES)

#: runtime pool, in narrowing order (the reducer shrinks leftward)
RUNTIMES: tuple[str, ...] = ("sequential", "pthreads", "process")

#: backend pool, in narrowing order (the reducer shrinks leftward)
BACKENDS: tuple[str, ...] = ("numpy", "compiled", "simulator")

#: vec(ν) granularities the vectorized-term lane draws (1 = scalar)
NUS: tuple[int, ...] = (1, 2, 4)


@dataclass(frozen=True)
class HuntCase:
    """One sampled configuration of the whole executor cross-product.

    ``req_threads`` is the *requested* processor count; the admissible
    count actually planned is :attr:`threads` (Eq. (14) clamping).
    Frozen and hashable so cases key caches and replay corpora directly.
    """

    n: int
    req_threads: int
    mu: int
    strategy: str
    batch: int
    backend: str = "numpy"
    runtime: str = "sequential"
    #: vec(ν) granularity the plan is derived at (1 = scalar; ν > 1
    #: formulas carry vector constructs through lowering — the
    #: vectorized-term lane of the sweep)
    nu: int = 1
    #: where the strategy came from: "generated" (pool draw) or "wisdom"
    #: (replaced by a measured-search ranking; see :mod:`repro.tune`)
    provenance: str = "generated"

    @property
    def threads(self) -> int:
        """The clamped (admissible) thread count for this configuration."""
        from ..frontend import feasible_threads

        return feasible_threads(self.n, self.req_threads, self.mu)

    def label(self) -> str:
        """Compact test-id style label, e.g. ``n64-p3-mu2-balanced-b2-numpy-seq``."""
        base = (
            f"n{self.n}-p{self.req_threads}-mu{self.mu}-{self.strategy}"
            f"-b{self.batch}-{self.backend}-{self.runtime}"
        )
        if self.nu != 1:
            base += f"-v{self.nu}"
        if self.provenance != "generated":
            base += f"-{self.provenance}"
        return base

    def to_json(self) -> dict:
        """JSON-able form (the corpus format's ``case`` object).

        ``provenance`` and ``nu`` are emitted only when non-default, so
        corpora filed before the tuning/vectorization PRs stay
        byte-identical and content hashes of purely generated scalar
        cases never move.
        """
        data = {
            "n": self.n,
            "req_threads": self.req_threads,
            "mu": self.mu,
            "strategy": self.strategy,
            "batch": self.batch,
            "backend": self.backend,
            "runtime": self.runtime,
        }
        if self.nu != 1:
            data["nu"] = self.nu
        if self.provenance != "generated":
            data["provenance"] = self.provenance
        return data

    @classmethod
    def from_json(cls, data: dict) -> "HuntCase":
        """Inverse of :meth:`to_json` (unknown keys rejected loudly)."""
        known = {
            "n", "req_threads", "mu", "strategy", "batch", "backend",
            "runtime", "nu", "provenance",
        }
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown HuntCase fields: {sorted(extra)}")
        return cls(**data)

    def with_(self, **kw) -> "HuntCase":
        """A copy with some fields replaced (the reducer's shrink step)."""
        return replace(self, **kw)


def sample_cases(
    budget: int,
    seed: int | None = None,
    backends: tuple[str, ...] = ("numpy",),
    runtimes: tuple[str, ...] = RUNTIMES,
    label: str = "hunt-sweep",
    wisdom=None,
    nus: tuple[int, ...] = NUS,
) -> list[HuntCase]:
    """Sample ``budget`` :class:`HuntCase` configurations deterministically.

    Each case draws size, thread request, µ, strategy and batch rows in
    that order, then backend and runtime from the given pools, so the
    hunt's sweep is fully determined by ``(budget, seed, backends,
    runtimes)``; a longer sweep extends a shorter one.

    A non-None ``wisdom`` (:class:`repro.wisdom.Wisdom`) extends the
    config space with tuned-plan provenance: any drawn case whose
    ``(n, threads, mu, backend, runtime)`` lane carries a measured-search
    ranking (see :func:`repro.tune.measured_search`) adopts the ranked
    best strategy and is marked ``provenance="wisdom"`` — the fuzzer
    then hammers exactly the plans production traffic would load.  The
    substitution consumes no extra rng draws, so every pinned
    ``wisdom=None`` stream is bit-identical to before.

    The vectorized-term lane draws ``nu`` from ``nus`` on a *separately
    derived* rng stream (label ``"-nu"``), so the base configuration
    stream is also bit-identical to pre-vectorization sweeps — pinning
    ``nus=(1,)`` reproduces the old scalar sweep exactly.
    """
    for b in backends:
        if b not in BACKENDS:
            raise ValueError(f"unknown backend {b!r}; known: {BACKENDS}")
    for r in runtimes:
        if r not in RUNTIMES:
            raise ValueError(f"unknown runtime {r!r}; known: {RUNTIMES}")
    for v in nus:
        if v not in NUS:
            raise ValueError(f"unknown nu {v!r}; known: {NUS}")
    base = default_seed() if seed is None else seed
    rng = derive_rng(base, label)
    nu_rng = derive_rng(base, label + "-nu")
    cases = []
    for _ in range(budget):
        case = HuntCase(
            n=SIZES[rng.integers(len(SIZES))],
            req_threads=THREAD_REQUESTS[rng.integers(len(THREAD_REQUESTS))],
            mu=MUS[rng.integers(len(MUS))],
            strategy=STRATEGIES[rng.integers(len(STRATEGIES))],
            batch=int(rng.integers(1, 5)),
            backend=backends[rng.integers(len(backends))],
            runtime=runtimes[rng.integers(len(runtimes))],
            nu=int(nus[nu_rng.integers(len(nus))]),
        )
        if wisdom is not None:
            record = wisdom.tuning(
                case.n, case.threads, case.mu, case.backend, case.runtime
            )
            best = (record or {}).get("best", {}).get("strategy")
            if best in RADIX_STRATEGIES:
                case = case.with_(strategy=best, provenance="wisdom")
        cases.append(case)
    return cases
