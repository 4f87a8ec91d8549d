"""Measured-backend search: time real candidates, FFTW-planner style.

The analytic cycle model (:func:`repro.search.dp.model_objective`) ranks
factorizations without touching hardware; this module is the other half
of the paper's feedback loop — candidates are *executed* on the real
executor registry (numpy | compiled | simulator × sequential | pthreads
| process) and ranked by best-of-``repeats`` wall-clock time, exactly
the way the serving layer will run them (stacked ``(batch, n)``
execution through :meth:`repro.smp.runtime.Runtime.run`).

The candidate space is the cross product of breakdown strategies
(:data:`repro.rewrite.breakdown.RADIX_STRATEGIES`) and codelet leaf
bounds; the evaluation *order* is a seeded shuffle derived from
``REPRO_SEED`` (:mod:`repro.seeding`), so a truncated budget times a
stable, reproducible prefix rather than whatever ``dict`` order happens
to be.  Results feed :meth:`repro.wisdom.Wisdom.record_tuning`, the
versioned fleet-shared ranking a wisdom-attached plan cache builds from
(:func:`repro.serve.plan_cache.plan_builder`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..frontend import feasible_threads
from ..hunt.oracles import ExecutorPools
from ..mp.spec import PlanSpec
from ..rewrite.breakdown import RADIX_STRATEGIES
from ..search.timer import pseudo_mflops_from_seconds, time_batched_callable
from ..seeding import default_seed, derive_rng
from ..serve.plan_cache import build_plan
from ..trace import get_tracer

#: runtimes a measured search can time against
RUNTIMES = ("sequential", "pthreads", "process")

#: codelet leaf bounds explored per strategy (in-process runtimes only;
#: the process lane times every strategy at PlanSpec's default bound)
LEAF_BOUNDS = (16, 32)

#: vector granularities explored when the backend compiles ν-wide code
NU_CHOICES = (1, 2, 4)


@dataclass(frozen=True)
class Candidate:
    """One point of the measured search space."""

    strategy: str
    min_leaf: int = 32
    #: vec(ν) granularity; only the compiled backend's emitted code
    #: changes with it, so the space carries ν > 1 only for ``compiled``
    nu: int = 1

    @property
    def label(self) -> str:
        tag = f"/v{self.nu}" if self.nu > 1 else ""
        return f"{self.strategy}/leaf{self.min_leaf}{tag}"


@dataclass
class Measurement:
    """One timed candidate: best-of-repeats seconds per batch application."""

    strategy: str
    min_leaf: int
    seconds: float
    batch: int = 1
    n: int = 0
    nu: int = 1

    @property
    def per_vector_ms(self) -> float:
        return self.seconds / max(1, self.batch) * 1e3

    @property
    def pseudo_mflops(self) -> float:
        if not self.n:
            return 0.0
        return pseudo_mflops_from_seconds(
            self.n, self.seconds / max(1, self.batch)
        )

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "min_leaf": self.min_leaf,
            "nu": self.nu,
            "seconds": self.seconds,
            "per_vector_ms": self.per_vector_ms,
            "pseudo_mflops": self.pseudo_mflops,
        }


@dataclass
class MeasuredSearchResult:
    """Ranked outcome of one measured search (fastest first)."""

    n: int
    threads: int
    mu: int
    backend: str
    runtime: str
    batch: int
    repeats: int
    budget: int
    seed: int
    ranking: list[Measurement] = field(default_factory=list)

    @property
    def best(self) -> Measurement:
        return self.ranking[0]

    def record(self) -> dict:
        """The wisdom-persisted form (see ``Wisdom.record_tuning``)."""
        return {
            "best": self.best.to_json(),
            "ranking": [m.to_json() for m in self.ranking],
            "batch": self.batch,
            "repeats": self.repeats,
            "seed": self.seed,
        }

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "threads": self.threads,
            "mu": self.mu,
            "backend": self.backend,
            "runtime": self.runtime,
            "budget": self.budget,
            **self.record(),
        }


def candidate_space(
    runtime: str = "sequential", backend: str = "numpy"
) -> list[Candidate]:
    """Every candidate a measured search may time, in a canonical order.

    Strategies are sorted by name so the space is stable across Python
    versions; the seeded shuffle in :func:`measured_search` decides
    which prefix a budget actually pays for.  The ``compiled`` backend
    adds the vec(ν) axis (:data:`NU_CHOICES`): scalar and ν-way plans
    compete on measured time; interpreted backends execute vectorized
    plans identically, so their space stays scalar.
    """
    strategies = sorted(RADIX_STRATEGIES)
    nus = NU_CHOICES if backend == "compiled" else (1,)
    if runtime == "process":
        # every process-lane candidate is one more compile in every pool
        # worker, so this lane explores only the strategy (and ν) axes, at
        # the default leaf bound (PlanSpec.min_leaf could carry another)
        return [Candidate(s, nu=nu) for s in strategies for nu in nus]
    return [
        Candidate(s, leaf, nu)
        for s in strategies
        for leaf in LEAF_BOUNDS
        for nu in nus
    ]


def measured_search(
    n: int,
    threads: int = 1,
    mu: int = 4,
    backend: str = "numpy",
    runtime: str = "sequential",
    budget: int = 8,
    repeats: int = 3,
    batch: int = 1,
    seed: Optional[int] = None,
    pools: Optional[ExecutorPools] = None,
    wisdom=None,
) -> MeasuredSearchResult:
    """Time up to ``budget`` candidates on the real executor; rank them.

    Every candidate sees the identical deterministic input (derived from
    ``seed``, defaulting to ``$REPRO_SEED``), is warmed up once, and is
    timed best-of-``repeats`` with GC paused
    (:func:`repro.search.timer.time_batched_callable`).  ``pools`` lets
    a sweep share thread/process pools across searches; when omitted a
    private set is built and torn down.  Passing ``wisdom`` persists the
    ranking via :meth:`~repro.wisdom.Wisdom.record_tuning`.
    """
    if runtime not in RUNTIMES:
        raise ValueError(
            f"unknown runtime {runtime!r}; expected one of {RUNTIMES}"
        )
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    seed = default_seed() if seed is None else seed
    t = feasible_threads(n, threads, mu)

    space = candidate_space(runtime, backend)
    rng = derive_rng(seed, "tune-candidates", n, t, mu, backend, runtime)
    order = [space[i] for i in rng.permutation(len(space))][:budget]

    tr = get_tracer()
    own_pools = pools is None
    pools = pools or ExecutorPools()
    ranking: list[Measurement] = []
    try:
        with tr.span("tune.measured_search", "search", n=n, threads=t,
                     mu=mu, backend=backend, runtime=runtime,
                     budget=len(order)):
            rt = pools.get(runtime, t)
            for cand in order:
                # the one builder, *uncached*: a search must not evict
                # plans a live cache is serving
                plan = build_plan(PlanSpec(
                    n=n, threads=t, mu=mu, strategy=cand.strategy,
                    min_leaf=cand.min_leaf, backend=backend, nu=cand.nu,
                ))
                seconds = time_batched_callable(
                    lambda X: rt.run(plan, X)[0], n, batch=batch,
                    repeats=repeats, rng=derive_rng(seed, "tune-input", n),
                )
                tr.count("tune.candidates_timed", 1, n=n)
                ranking.append(
                    Measurement(
                        strategy=cand.strategy,
                        min_leaf=cand.min_leaf,
                        seconds=seconds,
                        batch=batch,
                        n=n,
                        nu=cand.nu,
                    )
                )
    finally:
        if own_pools:
            pools.close()

    ranking.sort(key=lambda m: m.seconds)
    result = MeasuredSearchResult(
        n=n, threads=t, mu=mu, backend=backend, runtime=runtime,
        batch=batch, repeats=repeats, budget=budget, seed=seed,
        ranking=ranking,
    )
    if wisdom is not None:
        wisdom.record_tuning(n, t, mu, backend, runtime, result.record())
    return result
