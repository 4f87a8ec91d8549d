"""Automatic reduction of failing hunt cases (the diopter idiom).

A failing ``(formula, config)`` pair found by the sweep is usually huge:
a 26-node SPL term on a 512-point transform with threads, µ, batching,
and a non-default backend all in play.  :class:`Reducer` shrinks it to a
**1-minimal** reproducer the way compiler differential-testing toolchains
do (DeadCodeProductions/diopter): a pluggable *interestingness test*
decides whether a candidate still exhibits the original failure, and a
greedy loop keeps applying the first single shrink step that stays
interesting until no step does.

Shrink steps, all strictly decreasing under :func:`state_size` (a
lexicographic well-ordering, so reduction terminates without relying on
the step cap):

* **vec stripping** — a ν > 1 case (or a pinned term carrying vector
  constructs) devectorizes to its scalar equivalent, ruling the vec(ν)
  rewriting in or out of the failure in one step;
* **formula-tree pruning** — replace any square subterm by the identity,
  or drop one factor of a ``Compose`` (yielding a smaller SPL term whose
  own semantics become the oracle reference);
* **size halving** — ``n -> n/2``;
* **thread shrinking** — requested processors toward 1 (most aggressive
  first);
* **µ shrinking** — cache-line length toward 1;
* **batch shrinking** — request stack toward a single vector;
* **backend narrowing** — toward the ``numpy`` backend;
* **runtime narrowing** — process -> pthreads -> sequential;
* **strategy canonicalization** — toward the first strategy in
  deterministic order.

Interestingness is *failure-kind* equality (:attr:`Verdict.kind`), the
standard reduction contract: a candidate that fails differently — or
whose oracle crashes — is simply not interesting.  The final state is
1-minimal by construction: the loop stops exactly when every candidate
of :func:`shrink_candidates` is uninteresting, which the property tests
re-verify independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

from ..rewrite.simplify import simplify
from ..spl.expr import Compose, Expr, compose
from ..spl.matrices import I
from .gen import BACKENDS, RUNTIMES, STRATEGIES, HuntCase
from .oracles import Verdict


@dataclass(frozen=True)
class ReductionState:
    """One point of the reduction space: a config plus an optional term.

    ``term=None`` means the case's own spiral formula (the full DFT
    oracle applies); a non-None term is a pruned SPL expression carrying
    its own semantics.
    """

    case: HuntCase
    term: Optional[Expr] = None


def _term_nodes(state: ReductionState) -> int:
    """Node count of the state's effective formula (the secondary size)."""
    if state.term is not None:
        return state.term.count_nodes()
    from ..frontend import spiral_formula

    c = state.case
    return spiral_formula(
        c.n, c.threads, c.mu, c.strategy, nu=c.nu
    ).count_nodes()


def _has_vec_constructs(term: Expr) -> bool:
    """True when any node of ``term`` is a vector construct."""
    from ..vector import InRegisterTranspose, Vec, VecDiag, VecTensor

    return any(
        isinstance(e, (VecTensor, VecDiag, InRegisterTranspose, Vec))
        for e in term.preorder()
    )


class StateSize(NamedTuple):
    """:func:`state_size`'s key: a tuple, compared in field order, whose
    fields are read by name (``nodes`` is the effective formula's node
    count; the enum fields are indices into their orders)."""

    nu: int
    nodes: int
    n: int
    req_threads: int
    mu: int
    batch: int
    runtime: int
    backend: int
    strategy: int


def state_size(state: ReductionState) -> StateSize:
    """Lexicographic size key; every shrink step strictly decreases it.

    ``nu`` leads the order: devectorizing a term can *grow* its node
    count (untagged ``A ⊗ I_ν`` has one node more than ``A ⊗v I_ν``), so
    the strip-vec step shrinks the leading component instead — every
    scalar state keeps the exact ordering it had before the vec lane.
    """
    c = state.case
    return StateSize(
        c.nu,
        _term_nodes(state),
        c.n,
        c.req_threads,
        c.mu,
        c.batch,
        RUNTIMES.index(c.runtime),
        BACKENDS.index(c.backend),
        STRATEGIES.index(c.strategy),
    )


def _expr_paths(e: Expr, prefix: tuple = ()) -> Iterator[tuple[tuple, Expr]]:
    yield prefix, e
    for i, child in enumerate(e.children):
        yield from _expr_paths(child, prefix + (i,))


def _replace_at(e: Expr, path: tuple, repl: Expr) -> Expr:
    if not path:
        return repl
    kids = list(e.children)
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], repl)
    return e.rebuild(*kids)


def prune_terms(term: Expr) -> Iterator[Expr]:
    """Strictly smaller one-step prunings of an SPL term.

    Two transformation families (both preserve well-formedness — every
    variant still lowers):

    * any square non-identity subterm becomes ``I`` of its size;
    * any ``Compose`` drops one factor (FFT pipeline factors all share
      the transform size, so the product stays dimension-consistent).

    Variants are simplified and deduplicated; only node-count-reducing
    ones are yielded (identity replacement inside a dead branch can
    otherwise be a no-op).
    """
    base_nodes = term.count_nodes()
    seen: set = {term}

    def emit(variant: Expr) -> Iterator[Expr]:
        if variant in seen:
            return
        seen.add(variant)
        if variant.count_nodes() < base_nodes:
            yield variant

    for path, node in _expr_paths(term):
        if node.rows != node.cols or isinstance(node, I):
            continue
        try:
            variant = simplify(_replace_at(term, path, I(node.rows)))
        except Exception:  # noqa: BLE001 - malformed variant: skip
            continue
        yield from emit(variant)
        if isinstance(node, Compose) and len(node.factors) >= 2:
            for i in range(len(node.factors)):
                rest = [f for j, f in enumerate(node.factors) if j != i]
                if any(f.rows != f.cols for f in rest):
                    continue
                try:
                    variant = simplify(
                        _replace_at(term, path, compose(*rest))
                    )
                except Exception:  # noqa: BLE001 - malformed variant: skip
                    continue
                yield from emit(variant)


def shrink_candidates(
    state: ReductionState,
) -> Iterator[tuple[str, ReductionState]]:
    """Every single shrink step from ``state``, most aggressive first.

    Config steps only apply while no term is pinned (they change which
    formula the frontend derives); µ/batch/backend/runtime narrowing and
    term pruning apply throughout.
    """
    c = state.case

    # vec stripping first (most aggressive: rules the ν-way rewriting in
    # or out wholesale) — a tagged term devectorizes alongside the case
    # so term semantics and the plan the config would derive stay aligned
    if c.nu > 1:
        term = state.term
        if term is not None and _has_vec_constructs(term):
            from ..vector import devectorize

            try:
                term = simplify(devectorize(term))
            except Exception:  # noqa: BLE001 - malformed strip: keep tags
                term = state.term
        yield "strip-vec", ReductionState(c.with_(nu=1), term)

    if state.term is None:
        if c.n % 2 == 0 and c.n // 2 >= 4:
            yield "halve-size", ReductionState(c.with_(n=c.n // 2))
        for t in sorted({1, c.req_threads // 2, c.req_threads - 1}):
            if 1 <= t < c.req_threads:
                yield "shrink-threads", ReductionState(c.with_(req_threads=t))
        if STRATEGIES.index(c.strategy) > 0:
            yield "canon-strategy", ReductionState(
                c.with_(strategy=STRATEGIES[0])
            )

    for mu in sorted({1, c.mu // 2}):
        if 1 <= mu < c.mu:
            yield "shrink-mu", ReductionState(
                c.with_(mu=mu), state.term
            )
    for b in sorted({1, c.batch // 2}):
        if 1 <= b < c.batch:
            yield "shrink-batch", ReductionState(
                c.with_(batch=b), state.term
            )
    if BACKENDS.index(c.backend) > 0:
        yield "narrow-backend", ReductionState(
            c.with_(backend=BACKENDS[0]), state.term
        )
    if RUNTIMES.index(c.runtime) > 0:
        for r in RUNTIMES[: RUNTIMES.index(c.runtime)]:
            yield "narrow-runtime", ReductionState(
                c.with_(runtime=r), state.term
            )

    # formula-tree pruning: pin (or further prune) the term
    if state.term is None:
        from ..frontend import spiral_formula

        base = spiral_formula(c.n, c.threads, c.mu, c.strategy)
    else:
        base = state.term
    for variant in prune_terms(base):
        yield "prune-term", ReductionState(c, variant)


@dataclass
class ReductionStep:
    """One accepted shrink: what was applied and where it landed."""

    kind: str
    state: ReductionState
    size: tuple


@dataclass
class ReductionResult:
    """Outcome of one :meth:`Reducer.reduce` run."""

    original: ReductionState
    final: ReductionState
    failure: Verdict
    #: accepted shrink trail, in order (empty = already minimal)
    steps: list[ReductionStep] = field(default_factory=list)
    #: candidate oracle evaluations spent
    evaluations: int = 0
    #: True when the loop stopped because no candidate was interesting
    #: (1-minimality); False when the step cap cut it short
    minimal: bool = False

    @property
    def original_size(self) -> StateSize:
        return state_size(self.original)

    @property
    def final_size(self) -> StateSize:
        return state_size(self.final)


class Reducer:
    """Greedy 1-minimal reducer over :func:`shrink_candidates`.

    ``oracle`` maps a :class:`ReductionState` to a :class:`Verdict`; the
    interestingness test is "fails with the same :attr:`Verdict.kind` as
    the original failure" (diopter's pluggable-predicate idiom — pass a
    custom ``interesting`` to override).  ``max_steps`` bounds accepted
    shrinks and ``max_evaluations`` bounds total oracle spend; the
    strictly-decreasing size order makes both caps safety nets rather
    than the termination argument.
    """

    def __init__(
        self,
        oracle: Callable[[ReductionState], Verdict],
        interesting: Optional[
            Callable[[Verdict, Verdict], bool]
        ] = None,
        max_steps: int = 256,
        max_evaluations: int = 10_000,
    ):
        self._oracle = oracle
        self._interesting = interesting or (
            lambda base, v: (not v.ok) and v.kind == base.kind
        )
        self.max_steps = max_steps
        self.max_evaluations = max_evaluations

    def _try(self, state: ReductionState) -> Verdict:
        try:
            return self._oracle(state)
        except Exception as exc:  # noqa: BLE001 - crash = not interesting
            return Verdict(
                False, "oracle-crash", "reduce",
                f"{type(exc).__name__}: {exc}",
            )

    def reduce(
        self, state: ReductionState, failure: Optional[Verdict] = None
    ) -> ReductionResult:
        """Shrink ``state`` to a 1-minimal interesting reproducer."""
        base = failure if failure is not None else self._try(state)
        result = ReductionResult(original=state, final=state, failure=base)
        if base.ok:
            result.minimal = True
            return result

        current = state
        size = state_size(current)
        while len(result.steps) < self.max_steps:
            advanced = False
            for kind, cand in shrink_candidates(current):
                cand_size = state_size(cand)
                if cand_size >= size:
                    continue
                if result.evaluations >= self.max_evaluations:
                    break
                result.evaluations += 1
                verdict = self._try(cand)
                if self._interesting(base, verdict):
                    current, size = cand, cand_size
                    result.steps.append(ReductionStep(kind, cand, cand_size))
                    advanced = True
                    break
            if not advanced:
                result.minimal = True
                break
        result.final = current
        return result
