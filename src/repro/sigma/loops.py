"""The Sigma-SPL loop intermediate representation.

A :class:`SigmaProgram` is an ordered pipeline of :class:`Stage` objects.
Each stage is a set of :class:`BlockLoop` work items, partitioned over
processors; all permutations and diagonals of the source formula have been
folded into the loops' gather/scatter index tables and scale vectors, so a
stage reads its input exactly once and writes its output exactly once — the
memory behaviour the paper's cost arguments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from ..spl.expr import COMPLEX, Expr


@dataclass
class BlockLoop:
    """``count`` applications of a small kernel with merged indexing.

    Execution semantics (one loop iteration ``j < count``)::

        t_in  = pre_scale[j] * x[gather[j]]        # merged perm + diag
        t_out = kernel(t_in)                        # codelet
        y[scatter[j]] = post_scale[j] * t_out       # merged perm + diag

    ``gather``/``scatter`` are ``count x k`` index tables; ``pre_scale`` /
    ``post_scale`` are optional ``count x k`` complex factors (``None`` means
    all-ones).  ``proc`` is the owning processor for parallel stages.

    ``nu`` is the vector granularity carried down from the ``vec(ν)``
    rewriting (:mod:`repro.vector`): ``nu > 1`` asserts that the loop's
    iterations come in blocks of ``nu`` consecutive rows executing the
    same kernel — the unit the C emitters widen into ν-way SIMD bodies.
    Interpreted execution ignores it (the semantics are unchanged); it
    is purely a code-shape attribute.
    """

    kernel: Expr
    gather: np.ndarray
    scatter: np.ndarray
    pre_scale: Optional[np.ndarray] = None
    post_scale: Optional[np.ndarray] = None
    proc: Optional[int] = None
    nu: int = 1

    def __post_init__(self) -> None:
        if self.nu < 1 or self.gather.shape[0] % self.nu:
            raise ValueError(
                f"nu={self.nu} must be >= 1 and divide the iteration count "
                f"{self.gather.shape[0]}"
            )
        k_in, k_out = self.kernel.cols, self.kernel.rows
        if self.gather.ndim != 2 or self.gather.shape[1] != k_in:
            raise ValueError(
                f"gather shape {self.gather.shape} does not match kernel "
                f"input size {k_in}"
            )
        if self.scatter.ndim != 2 or self.scatter.shape[1] != k_out:
            raise ValueError(
                f"scatter shape {self.scatter.shape} does not match kernel "
                f"output size {k_out}"
            )
        if self.gather.shape[0] != self.scatter.shape[0]:
            raise ValueError("gather/scatter iteration counts differ")
        for name in ("pre_scale", "post_scale"):
            s = getattr(self, name)
            if s is not None and np.allclose(s, 1.0):
                setattr(self, name, None)

    @property
    def count(self) -> int:
        return int(self.gather.shape[0])

    @property
    def kernel_size(self) -> int:
        return int(self.kernel.cols)

    def execute(self, x: np.ndarray, y: np.ndarray) -> None:
        """Run all iterations, vectorized over the loop dimension."""
        t = x[self.gather]
        if self.pre_scale is not None:
            t = t * self.pre_scale
        t = self.kernel.apply(t)
        if self.post_scale is not None:
            t = t * self.post_scale
        y[self.scatter] = t

    def flops(self) -> int:
        total = self.count * self.kernel.flops()
        if self.pre_scale is not None:
            total += 6 * self.pre_scale.size
        if self.post_scale is not None:
            total += 6 * self.post_scale.size
        return total


@dataclass
class Stage:
    """One pipeline stage: loops partitioned over processors.

    ``needs_barrier`` records whether a synchronization point is required
    *before* this stage (i.e. whether any processor reads data written by a
    different processor in the previous stage).
    """

    loops: list[BlockLoop]
    parallel: bool = False
    needs_barrier: bool = True
    name: str = ""

    @property
    def procs(self) -> list[int]:
        return sorted({lp.proc for lp in self.loops if lp.proc is not None})

    def shares(
        self,
    ) -> Iterator[tuple[Optional[int], list[tuple[int, BlockLoop]]]]:
        """The stage's work shares: ``(proc, [(loop id, loop), ...])``.

        A parallel stage yields one share per owning processor, in
        processor order; any other stage yields a single ``(None, every
        loop)`` share that whoever runs the stage executes whole.  Loop ids
        index ``self.loops``.  Every emitter and the simulator dispatch on
        this, so they agree on which processor owns which loop.
        """
        procs = self.procs if self.parallel else []
        for proc in procs:
            yield proc, [
                (lid, lp)
                for lid, lp in enumerate(self.loops)
                if lp.proc == proc
            ]
        if not procs:
            yield None, list(enumerate(self.loops))

    def loops_for(self, proc: Optional[int]) -> list[BlockLoop]:
        return [lp for lp in self.loops if lp.proc == proc or lp.proc is None]

    def execute(self, x: np.ndarray, y: np.ndarray) -> None:
        for lp in self.loops:
            lp.execute(x, y)

    def flops(self) -> int:
        return sum(lp.flops() for lp in self.loops)

    def reads(self, proc: Optional[int] = None) -> np.ndarray:
        loops = self.loops if proc is None else self.loops_for(proc)
        if not loops:
            return np.empty(0, dtype=np.intp)
        return np.concatenate([lp.gather.reshape(-1) for lp in loops])

    def writes(self, proc: Optional[int] = None) -> np.ndarray:
        loops = self.loops if proc is None else self.loops_for(proc)
        if not loops:
            return np.empty(0, dtype=np.intp)
        return np.concatenate([lp.scatter.reshape(-1) for lp in loops])


class SigmaValidationError(Exception):
    """A structurally invalid Sigma-SPL program."""


@dataclass
class SigmaProgram:
    """A lowered transform: ``size -> size`` pipeline of stages.

    Stages are stored in *application order* (stage 0 runs first).
    """

    size: int
    stages: list[Stage] = field(default_factory=list)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Reference executor (sequential, double-buffered)."""
        x = np.asarray(x, dtype=COMPLEX)
        if x.shape != (self.size,):
            raise ValueError(f"expected shape ({self.size},), got {x.shape}")
        cur = x.copy()
        nxt = np.empty_like(cur)
        for stage in self.stages:
            stage.execute(cur, nxt)
            cur, nxt = nxt, cur
        return cur

    def validate(self) -> None:
        """Check each stage writes every output index exactly once."""
        full = np.arange(self.size)
        for si, stage in enumerate(self.stages):
            w = np.sort(stage.writes())
            if not np.array_equal(w, full):
                raise SigmaValidationError(
                    f"stage {si} ({stage.name!r}) writes {w.size} indices, "
                    f"not a partition of [0, {self.size})"
                )
            r = np.sort(stage.reads())
            if not np.array_equal(r, full):
                raise SigmaValidationError(
                    f"stage {si} ({stage.name!r}) reads {r.size} indices, "
                    f"not a partition of [0, {self.size})"
                )

    def flops(self) -> int:
        return sum(stage.flops() for stage in self.stages)

    def barrier_count(self) -> int:
        return sum(1 for s in self.stages if s.needs_barrier)

    def analyze_barriers(self, mu: int = 1) -> None:
        """Elide barriers between stages whose dataflow is processor-private.

        Workers run unsynchronized through consecutive barrier-free stages,
        so elision is sound only when, over the *whole* barrier-free chain,
        every processor touches (reads or writes, in either double buffer) a
        set of indices disjoint from every other processor's.  Disjointness
        makes any interleaving race-free and forces reads to come from the
        same processor's earlier writes (stage writes partition the output,
        so a cross-processor producer would intersect access sets).

        ``mu`` sets the disjointness granularity in elements.  The default
        (1) checks element indices — race freedom only.  Passing the cache
        line length checks *line* indices instead, which is strictly
        stronger: an element-disjoint but line-sharing chain is race-free
        yet ping-pongs line ownership with no fence bounding the episode,
        so the µ-aware mode keeps its barrier.  The dynamic checker
        (:mod:`repro.check`) flags exactly those chains when a plan was
        analyzed µ-obliviously.

        The first stage never needs a barrier (inputs are ready before the
        plan starts).
        """
        if mu < 1:
            raise ValueError(f"need mu >= 1, got {mu}")
        if not self.stages:
            return
        self.stages[0].needs_barrier = False
        # per-proc cumulative access sets since the last barrier
        chain: dict[int, np.ndarray] = self._stage_accesses(
            self.stages[0], mu
        )
        for cur in self.stages[1:]:
            cur_acc = self._stage_accesses(cur, mu)
            merged = self._merge_accesses(chain, cur_acc)
            if (
                cur.parallel
                and merged is not None
                and self._pairwise_disjoint(merged)
            ):
                cur.needs_barrier = False
                chain = merged
            else:
                cur.needs_barrier = True
                chain = cur_acc if cur.parallel else {}

    @staticmethod
    def _stage_accesses(stage: Stage, mu: int = 1) -> dict[int, np.ndarray]:
        if not stage.parallel:
            return {}
        return {
            proc: np.unique(
                np.concatenate([stage.reads(proc), stage.writes(proc)]) // mu
            )
            for proc in stage.procs
        }

    @staticmethod
    def _merge_accesses(
        a: dict[int, np.ndarray], b: dict[int, np.ndarray]
    ) -> Optional[dict[int, np.ndarray]]:
        if not a or not b:
            return None
        out = dict(a)
        for proc, acc in b.items():
            out[proc] = (
                np.union1d(out[proc], acc) if proc in out else acc
            )
        return out

    @staticmethod
    def _pairwise_disjoint(acc: dict[int, np.ndarray]) -> bool:
        procs = sorted(acc)
        total = sum(acc[p].size for p in procs)
        if total == 0:
            return True
        merged = np.concatenate([acc[p] for p in procs])
        return np.unique(merged).size == total

    def summary(self) -> str:
        lines = [f"SigmaProgram(size={self.size}, stages={len(self.stages)})"]
        for i, s in enumerate(self.stages):
            kinds = {type(lp.kernel).__name__ for lp in s.loops}
            nu = max((lp.nu for lp in s.loops), default=1)
            lines.append(
                f"  stage {i}: {s.name or 'unnamed'}"
                f" loops={len(s.loops)} parallel={s.parallel}"
                f" barrier={s.needs_barrier} kernels={sorted(kinds)}"
                + (f" nu={nu}" if nu > 1 else "")
            )
        return "\n".join(lines)
