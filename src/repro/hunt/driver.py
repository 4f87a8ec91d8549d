"""The hunt sweep: sample, judge, reduce, file.

:func:`run_hunt` drives the whole pipeline the ``repro hunt`` CLI verb
exposes: draw ``budget`` seeded :class:`~repro.hunt.gen.HuntCase`
configurations, evaluate each through the oracle stack, and for every
failure run the diopter-style reducer and file the 1-minimal reproducer
into the corpus directory.  Deterministic for a fixed ``(budget, seed,
backends, runtimes)`` and fault plan — the CI inverted lane relies on
this to assert that a seeded sabotage *always* yields a minimized,
strictly smaller reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .corpus import Reproducer, TermSerializationError, file_reproducer
from .gen import NUS, RUNTIMES, HuntCase, sample_cases
from .oracles import ExecutorPools, Verdict, run_oracle
from .reduce import ReductionState, Reducer, StateSize


@dataclass(frozen=True)
class HuntConfig:
    """One hunt invocation's knobs (mirrors the CLI flags)."""

    budget: int = 64
    seed: Optional[int] = None
    backends: tuple[str, ...] = ("numpy",)
    runtimes: tuple[str, ...] = RUNTIMES
    reduce: bool = True
    corpus_dir: Optional[str] = None
    max_steps: int = 256
    #: wisdom file whose measured rankings extend the config space with
    #: tuned-plan provenance (``repro hunt --wisdom``); None = generated only
    wisdom_path: Optional[str] = None
    #: vec(ν) granularities the vectorized-term lane samples; ``(1,)``
    #: reproduces the pre-vectorization scalar sweep exactly
    nus: tuple[int, ...] = NUS


@dataclass
class HuntFinding:
    """One failing case: the original verdict plus its reduction."""

    case: HuntCase
    verdict: Verdict
    reduced: Optional[ReductionState] = None
    reduced_minimal: bool = False
    reduction_steps: int = 0
    original_size: Optional[StateSize] = None
    reduced_size: Optional[StateSize] = None
    corpus_path: Optional[Path] = None


@dataclass
class HuntReport:
    """The sweep's outcome; ``ok`` iff no case failed its oracle."""

    config: HuntConfig
    cases: int = 0
    passed: int = 0
    findings: list[HuntFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def render_text(self) -> str:
        lines = [
            f"hunt: {self.cases} case(s) swept "
            f"(seed={self.config.seed}, backends={list(self.config.backends)}, "
            f"runtimes={list(self.config.runtimes)})",
            f"  passed: {self.passed}",
            f"  failed: {len(self.findings)}",
        ]
        for f in self.findings:
            lines.append(f"  FAIL {f.case.label()}: {f.verdict}")
            if f.reduced is not None:
                nodes_before = f.original_size.nodes if f.original_size else "?"
                nodes_after = f.reduced_size.nodes if f.reduced_size else "?"
                tag = "1-minimal" if f.reduced_minimal else "step-capped"
                lines.append(
                    f"       reduced [{tag}] in {f.reduction_steps} step(s): "
                    f"{nodes_before} -> {nodes_after} nodes, "
                    f"case {f.reduced.case.label()}"
                )
            if f.corpus_path is not None:
                lines.append(f"       filed: {f.corpus_path}")
        if self.ok:
            lines.append("  all executors agree with the oracle stack")
        return "\n".join(lines)


def run_hunt(config: HuntConfig) -> HuntReport:
    """Execute one differential-fuzzing sweep (see module docstring)."""
    wisdom = None
    if config.wisdom_path is not None:
        from ..wisdom import Wisdom

        wisdom = Wisdom(config.wisdom_path)
    cases = sample_cases(
        config.budget,
        seed=config.seed,
        backends=config.backends,
        runtimes=config.runtimes,
        wisdom=wisdom,
        nus=config.nus,
    )
    report = HuntReport(config=config, cases=len(cases))
    pools = ExecutorPools()
    try:
        for case in cases:
            verdict = run_oracle(case, pools=pools)
            if verdict.ok:
                report.passed += 1
                continue
            finding = HuntFinding(case=case, verdict=verdict)
            reproducer = None
            if config.reduce:
                reducer = Reducer(
                    lambda st: run_oracle(st.case, term=st.term, pools=pools),
                    max_steps=config.max_steps,
                )
                state = ReductionState(case)
                result = reducer.reduce(state, failure=verdict)
                finding.reduced = result.final
                finding.reduced_minimal = result.minimal
                finding.reduction_steps = len(result.steps)
                finding.original_size = result.original_size
                finding.reduced_size = result.final_size
                reproducer = Reproducer.from_failure(
                    result.final.case,
                    verdict,
                    term=result.final.term,
                    origin=case,
                    origin_nodes=result.original_size.nodes,
                    trail=[s.kind for s in result.steps],
                )
            else:
                reproducer = Reproducer.from_failure(case, verdict)
            if config.corpus_dir is not None:
                try:
                    finding.corpus_path = file_reproducer(
                        reproducer, config.corpus_dir
                    )
                except TermSerializationError:
                    # File the config-only case rather than nothing.
                    fallback = Reproducer.from_failure(
                        reproducer.case, verdict, origin=case,
                    )
                    finding.corpus_path = file_reproducer(
                        fallback, config.corpus_dir
                    )
            report.findings.append(finding)
    finally:
        pools.close()
    return report
