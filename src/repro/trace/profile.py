"""End-to-end profiled pipeline runs (the ``repro profile`` engine).

:func:`profile_transform` runs the whole generator — derivation, Σ-SPL
lowering, sharing analysis, cache replay, cost estimation, code generation,
and real threaded execution — under one :class:`~repro.trace.Tracer`, then
assembles the per-stage picture the paper's claims are stated in:

* modeled cycles per pipeline stage, split by mechanism (compute, memory,
  coherence, false sharing) from :mod:`repro.machine.cost_model`;
* simulated L1/L2 miss counts per stage from :mod:`repro.machine.replay`;
* coherence (true-sharing) misses and falsely shared lines per stage from
  :mod:`repro.machine.coherence` — zero falsely shared lines is
  Definition 1, checked on every profile run;
* barrier placement (inserted vs elided) and measured wall time and
  barrier-wait time per stage/thread from the real runtimes.

The result renders as a text report (:meth:`ProfileResult.render_text`) and
exports a Chrome trace (:meth:`ProfileResult.write_trace`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..codegen.python_backend import GeneratedProgram, generate
from ..machine.coherence import SharingReport, analyze_sharing
from ..machine.cost_model import CostBreakdown, SyncProfile, estimate_cost
from ..machine.replay import ReplayResult, replay
from ..machine.topology import MachineSpec, machine
from ..sigma.lower import lower
from ..smp.runtime import ExecutionStats, make_runtime
from .export import render_counters, write_chrome_trace
from .tracer import Tracer, tracing

#: size above which the O(accesses) cache replay is skipped by default
REPLAY_SIZE_LIMIT = 1 << 14


@dataclass
class StageProfile:
    """Everything the profiler knows about one pipeline stage."""

    index: int
    name: str
    parallel: bool
    barrier: bool
    cycles: float = 0.0
    compute_cycles: float = 0.0
    memory_cycles: float = 0.0
    coherence_cycles: float = 0.0
    false_sharing_cycles: float = 0.0
    l1_misses: int = 0
    l2_misses: int = 0
    coherence_misses: int = 0
    false_shared_lines: int = 0
    wall_us: float = 0.0


@dataclass
class ProfileResult:
    """A profiled transform: per-stage metrics plus the collected trace."""

    n: int
    threads: int
    mu: int
    machine: str
    runtime: str
    stages: list[StageProfile] = field(default_factory=list)
    cost: Optional[CostBreakdown] = None
    sharing: Optional[SharingReport] = None
    cache: Optional[ReplayResult] = None
    exec_stats: Optional[ExecutionStats] = None
    verified: Optional[bool] = None
    tracer: Optional[Tracer] = None
    program: Optional[GeneratedProgram] = None

    # -- derived -------------------------------------------------------------

    @property
    def barrier_count(self) -> int:
        return sum(1 for s in self.stages if s.barrier)

    @property
    def false_sharing_free(self) -> bool:
        """Definition 1, checked empirically on this profile run."""
        return sum(s.false_shared_lines for s in self.stages) == 0

    # -- exports -------------------------------------------------------------

    def write_trace(self, path) -> None:
        """Write the Chrome trace-event JSON collected during the run."""
        if self.tracer is None:
            raise ValueError("profile ran without a tracer")
        write_chrome_trace(
            self.tracer, path, process_name=f"repro profile n={self.n}"
        )

    def render_text(self) -> str:
        """The ``repro profile`` report: per-stage table plus totals."""
        tr = self.tracer
        head = [
            f"# repro profile: DFT_{self.n}  p={self.threads}  mu={self.mu}  "
            f"machine={self.machine}  runtime={self.runtime}",
        ]
        if self.verified is not None:
            head.append(f"# output verified against numpy.fft: {self.verified}")

        cols = (
            f"{'stage':>5} {'name':<16} {'par':>3} {'barrier':>7} "
            f"{'cycles':>12} {'compute':>10} {'memory':>10} {'coh.cyc':>9} "
            f"{'l1miss':>8} {'l2miss':>8} {'cohmiss':>8} {'fslines':>7} "
            f"{'wall_us':>9}"
        )
        rows = [cols]
        for s in self.stages:
            rows.append(
                f"{s.index:>5} {s.name[:16]:<16} "
                f"{'yes' if s.parallel else 'no':>3} "
                f"{'yes' if s.barrier else 'ELIDED':>7} "
                f"{s.cycles:>12.0f} {s.compute_cycles:>10.0f} "
                f"{s.memory_cycles:>10.0f} {s.coherence_cycles:>9.0f} "
                f"{s.l1_misses:>8} {s.l2_misses:>8} "
                f"{s.coherence_misses:>8} {s.false_shared_lines:>7} "
                f"{s.wall_us:>9.1f}"
            )

        totals = ["", "## totals"]
        if self.cost is not None:
            totals += [
                f"modeled cycles: {self.cost.total_cycles:.0f} "
                f"(compute {self.cost.compute:.0f}, memory "
                f"{self.cost.memory:.0f}, coherence {self.cost.coherence:.0f}, "
                f"false-sharing {self.cost.false_sharing:.0f}, "
                f"sync {self.cost.sync:.0f})",
            ]
        if self.cache is not None:
            totals.append(
                f"cache replay: {self.cache.accesses} accesses, "
                f"{self.cache.l1_misses} L1 misses "
                f"({self.cache.l1_miss_rate:.1%}), "
                f"{self.cache.l2_misses} L2 misses"
            )
        totals.append(
            f"barriers: {self.barrier_count} required, "
            f"{len(self.stages) - self.barrier_count} elided "
            f"(of {len(self.stages)} stages)"
        )
        if self.exec_stats is not None:
            totals.append(
                f"runtime execution: {self.exec_stats.barriers} barriers, "
                f"{self.exec_stats.parallel_stages} parallel / "
                f"{self.exec_stats.sequential_stages} sequential stages"
            )
        coh_total = sum(s.coherence_misses for s in self.stages)
        fs_total = sum(s.false_shared_lines for s in self.stages)
        totals.append(
            f"coherence misses (true sharing): {coh_total} line transfers"
        )
        totals.append(
            f"Definition 1 (false-sharing freedom): "
            f"{'PASS' if self.false_sharing_free else 'FAIL'} "
            f"({fs_total} falsely shared lines)"
        )
        if tr is not None and tr.counter_names():
            totals += ["", "## counters", render_counters(tr)]
        return "\n".join(head + rows + totals)


def profile_transform(
    n: int,
    threads: int = 1,
    mu: int = 4,
    machine_name: str = "core_duo",
    runtime: str = "pthreads",
    strategy: str = "balanced",
    min_leaf: int = 32,
    tracer: Optional[Tracer] = None,
    run: bool = True,
    replay_cache: Optional[bool] = None,
    spec: Optional[MachineSpec] = None,
) -> ProfileResult:
    """Profile one transform end to end; returns a :class:`ProfileResult`.

    ``replay_cache`` controls the O(accesses) cache-simulator replay; the
    default runs it up to ``n <= REPLAY_SIZE_LIMIT`` and skips it beyond.
    ``run=False`` skips the real threaded execution (model-only profile).
    ``threads`` is clamped by :func:`repro.frontend.feasible_threads`; the
    result's ``threads`` is the count that ran.
    """
    # late import; frontend imports us
    from ..frontend import feasible_threads, spiral_formula

    threads = feasible_threads(n, threads, mu)
    spec = spec or machine(machine_name)
    tr = tracer if tracer is not None else Tracer()
    if replay_cache is None:
        replay_cache = n <= REPLAY_SIZE_LIMIT
    result = ProfileResult(
        n=n,
        threads=threads,
        mu=mu,
        machine=spec.name,
        runtime=runtime if threads > 1 else "sequential",
        tracer=tr,
    )

    with tracing(tr):
        with tr.span("profile_transform", "profile", n=n, threads=threads,
                     mu=mu, machine=spec.name):
            with tr.span("formula", "rewrite", n=n):
                formula = spiral_formula(n, threads, mu, strategy, min_leaf)
            program = lower(formula)  # spans itself (sigma.lower)

            with tr.span("analyze_sharing", "machine"):
                sharing = analyze_sharing(program, mu)
            with tr.span("estimate_cost", "machine"):
                cost = estimate_cost(
                    program,
                    spec,
                    threads=threads,
                    profile=SyncProfile.POOLED
                    if threads > 1
                    else SyncProfile.NONE,
                    sharing=sharing if threads > 1 else None,
                )
            cache = None
            if replay_cache:
                with tr.span("cache_replay", "machine"):
                    cache = replay(program, spec)

            gen = generate(program)  # spans itself (codegen.python)

            exec_stats = None
            verified = None
            if run:
                rng = np.random.default_rng(0)
                x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                rt = make_runtime(result.runtime, threads)
                try:
                    with tr.span("execute", "smp", runtime=result.runtime):
                        out, exec_stats = gen.run_with_stats(x, rt)
                finally:
                    rt.close()
                verified = bool(np.allclose(out, np.fft.fft(x), atol=1e-6))

    # -- assemble the per-stage table -----------------------------------------
    result.cost = cost
    result.sharing = sharing
    result.cache = cache
    result.exec_stats = exec_stats
    result.verified = verified
    result.program = gen
    for si, stage in enumerate(program.stages):
        sp = StageProfile(
            index=si,
            name=stage.name or f"stage{si}",
            parallel=stage.parallel,
            barrier=stage.needs_barrier,
        )
        if si < len(cost.per_stage):
            entry = cost.per_stage[si]
            sp.cycles = entry["cycles"]
            sp.compute_cycles = entry.get("compute", 0.0)
            sp.memory_cycles = entry.get("memory", 0.0)
            sp.coherence_cycles = entry.get("coherence", 0.0)
            sp.false_sharing_cycles = entry.get("false_sharing", 0.0)
        if si < len(sharing.stages):
            st = sharing.stages[si]
            sp.coherence_misses = sum(st.coherence_misses.values())
            sp.false_shared_lines = st.false_shared_lines
        if cache is not None and si < len(cache.per_stage):
            sp.l1_misses = cache.per_stage[si]["l1_misses"]
            sp.l2_misses = cache.per_stage[si]["l2_misses"]
        # stage wall time = slowest processor, matching the cost model
        walls = [
            v
            for attrs, v in tr.counter_items("smp.stage_wall_s")
            if attrs.get("stage") == si
        ]
        sp.wall_us = max(walls, default=0.0) * 1e6
        result.stages.append(sp)
    return result
