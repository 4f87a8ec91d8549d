"""Cache-coherence accounting for Sigma-SPL programs.

Analyzes a scheduled program stage by stage:

* **True-sharing (communication) misses**: a processor touches a line whose
  last writer was a different processor — the line must move between caches.
  This is the unavoidable inter-processor communication of the algorithm
  (e.g. the all-to-all of the FFT's transpose stage).

* **False sharing**: within one stage, two processors write *different
  words* of the *same* line (writes of one stage are disjoint at word
  granularity by construction, so any line written by two processors is
  falsely shared).  Each such line ping-pongs between the writers' caches;
  the bounce count is estimated as the number of ownership alternations,
  bounded by the words written.

The paper proves Spiral's generated schedules have *zero* false sharing
(Definition 1); :func:`count_false_sharing` verifies this empirically per
program, and shows the non-zero counts of mu-oblivious (block-cyclic)
schedules.

Stages read one buffer and write the other (double buffering), so last-writer
state is tracked per buffer parity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sigma.loops import SigmaProgram, Stage
from ..trace import get_tracer


@dataclass
class StageSharing:
    """Sharing analysis of one stage."""

    name: str
    #: per-proc count of lines read/written whose last writer was another proc
    coherence_misses: dict = field(default_factory=dict)
    #: lines written by >= 2 processors in this stage
    false_shared_lines: int = 0
    #: estimated ownership bounces caused by falsely shared lines
    false_sharing_bounces: int = 0
    #: the line indices themselves (diagnostics for repro.check)
    shared_line_ids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )


@dataclass
class SharingReport:
    """Whole-program sharing analysis."""

    stages: list[StageSharing] = field(default_factory=list)

    @property
    def total_coherence_misses(self) -> int:
        return sum(sum(s.coherence_misses.values()) for s in self.stages)

    @property
    def total_false_shared_lines(self) -> int:
        return sum(s.false_shared_lines for s in self.stages)

    @property
    def total_false_sharing_bounces(self) -> int:
        return sum(s.false_sharing_bounces for s in self.stages)

    @property
    def is_false_sharing_free(self) -> bool:
        return self.total_false_shared_lines == 0


def _proc_lines(stage: Stage, proc, mu: int, kind: str) -> np.ndarray:
    idx = stage.reads(proc) if kind == "r" else stage.writes(proc)
    if idx.size == 0:
        return idx
    return np.unique(idx // mu)


def analyze_sharing(program: SigmaProgram, mu: int) -> SharingReport:
    """Full sharing analysis of a scheduled program.

    ``mu`` is the cache line length in elements.  Processor ``None`` loops
    (sequential stages) are treated as processor 0.
    """
    tr = get_tracer()
    n_lines = (program.size + mu - 1) // mu
    # last writer per line, per buffer parity; -1 = untouched (input data)
    last_writer = [
        np.full(n_lines, -1, dtype=np.int64),
        np.full(n_lines, -1, dtype=np.int64),
    ]
    report = SharingReport()
    for si, stage in enumerate(program.stages):
        src_parity = si % 2
        dst_parity = 1 - src_parity
        procs = stage.procs or [0]
        sharing = StageSharing(name=stage.name or f"stage{si}")

        # -- true sharing: reads and writes of lines owned by someone else
        for proc in procs:
            key = proc
            read_lines = _proc_lines(stage, proc if stage.parallel else None, mu, "r")
            write_lines = _proc_lines(stage, proc if stage.parallel else None, mu, "w")
            owners_r = last_writer[src_parity][read_lines]
            owners_w = last_writer[dst_parity][write_lines]
            misses = int(np.count_nonzero((owners_r != proc) & (owners_r != -1)))
            misses += int(np.count_nonzero((owners_w != proc) & (owners_w != -1)))
            sharing.coherence_misses[key] = misses

        # -- false sharing: lines written by several procs in this stage
        if stage.parallel and len(procs) > 1:
            counts = np.zeros(n_lines, dtype=np.int64)
            word_writes = np.zeros(n_lines, dtype=np.int64)
            for proc in procs:
                w = stage.writes(proc)
                if w.size == 0:
                    continue
                lines = np.unique(w // mu)
                counts[lines] += 1
                np.add.at(word_writes, w // mu, 1)
            shared = counts >= 2
            sharing.false_shared_lines = int(np.count_nonzero(shared))
            sharing.shared_line_ids = np.flatnonzero(shared)
            # each word write to a contended line may bounce ownership
            sharing.false_sharing_bounces = int(word_writes[shared].sum())

        # -- update ownership
        for proc in procs:
            w = stage.writes(proc if stage.parallel else None)
            if w.size:
                last_writer[dst_parity][np.unique(w // mu)] = proc
        report.stages.append(sharing)
        if tr.enabled:
            for proc, misses in sharing.coherence_misses.items():
                tr.count("coherence.misses", misses, stage=si, proc=proc)
            tr.count(
                "coherence.false_shared_lines",
                sharing.false_shared_lines,
                stage=si,
            )
            tr.count(
                "coherence.false_sharing_bounces",
                sharing.false_sharing_bounces,
                stage=si,
            )
    return report


def count_false_sharing(program: SigmaProgram, mu: int) -> int:
    """Falsely shared lines over the whole program (0 for Spiral schedules)."""
    return analyze_sharing(program, mu).total_false_shared_lines
