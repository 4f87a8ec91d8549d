"""``repro.hunt`` — differential fuzzing with automatic SPL-term reduction.

The hunt closes the loop the checker opened: a seeded
generator sweeps random plan configurations across every executor
(:mod:`~repro.hunt.gen`), an oracle stack classifies each run
(:mod:`~repro.hunt.oracles`), a diopter-style reducer shrinks failures
to 1-minimal SPL reproducers (:mod:`~repro.hunt.reduce`), and the
committed corpus replays every past bug forever
(:mod:`~repro.hunt.corpus`).  ``repro hunt`` is the CLI entry;
:func:`run_hunt` is the library one.
"""

from .corpus import (
    Reproducer,
    TermSerializationError,
    file_reproducer,
    load_corpus,
    replay,
    term_from_json,
    term_to_json,
)
from .driver import HuntConfig, HuntFinding, HuntReport, run_hunt
from .gen import (
    BACKENDS,
    NUS,
    RUNTIMES,
    STRATEGIES,
    HuntCase,
    sample_cases,
)
from .oracles import ExecutorPools, Verdict, run_oracle
from .reduce import (
    Reducer,
    ReductionResult,
    ReductionState,
    StateSize,
    shrink_candidates,
    state_size,
)

__all__ = [
    "BACKENDS",
    "NUS",
    "RUNTIMES",
    "STRATEGIES",
    "ExecutorPools",
    "HuntCase",
    "HuntConfig",
    "HuntFinding",
    "HuntReport",
    "Reducer",
    "ReductionResult",
    "ReductionState",
    "Reproducer",
    "StateSize",
    "TermSerializationError",
    "Verdict",
    "file_reproducer",
    "load_corpus",
    "replay",
    "run_hunt",
    "run_oracle",
    "sample_cases",
    "shrink_candidates",
    "state_size",
    "term_from_json",
    "term_to_json",
]
