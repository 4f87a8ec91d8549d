"""repro.tune: online autotuning — measured search, wisdom rankings, hot-swap.

The subsystem closes the paper's feedback loop against *production*
telemetry instead of an offline timer (see ``docs/tuning.md``):

* :func:`measured_search` — time real candidates on the executor
  registry (numpy | compiled | simulator × sequential | pthreads |
  process), FFTW-planner style, with a budget and a ``REPRO_SEED``-
  stable candidate order (``repro tune``); rankings persist as
  versioned :class:`repro.wisdom.Wisdom` tune records — the only thing
  a wisdom file holds, and what a build reads.
* :class:`Tuner` — a background thread inside a live
  :class:`~repro.serve.FFTService`: drains per-plan latency windows
  (kept in memory) and re-searches regressed plans (recording the new
  ranking), hot-swapping the winner through the
  :class:`~repro.serve.plan_cache.PlanCache` with zero dropped or
  misrouted in-flight requests.

The acceptance lane for all of this is ``repro loadgen --tune``
(:func:`repro.loadgen.run_tune_loadgen`).
"""

from .measure import (
    Candidate,
    Measurement,
    MeasuredSearchResult,
    candidate_space,
    measured_search,
)
from .tuner import Tuner, TunerConfig

__all__ = [
    "Candidate",
    "Measurement",
    "MeasuredSearchResult",
    "Tuner",
    "TunerConfig",
    "candidate_space",
    "measured_search",
]
