"""repro.serve: a concurrent FFT plan-and-execute service.

The serving layer turns the generator pipeline into an end-to-end request
path (see ``docs/serving.md``):

* :class:`PlanCache` — LRU-bounded plan cache with single-flight
  planning, building each key's measured best from an attached
  :class:`repro.wisdom.Wisdom` file;
* :func:`~repro.serve.batch_exec.run_batched` — stacked ``(b, n)``
  execution of a bare stage list on the persistent SMP runtimes;
* :class:`FFTService` — request batching, admission control (bounded queue
  with retry-after backpressure), per-request deadlines, and self-healing
  where the pool is used: the batch that breaks a worker pool retires it,
  the next one rebuilds it, a thread count that keeps failing runs
  sequentially until a cooldown passes; no thread of its own runs a
  request — whoever waits for a queued one runs the queue;
* :class:`FFTServer` / :class:`ServeClient` — the TCP/JSON front end
  behind ``repro serve``, both ends of the one hop in
  :mod:`~repro.serve.protocol`; the client retries retryable failures
  with seeded exponential backoff (:class:`RetryPolicy`) and reconnects
  after resets.

Fault injection for all of the above lives in :mod:`repro.faults` and is
activated by ``repro serve --chaos`` or a test's ``fault_plan(...)`` scope.
"""

from .batch_exec import run_batched
from .client import RemoteError, RetryPolicy, ServeClient, jitter_rng
from .metrics import LatencyRecorder, latency_summary, percentile
from .plan_cache import CachedPlan, PlanCache, PlanKey
from .server import FFTServer, graceful_shutdown, install_signal_handlers
from .service import (
    DeadlineExceeded,
    FFTService,
    FFTTicket,
    Overloaded,
    ServeConfig,
    ServeError,
    ServiceClosed,
)

__all__ = [
    "CachedPlan",
    "DeadlineExceeded",
    "FFTServer",
    "FFTService",
    "FFTTicket",
    "LatencyRecorder",
    "Overloaded",
    "PlanCache",
    "PlanKey",
    "RemoteError",
    "RetryPolicy",
    "ServeClient",
    "jitter_rng",
    "ServeConfig",
    "ServeError",
    "ServiceClosed",
    "graceful_shutdown",
    "install_signal_handlers",
    "latency_summary",
    "percentile",
    "run_batched",
]
