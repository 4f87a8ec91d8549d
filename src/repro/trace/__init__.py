"""Unified tracing & profiling for the whole generator pipeline.

Every layer of the system — rewriting (:mod:`repro.rewrite.engine`), search
(:mod:`repro.search`), Σ-SPL lowering
(:mod:`repro.sigma.lower`), the simulated machine (:mod:`repro.machine`),
code generation (:mod:`repro.codegen`), and the real thread runtimes
(:mod:`repro.smp.runtime`) — emits *spans* (timed intervals) and *counters*
(named accumulators) through the process-wide tracer installed here.  By
default the active tracer is a no-op :class:`NullTracer`, so instrumentation
costs one attribute lookup per site; install a real :class:`Tracer` with
:func:`tracing` (scoped) or :func:`set_tracer` (global) to collect data.

::

    from repro.trace import tracing, write_chrome_trace
    from repro import generate_fft

    with tracing() as tr:
        generate_fft(1024, threads=2)
    print(tr.counter_total("rewrite.steps"))
    write_chrome_trace(tr, "out.json")     # open in chrome://tracing

The one-call profiler :func:`profile_transform` (the ``repro profile`` CLI
subcommand) runs the entire pipeline under a tracer and reports per-stage
cycles, cache misses, coherence misses, and barrier placement — the numbers
behind the paper's load-balance and false-sharing claims.  See
``docs/profiling.md`` for the full guide.
"""

from .export import (
    chrome_trace,
    metrics_table,
    render_counters,
    validate_chrome_trace,
    write_chrome_trace,
)
from .merge import merge_span_reports
from .tracer import (
    NULL_TRACER,
    Counters,
    NullTracer,
    Span,
    TraceEvent,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

# The profiler pulls in every pipeline layer, and those layers import this
# package for get_tracer(); load repro.trace.profile lazily (PEP 562) so the
# instrumented modules can import repro.trace without a cycle.
_PROFILE_EXPORTS = ("ProfileResult", "StageProfile", "profile_transform")


def __getattr__(name):
    if name in _PROFILE_EXPORTS:
        from . import profile as _profile

        return getattr(_profile, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Counters",
    "NULL_TRACER",
    "NullTracer",
    "ProfileResult",
    "Span",
    "StageProfile",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "get_tracer",
    "merge_span_reports",
    "metrics_table",
    "profile_transform",
    "render_counters",
    "set_tracer",
    "tracing",
    "validate_chrome_trace",
    "write_chrome_trace",
]
