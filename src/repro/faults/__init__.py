"""repro.faults: deterministic fault injection for the serving stack.

The runtime/serving layers are threaded with *named injection points*
(:data:`~repro.faults.plan.INJECTION_POINTS`) — worker stall, worker
crash, slow plan build, queue-full burst, connection reset, poisoned
payload.  Each point consults the process-wide
:class:`FaultPlan`, which is a no-op :class:`NullFaultPlan` by default;
tests install a real plan with :func:`fault_plan` and ``repro serve
--chaos`` installs one from a CLI spec (:func:`parse_chaos_spec`).

::

    from repro.faults import FaultPlan, FaultSpec, fault_plan

    with fault_plan(FaultPlan([
        FaultSpec("runtime.worker_crash", rate=1.0, max_fires=1),
    ])) as fp:
        ...                      # next pthreads execution loses a worker
    fp.fires("runtime.worker_crash")   # -> 1

Everything downstream (pool retirement and rebuilds, degradation to the
sequential runtime, client retry) is exercised by
``tests/serve/test_chaos.py`` and ``tests/serve/test_healing.py`` against
these points.  See ``docs/serving.md``.
"""

from .plan import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    INJECTION_POINTS,
    NULL_FAULT_PLAN,
    NullFaultPlan,
    fault_plan,
    get_fault_plan,
    parse_chaos_spec,
    set_fault_plan,
)

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "INJECTION_POINTS",
    "NULL_FAULT_PLAN",
    "NullFaultPlan",
    "fault_plan",
    "get_fault_plan",
    "parse_chaos_spec",
    "set_fault_plan",
]
