"""``repro.check`` — dynamic race & false-sharing certification.

The runtime counterpart of the structural Definition 1 checker: replays
compiled Σ-SPL stage plans and certifies race freedom across every
barrier-elided window, false-sharing freedom at cache-line granularity
µ, and per-stage load balance.  ``repro check`` (see :mod:`repro.cli`)
sweeps the default pipeline's plans (the one record every runtime runs,
compared with a second build for determinism) and exits non-zero on any
violation; the fault plan's
``check.overlapping_write`` / ``check.misaligned_split`` points seed
deliberately broken plans the checker must catch.  See
``docs/checking.md``.
"""

from .backends import check_backend_program
from .checker import (
    DEFAULT_MAX_SKEW,
    CheckReport,
    Finding,
    barrier_windows,
    check_program,
)
from .negative import (
    apply_check_faults,
    compare_plans,
    inject_misaligned_split,
    inject_overlapping_write,
)

__all__ = [
    "DEFAULT_MAX_SKEW",
    "CheckReport",
    "Finding",
    "apply_check_faults",
    "barrier_windows",
    "check_backend_program",
    "check_program",
    "compare_plans",
    "inject_misaligned_split",
    "inject_overlapping_write",
]
