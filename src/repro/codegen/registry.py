"""The execution-backend registry: one interface for every runtime.

Every consumer of a lowered plan — the :mod:`repro.smp` thread runtimes,
the :mod:`repro.mp` process pool, the serving layer's
:class:`~repro.serve.plan_cache.PlanCache`, search timing, and the
hunt's oracle stack (``repro hunt`` / ``repro check``) — selects its
executor through this registry instead of hard-coding a code generator.
A *backend* turns a
:class:`~repro.sigma.loops.SigmaProgram` (the Σ-SPL loop IR) into a list
of :class:`~repro.smp.runtime.PlanStage` entries with **batched
semantics**: ``work(proc, src, dst)`` sees flat ``(b*n,)`` double buffers
and recovers the batch size from the buffer length, so one stage list per
plan serves every request batch.  It is the only stage contract: the
Python printer, the compiled codelets and the simulator all emit it.

Three backends ship:

``numpy``
    The printed Python/NumPy program
    (:func:`repro.codegen.python_backend.generate`) — always available,
    the universal fallback.
``compiled``
    Fused C codelets JIT-compiled at plan time
    (:mod:`repro.codegen.compiled_backend`) — available when a C compiler
    is on ``$PATH`` and ``REPRO_NO_CC`` is unset.
``simulator``
    A deliberately literal per-row interpreter of the Σ-SPL execution
    semantics (one :meth:`BlockLoop.execute` per loop per batch row) —
    the reference oracle differential tests compare the fast backends
    against, and the access pattern the machine simulator replays.

:func:`resolve_backend` implements the fallback policy: asking for an
unavailable backend returns ``numpy`` (counted in :data:`counters` and
warned once) unless ``strict=True``, so a serving fleet with a
missing toolchain degrades instead of failing.
"""

from __future__ import annotations

import warnings
from typing import Sequence

from ..sigma.loops import SigmaProgram
from ..smp.runtime import PlanStage
from ..trace import Counters

#: canonical backend names, in fallback-preference order
BACKEND_NAMES: tuple[str, ...] = ("numpy", "compiled", "simulator")

#: process-wide fallback counts (``FFTService.stats()["codegen"]``)
counters = Counters("codegen", ("backend_fallback", "compile_fallback"))


class BackendUnavailable(RuntimeError):
    """A strictly requested backend cannot run on this host."""


class ExecutionBackend:
    """Abstract executor factory: Σ-SPL loop IR in, stage plan out.

    Subclasses state their contract through three methods:
    :meth:`available` (can this host run it), :meth:`build_stages`
    (consume a :class:`SigmaProgram`, emit batched
    :class:`~repro.smp.runtime.PlanStage` closures), and
    :meth:`describe` (JSON-able provenance for BENCH/Wisdom records).
    """

    #: registry key; subclasses override
    name: str = "abstract"

    def available(self) -> bool:
        """True when this backend can execute plans on this host."""
        return True

    def build_stages(
        self, program: SigmaProgram, codelet_max: int = 32,
        fallback: bool = True,
    ) -> Sequence[PlanStage]:
        """Lower ``program`` into executable batched stages.

        Consumes the Σ-SPL loop IR; emits one
        :class:`~repro.smp.runtime.PlanStage` per pipeline stage,
        preserving the program's parallel flags, barrier-elision
        decisions, and processor shares.  The sequence may be a
        :class:`~repro.smp.runtime.FusedStages` (the compiled backend's
        is), which the sequential runtime runs as one call.
        ``fallback=False`` forbids substituting another backend's stages
        on a build failure; it is ignored by backends that never
        substitute.
        """
        raise NotImplementedError

    def describe(self) -> dict:
        """Backend identity/toolchain metadata for benchmark provenance."""
        return {"backend": self.name}


class NumpyBackend(ExecutionBackend):
    """The printed Python/NumPy program — always-available baseline."""

    name = "numpy"

    def build_stages(self, program, codelet_max=32, fallback=True):
        """The stages of the program :mod:`.python_backend` prints."""
        from .python_backend import generate

        return generate(program, codelet_max).stages


class CompiledBackend(ExecutionBackend):
    """Fused C codelets JIT-compiled at plan time (gcc + ctypes).

    ``build_stages`` compiles (or disk-cache-hits) the plan's shared
    object and returns its ctypes-bound stages — a
    :class:`~repro.smp.runtime.FusedStages`, carrying the object's
    whole-plan call; with ``fallback=True`` (the default) a missing
    compiler or an injected ``codegen.compile_fail`` fault silently
    degrades to the NumPy backend's stages so serving paths never break
    on a toolchain problem.
    """

    name = "compiled"

    def available(self) -> bool:
        """True when a C compiler is usable (and not disabled by env)."""
        from .compiled_backend import compiled_available

        return compiled_available()

    def build_stages(self, program, codelet_max=32, fallback=True):
        """JIT the plan to native stages; optionally fall back to NumPy."""
        from ..faults import FaultInjected
        from .compiled_backend import CodeletCompileError, compile_plan

        try:
            return compile_plan(program, codelet_max).plan_stages()
        except (CodeletCompileError, FaultInjected):
            if not fallback:
                raise
            counters.add("compile_fallback")
            _warn_fallback(self.name)
            return NumpyBackend().build_stages(program, codelet_max)

    def describe(self) -> dict:
        """Backend name plus the compiler fingerprint (cc, version, flags)."""
        from .compiled_backend import compiler_fingerprint

        info = {"backend": self.name}
        info.update(compiler_fingerprint())
        return info


class SimulatorBackend(ExecutionBackend):
    """Literal per-row Σ-SPL interpreter — the differential oracle.

    Executes every :class:`~repro.sigma.loops.BlockLoop` one batch row at
    a time through :meth:`BlockLoop.execute`, exactly mirroring the IR's
    documented semantics with no vectorization or fusion.  Slow by
    design; a backend the hunt's oracle stack (``repro hunt``, ``repro
    check --backend simulator``) verifies like any other, and the machine
    simulator's replay uses it as the ground-truth access order.
    """

    name = "simulator"

    def build_stages(self, program, codelet_max=32, fallback=True):
        """Per-row interpreted stages preserving the plan's structure."""
        n = program.size
        out: list[PlanStage] = []
        for stage in program.stages:
            by_proc = {
                proc: [lp for _, lp in loops] for proc, loops in stage.shares()
            }

            # a non-parallel stage is one share (None) its caller runs whole
            def work(proc, src, dst, _by_proc=by_proc,
                     _whole=by_proc.get(None), _n=n):
                S = src.reshape(-1, _n)
                D = dst.reshape(-1, _n)
                loops = _by_proc.get(proc, ()) if _whole is None else _whole
                for row in range(S.shape[0]):
                    for lp in loops:
                        lp.execute(S[row], D[row])

            out.append(
                PlanStage(
                    work=work,
                    parallel=stage.parallel,
                    needs_barrier=stage.needs_barrier,
                    name=stage.name,
                    nprocs=len(by_proc),
                )
            )
        return out


_REGISTRY: dict[str, ExecutionBackend] = {}
_WARNED: set[str] = set()


def _warn_fallback(name: str) -> None:
    """Warn (once per backend per process) that NumPy substituted."""
    if name not in _WARNED:
        _WARNED.add(name)
        warnings.warn(
            f"backend {name!r} unavailable on this host; "
            f"falling back to the NumPy backend",
            RuntimeWarning,
            stacklevel=3,
        )


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Add (or replace) a backend under its ``name``; returns it."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> ExecutionBackend:
    """The registered backend for ``name``; KeyError names the known set."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_backends() -> list[str]:
    """Every registered backend name (available on this host or not)."""
    return sorted(_REGISTRY)


def available_backends() -> list[str]:
    """Backend names that can actually execute plans on this host."""
    return [n for n in sorted(_REGISTRY) if _REGISTRY[n].available()]


def resolve_backend(
    name: str = "numpy", strict: bool = False
) -> ExecutionBackend:
    """The backend to execute with: requested if available, else NumPy.

    The graceful-degradation seam every runtime shares: an unknown or
    host-unavailable backend resolves to ``numpy`` (counted as
    ``codegen.backend_fallback`` and warned once per process) unless
    ``strict=True``, which raises :class:`BackendUnavailable` — the CLI
    uses strict resolution so a user who explicitly asked for
    ``--backend compiled`` on a compiler-less host gets a clear error
    from ``repro check``, while serving/worker paths degrade quietly.
    """
    backend = _REGISTRY.get(name)
    if backend is not None and backend.available():
        return backend
    if strict:
        if backend is None:
            raise BackendUnavailable(
                f"unknown backend {name!r}; registered: {sorted(_REGISTRY)}"
            )
        raise BackendUnavailable(
            f"backend {name!r} is not available on this host "
            f"(available: {available_backends()})"
        )
    counters.add("backend_fallback", requested=name)
    _warn_fallback(name)
    return _REGISTRY["numpy"]


def build_stages(
    program: SigmaProgram,
    backend: str = "numpy",
    codelet_max: int = 32,
    strict: bool = False,
) -> Sequence[PlanStage]:
    """Convenience: resolve ``backend`` and build the program's stages."""
    return resolve_backend(backend, strict=strict).build_stages(
        program, codelet_max
    )


register_backend(NumpyBackend())
register_backend(CompiledBackend())
register_backend(SimulatorBackend())

__all__ = [
    "BACKEND_NAMES",
    "BackendUnavailable",
    "CompiledBackend",
    "ExecutionBackend",
    "NumpyBackend",
    "SimulatorBackend",
    "available_backends",
    "build_stages",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
]
