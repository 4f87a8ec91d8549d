"""Compiled-codelet backend: Σ-SPL plans JIT-compiled to native stages.

This module closes the gap between the correctness-only C generator
(:mod:`repro.codegen.c_backend`, which emits standalone programs) and the
serving runtimes (which executed Σ-SPL through interpreted NumPy kernels):
it lowers a :class:`~repro.sigma.loops.SigmaProgram` into one C99
translation unit of **fused, unrolled straight-line codelets per (n,
stage)**, compiles it with gcc *at plan time* into a shared object, and
wraps each exported stage symbol in a
:class:`~repro.smp.runtime.PlanStage`-compatible closure — so compiled
plans run unchanged on every :mod:`repro.smp` runtime, inside
:class:`repro.mp.ProcessPoolRuntime` workers, and behind ``repro serve``.
The object also exports the plan's sequential driver, ``repro_plan``,
which chains those stage functions in C; the stage list carries it
(:class:`~repro.smp.runtime.FusedStages`), so a sequential execution is
one ctypes crossing however many stages the plan has.

Codelet lifecycle (see ``docs/codegen.md``):

1. **emit** — :func:`emit_plan_source` prints the plan through the one C
   stage emitter (:mod:`repro.codegen.c_emit`, shared with the standalone
   programs): each :class:`~repro.sigma.loops.BlockLoop`'s gather, twiddle
   scale, kernel, and scatter fused into one loop nest, kernels up to
   ``codelet_max`` unrolled into straight-line codelets, each stage
   exported as ``repro_stage<k>(int proc, long b, ...)`` with a leading
   batch axis, and after them the chain ``repro_plan(long b, x, y)``;
2. **compile** — :func:`compile_plan` invokes gcc with the shared flag
   policy (:func:`repro.codegen.flags.shared_cflags`: the ``-O3
   -march=native`` tier, or the portable ``-O2`` tier under
   ``REPRO_NO_SIMD`` / non-native compilers);
3. **cache** — shared objects land in a content-addressed disk cache keyed
   by source hash *and* compiler fingerprint (:func:`compiler_fingerprint`),
   so equal plans compile once per host and survive process restarts —
   the on-disk analogue of the in-memory PlanCache/Wisdom entries;
4. **execute** — :func:`compile_plan` binds the chain once at load and
   :meth:`CompiledPlan.plan_stages` the stage symbols, through
   :mod:`ctypes`; calls release the GIL, so the pthreads runtime gets real
   parallel speedup from compiled stages.

There is **no hard compiler dependency**: hosts without gcc (or with
``REPRO_NO_CC=1`` set) fall back to the NumPy backend through the
registry's :func:`~repro.codegen.registry.resolve_backend`, and an
injected ``codegen.compile_fail`` fault (:mod:`repro.faults`) exercises
the same fallback seam deterministically.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ..faults import get_fault_plan
from ..sigma.loops import SigmaProgram
from ..smp.runtime import FusedStages, PlanStage
from ..trace import get_tracer
from .c_emit import emit_plan_chain, emit_stage_functions
from .flags import shared_cflags

#: kernels up to this size are unrolled into straight-line codelets
DEFAULT_CODELET_MAX = 32

#: environment variable that disables the compiled backend entirely
NO_CC_ENV = "REPRO_NO_CC"

#: environment variable overriding the on-disk codelet cache directory
CACHE_ENV = "REPRO_CODELET_CACHE"

#: environment variable bounding the on-disk cache (entries); when set,
#: every compile prunes least-recently-used entries past the bound
CACHE_MAX_ENV = "REPRO_CODELET_CACHE_MAX"

_FINGERPRINT_LOCK = threading.Lock()
_FINGERPRINT: Optional[dict] = None  # memoized (cc, version) probe only

_MEMO_LOCK = threading.Lock()
_MEMO: "OrderedDict[str, CompiledPlan]" = OrderedDict()
_MEMO_MAX = 32


class CodeletCompileError(RuntimeError):
    """The C compiler is missing, disabled, or rejected a generated codelet."""


def find_compiler() -> Optional[str]:
    """Path of the host C compiler, or None when compiled codelets are off.

    Honours the ``REPRO_NO_CC`` kill switch (any non-empty value) before
    probing ``$PATH`` for ``gcc`` then ``cc`` — the switch is how the
    no-compiler CI lane asserts clean NumPy fallback on a gcc-equipped
    host.
    """
    if os.environ.get(NO_CC_ENV):
        return None
    return shutil.which("gcc") or shutil.which("cc")


def compiled_available() -> bool:
    """True when plans can be JIT-compiled on this host."""
    return find_compiler() is not None


def compiler_fingerprint(cc: Optional[str] = None) -> dict:
    """Identity of the toolchain baked into every codelet cache key.

    Returns ``{"cc", "version", "flags"}``; two hosts (or two toolchain
    upgrades on one host) with different fingerprints never share cached
    shared objects.  Only the ``--version`` probe is memoized per process
    — ``flags`` is recomputed on every call so a flag-policy change
    (``REPRO_NO_SIMD``, a portable-tier fallback) lands in the cache key
    immediately, never serving a stale object built under other flags.
    """
    global _FINGERPRINT
    identity: Optional[dict] = None
    if cc is None:
        with _FINGERPRINT_LOCK:
            if _FINGERPRINT is not None:
                identity = dict(_FINGERPRINT)
    if identity is None:
        path = cc or find_compiler()
        if path is None:
            identity = {"cc": None, "version": "unavailable"}
        else:
            try:
                out = subprocess.run(
                    [path, "--version"],
                    capture_output=True, text=True, timeout=30,
                ).stdout.splitlines()
                version = out[0].strip() if out else "unknown"
            except (OSError, subprocess.SubprocessError):
                version = "unknown"
            identity = {"cc": path, "version": version}
        if cc is None:
            with _FINGERPRINT_LOCK:
                _FINGERPRINT = dict(identity)
    info = dict(identity)
    info["flags"] = list(shared_cflags(info.get("cc")))
    return info


def codelet_cache_dir() -> Path:
    """The on-disk shared-object cache directory (created on demand).

    ``REPRO_CODELET_CACHE`` overrides the default
    ``~/.cache/repro/codelets``; tests point it at a tmpdir so runs stay
    hermetic.
    """
    root = os.environ.get(CACHE_ENV)
    if root:
        path = Path(root)
    else:
        path = Path.home() / ".cache" / "repro" / "codelets"
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- emission ---------------------------------------------------------------


def emit_plan_source(
    program: SigmaProgram, codelet_max: int = DEFAULT_CODELET_MAX
) -> str:
    """Emit the C99 translation unit for one lowered plan.

    Consumes a :class:`~repro.sigma.loops.SigmaProgram` (the Σ-SPL loop
    IR) and produces one self-contained source exporting
    ``repro_stage0..repro_stage<k-1>``, each a fused batched stage over
    interleaved complex doubles, then — from
    :data:`repro.codegen.c_emit.CHAIN_MARKER` on — the chain that calls
    them in order (:mod:`repro.codegen.c_emit` prints both).  Pure string
    construction — no compiler involved — so it also serves as the
    readable artifact (`docs/codegen.md` walks through an example
    emission).
    """
    header = [
        "/* Generated by repro: compiled-codelet execution backend */",
        f"/* size={program.size} stages={len(program.stages)}"
        f" barriers={program.barrier_count()}"
        f" codelet_max={codelet_max} */",
        "#include <complex.h>",
        "#include <math.h>",
        "typedef double complex cplx;",
        "",
    ]
    stem = "repro_stage"
    return "\n".join(
        header + emit_stage_functions(program, codelet_max, f"void {stem}")
    ) + "\n".join(emit_plan_chain(program, stem))


# -- compile + cache --------------------------------------------------------


def _source_key(source: str, fingerprint: dict) -> str:
    """Content hash binding generated source to the toolchain identity."""
    h = hashlib.sha256()
    h.update(source.encode())
    h.update(repr(sorted(fingerprint.items())).encode())
    return h.hexdigest()[:16]


@dataclass
class CompiledPlan:
    """One plan's JIT artifact: shared object, metadata, and stage closures.

    Holds the loaded :mod:`ctypes` library plus enough provenance (source
    hash, compiler fingerprint, object path) for benchmark host blocks
    and Wisdom artifact records to make the run reproducible.
    """

    size: int
    nstages: int
    source_hash: str
    so_path: Path
    compiler: dict
    stage_meta: list = field(default_factory=list)
    _lib: Optional[ctypes.CDLL] = None
    #: ``repro_plan``, bound once by :func:`compile_plan`
    _chain: Optional[Callable[[int, int, int], int]] = None

    def artifact_info(self) -> dict:
        """JSON-able provenance record (cached .so + toolchain identity)."""
        return {
            "source_hash": self.source_hash,
            "so": str(self.so_path),
            "cc": self.compiler.get("cc"),
            "cc_version": self.compiler.get("version"),
            "cflags": list(self.compiler.get("flags", [])),
        }

    def plan_stages(self) -> FusedStages:
        """Executable :class:`PlanStage` sequence bound to the stage symbols.

        Each ``work(proc, src, dst)`` closure recovers the batch size from
        the flat buffer length (the batched-stage contract of
        :mod:`repro.codegen.registry`) and calls the exported C function;
        the ctypes call releases the GIL, so parallel stages scale on the
        pthreads pool.  The sequence is a
        :class:`~repro.smp.runtime.FusedStages`: its ``whole(flat)`` makes
        the chain's one C call on a buffer :meth:`Runtime.run_stages
        <repro.smp.runtime.Runtime.run_stages>` vouched for (flat,
        C-contiguous, aligned ``complex128``; read in place, never
        written) and returns a fresh result, raising :class:`MemoryError`
        if the chain could not allocate its scratch.
        """
        n = self.size
        artifact = self.artifact_info()
        stages: list[PlanStage] = []
        for sid, (parallel, needs_barrier, name, nprocs) in enumerate(
            self.stage_meta
        ):
            fn = getattr(self._lib, f"repro_stage{sid}")
            fn.argtypes = [
                ctypes.c_int,
                ctypes.c_long,
                ctypes.c_void_p,
                ctypes.c_void_p,
            ]
            fn.restype = None

            def work(proc, src, dst, _fn=fn, _n=n):
                if not (
                    src.flags["C_CONTIGUOUS"] and dst.flags["C_CONTIGUOUS"]
                ):
                    raise ValueError(
                        "compiled stages need C-contiguous buffers"
                    )
                _fn(proc, src.size // _n, src.ctypes.data, dst.ctypes.data)

            stages.append(
                PlanStage(
                    work=work,
                    parallel=parallel,
                    needs_barrier=needs_barrier,
                    name=name,
                    nprocs=nprocs,
                    artifact=artifact,
                )
            )

        def whole(flat, _chain=self._chain, _n=n):
            b = flat.size // _n
            out = np.empty(flat.shape, flat.dtype)
            if _chain(b, flat.ctypes.data, out.ctypes.data):
                raise MemoryError(f"plan n={_n}: no scratch for {b} rows")
            return out

        return FusedStages(stages, whole)


def compile_plan(
    program: SigmaProgram,
    codelet_max: int = DEFAULT_CODELET_MAX,
    cc: Optional[str] = None,
) -> CompiledPlan:
    """Emit, compile (or cache-hit), and load the plan's shared object.

    The cache key is the source hash combined with the compiler
    fingerprint, so a toolchain upgrade or flag change recompiles while
    equal plans are shared across processes via the on-disk cache (writes
    are atomic: compile to a temp name, then ``os.replace``).  Raises
    :class:`CodeletCompileError` when no compiler is available or gcc
    rejects the source; the ``codegen.compile_fail`` fault point makes
    that path deterministic for chaos tests.
    """
    tr = get_tracer()
    get_fault_plan().raise_if("codegen.compile_fail")
    cc = cc or find_compiler()
    if cc is None:
        raise CodeletCompileError(
            "no C compiler available (gcc/cc not on PATH, or REPRO_NO_CC set)"
        )
    fingerprint = compiler_fingerprint(cc if cc != find_compiler() else None)
    with tr.span("codegen.emit_c", "codegen", size=program.size,
                 stages=len(program.stages)):
        source = emit_plan_source(program, codelet_max)
    key = _source_key(source, fingerprint)
    with _MEMO_LOCK:
        hit = _MEMO.get(key)
        if hit is not None:
            _MEMO.move_to_end(key)
            tr.count("codegen.memo_hit", 1)
            return hit

    cache = codelet_cache_dir()
    so_path = cache / f"plan_{program.size}_{key}.so"
    c_path = cache / f"plan_{program.size}_{key}.c"
    if not so_path.exists():
        tr.count("codegen.compile", 1)
        with tr.span("codegen.compile", "codegen", size=program.size,
                     key=key):
            fd, tmp_c = tempfile.mkstemp(
                dir=str(cache), suffix=".c", prefix=f"plan_{key}."
            )
            tmp_so = tmp_c[:-2] + ".so"
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(source)
                proc = subprocess.run(
                    [cc, *fingerprint["flags"], "-o", tmp_so, tmp_c, "-lm"],
                    capture_output=True,
                    text=True,
                    timeout=300,
                )
                if proc.returncode != 0:
                    raise CodeletCompileError(
                        f"{cc} failed (exit {proc.returncode}): "
                        f"{proc.stderr[-2000:]}"
                    )
                os.replace(tmp_so, so_path)
                os.replace(tmp_c, c_path)
            finally:
                for leftover in (tmp_c, tmp_so):
                    try:
                        os.unlink(leftover)
                    except OSError:
                        pass
    else:
        tr.count("codegen.disk_hit", 1)

    lib = ctypes.CDLL(str(so_path))
    chain = lib.repro_plan
    chain.argtypes = [ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
    chain.restype = ctypes.c_int
    plan = CompiledPlan(
        size=program.size,
        nstages=len(program.stages),
        source_hash=key,
        so_path=so_path,
        compiler=fingerprint,
        stage_meta=[
            (
                s.parallel,
                s.needs_barrier,
                s.name,
                max(len(s.procs), 1),
            )
            for s in program.stages
        ],
        _lib=lib,
        _chain=chain,
    )
    with _MEMO_LOCK:
        _MEMO[key] = plan
        _MEMO.move_to_end(key)
        while len(_MEMO) > _MEMO_MAX:
            _MEMO.popitem(last=False)
    if os.environ.get(CACHE_MAX_ENV):
        # bounded-cache mode: GC after every compile, never dropping the
        # object this plan just loaded
        prune_codelet_cache(keep={key})
    return plan


def clear_compiled_memo() -> None:
    """Drop the in-process CompiledPlan memo (tests, cache-dir changes)."""
    with _MEMO_LOCK:
        _MEMO.clear()


def prune_codelet_cache(
    max_entries: Optional[int] = None, keep: Optional[set] = None
) -> dict:
    """GC the content-addressed ``.so`` cache down to ``max_entries``.

    Repeated measured searches (``repro search --measure --backend
    compiled``, the online tuner) each compile new candidate plans; the
    cache is content-addressed so nothing is ever *wrong*, but without a
    bound it grows forever.  Entries — a ``plan_<size>_<key>.so`` plus
    its ``.c`` sibling — are ranked by access recency (``st_atime``,
    falling back to ``st_mtime``) and the oldest are deleted until
    ``max_entries`` remain.  ``keep`` protects specific source-hash keys
    (e.g. artifacts a wisdom file still references).  ``max_entries=None``
    reads ``$REPRO_CODELET_CACHE_MAX`` (unset/invalid → no pruning).

    Returns ``{"entries", "pruned", "kept", "bytes_freed"}``.  Deleting
    a shared object another process has already ``dlopen``\\ ed is safe
    (the mapping survives the unlink), and a missing file mid-prune is
    ignored — concurrent pruners simply race to the same end state.
    """
    if max_entries is None:
        raw = os.environ.get(CACHE_MAX_ENV, "")
        try:
            max_entries = int(raw)
        except ValueError:
            max_entries = -1
        if max_entries < 0:
            cache = codelet_cache_dir()
            count = len(list(cache.glob("plan_*.so")))
            return {"entries": count, "pruned": 0, "kept": count,
                    "bytes_freed": 0}
    if max_entries < 0:
        raise ValueError(f"max_entries must be >= 0, got {max_entries}")
    keep = keep or set()
    cache = codelet_cache_dir()
    entries = []
    for so in cache.glob("plan_*.so"):
        try:
            st = so.stat()
        except OSError:
            continue  # raced with a concurrent pruner
        key = so.stem.rsplit("_", 1)[-1]
        entries.append((max(st.st_atime, st.st_mtime), so, key, st.st_size))
    entries.sort()  # oldest-accessed first
    total = len(entries)
    protected = [e for e in entries if e[2] in keep]
    evictable = [e for e in entries if e[2] not in keep]
    overflow = total - max_entries
    pruned = 0
    freed = 0
    for _, so, _key, size in evictable:
        if pruned >= overflow:
            break
        c_path = so.with_suffix(".c")
        try:
            so.unlink()
            freed += size
        except OSError:
            continue
        try:
            freed += c_path.stat().st_size
            c_path.unlink()
        except OSError:
            pass
        pruned += 1
    get_tracer().count("codegen.cache_pruned", pruned)
    return {
        "entries": total,
        "pruned": pruned,
        "kept": total - pruned,
        "bytes_freed": freed,
        "protected": len(protected),
    }


__all__ = [
    "CodeletCompileError",
    "CompiledPlan",
    "clear_compiled_memo",
    "codelet_cache_dir",
    "compile_plan",
    "compiled_available",
    "compiler_fingerprint",
    "emit_plan_source",
    "find_compiler",
    "prune_codelet_cache",
]
