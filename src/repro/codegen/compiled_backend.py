"""Compiled-codelet backend: Σ-SPL plans JIT-compiled to native stages.

This module closes the gap between the correctness-only C generator
(:mod:`repro.codegen.c_backend`, which emits standalone programs) and the
serving runtimes (which executed Σ-SPL through interpreted NumPy kernels):
it lowers a :class:`~repro.sigma.loops.SigmaProgram` into **fused loop
nests over unrolled straight-line codelets, one function per (n,
stage)**, compiles them with gcc *at plan time* into a shared object, and
wraps each exported stage symbol in a
:class:`~repro.smp.runtime.PlanStage`-compatible closure — so compiled
plans run unchanged on every :mod:`repro.smp` runtime, inside
:class:`repro.mp.ProcessPoolRuntime` workers, and behind ``repro serve``.
The object also exports the plan's sequential driver, ``repro_plan``,
which chains those stage functions in C; the stage list carries it
(:class:`~repro.smp.runtime.FusedStages`), so a sequential execution is
one ctypes crossing however many stages the plan has.

A cold plan compiles its loop nests and nothing else.  Codelet lifecycle
(see ``docs/codegen.md``):

1. **emit** — the one C emitter (:mod:`repro.codegen.c_emit`; a standalone
   program is the same text in its single-file form plus ``main``) walks
   the plan once and returns three products: the stage functions (each
   :class:`~repro.sigma.loops.BlockLoop`'s gather, twiddle scale, kernel,
   and scatter fused into one loop nest, exported as
   ``repro_stage<k>(int proc, long b, ...)`` with a leading batch axis),
   the unrolled codelets they call (kernels up to ``codelet_max``), and
   the index / twiddle tables they read.  :func:`emit_plan_source`
   (``c_emit.emit_plan_unit``'s linked form) is the translation unit
   ``cc`` sees per plan: table *declarations*, codelet *bindings*, the
   stage functions, and the chain ``repro_plan(long b, x, y)`` — a few
   kilobytes at every size;
2. **codelet objects** — every codelet is compiled once per compiler,
   version and flag tier (the fingerprint's part its ``-c`` launch sees)
   into ``codelet_<key>.o`` under a content-derived hidden symbol, and
   reused by every later plan that names it;
3. **table blob** — the tables' bytes are streamed to one binary file
   beside the plan source (each distinct table once), which the unit's
   assembler block places in ``.rodata``;
4. **compile + link** — one compiler launch with the shared flag policy
   (:func:`repro.codegen.flags.shared_cflags`: the ``-O3 -march=native``
   tier, or the portable ``-O2`` tier under ``REPRO_NO_SIMD`` / non-native
   compilers; a unit whose loops all carry four lanes is glue around its
   codelet calls and drops to ``-O2 -march=native`` at the native tier,
   :func:`repro.codegen.flags.unit_cflags`, while codelet objects keep the
   tier) compiles the unit and links the codelet objects into it
   statically: the ``.so`` is self-contained, and nothing else in the
   cache directory is needed to load or run it.  No emitted file includes
   a libc header, and the link is freestanding
   (:data:`repro.codegen.flags.SHARED_LINK`: ``-nostdlib``, the compiler's
   static helpers after the last input): the ``.so`` needs no library, and
   its only undefined symbols, ``posix_memalign`` and ``free``, bind at
   load to the process's own libc;
5. **cache** — shared objects land in a content-addressed disk cache keyed
   by source hash *and* compiler fingerprint (:func:`compiler_fingerprint`;
   the source names the codelets' content symbols and the blob's digest,
   so the key covers everything that reaches the object), so equal plans
   compile once per host and survive process restarts — the on-disk
   analogue of the in-memory PlanCache/Wisdom entries;
6. **execute** — :func:`compile_plan` binds the chain once at load and
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
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from ..faults import get_fault_plan
from ..sigma.loops import SigmaProgram
from ..smp.runtime import FusedStages, PlanStage
from ..spl.expr import COMPLEX
from ..trace import get_tracer
from .c_emit import CACHE_LINE, TABLES_MACRO, emit_plan_unit
from . import flags as flag_policy
from .flags import GLUE_NU, shared_cflags, unit_cflags

#: kernels up to this size are unrolled into straight-line codelets
DEFAULT_CODELET_MAX = 32

#: environment variable that disables the compiled backend entirely
NO_CC_ENV = "REPRO_NO_CC"

#: environment variable overriding the on-disk codelet cache directory
CACHE_ENV = "REPRO_CODELET_CACHE"

#: environment variable bounding the on-disk cache (entries); when set,
#: every compile prunes least-recently-used entries past the bound
CACHE_MAX_ENV = "REPRO_CODELET_CACHE_MAX"

_MEMO_LOCK = threading.Lock()
_MEMO: "OrderedDict[str, CompiledPlan]" = OrderedDict()
_MEMO_MAX = 32

#: ``ctypes.addressof(_view(a))`` is a writable buffer's address, through a
#: one-byte ctypes view of it rather than the pure-Python object NumPy's
#: ``a.ctypes`` builds (≈ 0.3 µs against ≈ 1.0); a read-only buffer
#: refuses the view, and so does a zero-byte one
_view = ctypes.c_char.from_buffer


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


@lru_cache(maxsize=None)
def _compiler_version(path: str) -> str:
    """First line of ``path --version``: probed once per path and process."""
    try:
        out = subprocess.run(
            [path, "--version"], capture_output=True, text=True, timeout=30,
        ).stdout.splitlines()
        return out[0].strip() if out else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def compiler_fingerprint(cc: Optional[str] = None) -> dict:
    """Identity of the toolchain baked into every codelet cache key.

    Returns ``{"cc", "version", "flags", "glue", "link"}`` for ``cc``
    (default: the host compiler, :func:`find_compiler`); two hosts (or two
    toolchain upgrades on one host) with different fingerprints never
    share cached shared objects.  ``flags`` is the tier codelet objects and
    most units compile under, ``glue`` what a glue unit's become
    (:func:`repro.codegen.flags.unit_cflags`), ``link`` what a unit's
    launch links after its inputs (:data:`repro.codegen.flags.SHARED_LINK`).
    Only the ``--version`` probe is memoized, per compiler path and
    process — the flag lists are recomputed on every call so a
    flag-policy change (``REPRO_NO_SIMD``, a portable-tier fallback, the
    glue tier, the link line) lands in the cache key immediately, never
    serving a stale object built under other flags.
    """
    path = cc or find_compiler()
    version = _compiler_version(path) if path else "unavailable"
    flags = shared_cflags(path)
    return {
        "cc": path,
        "version": version,
        "flags": list(flags),
        "glue": list(unit_cflags(flags, GLUE_NU)),
        "link": list(flag_policy.SHARED_LINK),
    }


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
    IR) and produces the source exporting
    ``repro_stage0..repro_stage<k-1>``, each a fused batched stage over
    interleaved complex doubles, then — from
    :data:`repro.codegen.c_emit.CHAIN_MARKER` on — the chain that calls
    them in order (:mod:`repro.codegen.c_emit` prints both).  Ahead of
    them the unit only *declares* its tables and *binds* its codelets:
    the values are in the plan's table file (named to the compiler by
    ``-DPLAN_TABLES``, its digest in the unit's text) and the codelet
    bodies in objects the unit is linked against, so this is what is new
    in the plan and no more.  Pure string construction — no compiler
    involved — so it also serves as the readable artifact
    (`docs/codegen.md` walks through an example emission).
    """
    return emit_plan_unit(program, codelet_max, linked=True).text


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
    hash, compiler fingerprint, object path) for :meth:`artifact_info` to
    name the exact build a run used.
    """

    size: int
    nstages: int
    source_hash: str
    so_path: Path
    compiler: dict
    stage_meta: list = field(default_factory=list)
    #: cache keys of the codelet objects linked in (``codelet_<key>.o``)
    codelets: tuple = ()
    #: digest of the table file's bytes; ``""`` for a plan without tables
    tables: str = ""
    #: the flags the unit itself compiled under (its codelet objects
    #: compiled under ``compiler["flags"]``)
    cflags: tuple = ()
    #: the stages ``repro_plan`` runs on one buffer
    #: (:func:`repro.codegen.c_emit.chain_in_place`)
    in_place: tuple = ()
    _lib: Optional[ctypes.CDLL] = None
    #: ``repro_plan``, bound once by :func:`compile_plan`
    _chain: Optional[Callable[[int, int, int], int]] = None

    def artifact_info(self) -> dict:
        """JSON-able provenance record: the cached .so, the toolchain
        identity, the build inputs (codelet object keys, table digest)
        the object was linked from, and the stages its chain runs in
        place (``in_place``: which buffer schedule the plan runs)."""
        return {
            "source_hash": self.source_hash,
            "so": str(self.so_path),
            "cc": self.compiler.get("cc"),
            "cc_version": self.compiler.get("version"),
            "cflags": list(self.cflags),
            "codelets": list(self.codelets),
            "tables": self.tables,
            "in_place": list(self.in_place),
        }

    def plan_stages(self) -> FusedStages:
        """Executable :class:`PlanStage` sequence bound to the stage symbols.

        Each ``work(proc, src, dst)`` closure recovers the batch size from
        the flat buffer length (the batched-stage contract of
        :mod:`repro.codegen.registry`) and calls the exported C function,
        which trusts both buffers' length and layout: anything but two
        writable, C-contiguous ``complex128`` buffers of one size, a
        multiple of ``n``, is a :class:`ValueError` before C sees it.  The
        ctypes call releases the GIL, so parallel stages scale on the
        pthreads pool.  The sequence is a
        :class:`~repro.smp.runtime.FusedStages`: its ``whole(X, writable,
        out=None)`` makes the chain's one C call on the ``(b, n)`` stack
        :meth:`Runtime.run_stages <repro.smp.runtime.Runtime.run_stages>`
        vouched for (C-contiguous, aligned ``complex128``; read in place,
        never written), raising :class:`MemoryError` if the chain could
        not allocate its scratch.  Without ``out`` it returns a fresh
        ``(b, n)`` result that starts on a cache line (a view of an
        allocation one line longer, which it alone keeps alive).  With
        one, the chain stores the result straight into ``out`` and
        ``out`` is returned — once
        :func:`~repro.smp.runtime.check_out` has refused, before C, any
        ``out`` the chain could overrun or that overlaps ``X`` (in
        ``FusedStages.whole``, or in ``run_stages`` before its one
        ``call``); an ``out`` that does not start on a cache line (a wire
        region may sit at 16 mod 64) gets the result computed on a line
        of its own and copied in once.
        """
        n = self.size
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
                size, sf, df = src.size, src.flags, dst.flags
                if not (
                    src.dtype == COMPLEX and dst.dtype == COMPLEX
                    and dst.size == size and size % _n == 0
                    and sf.c_contiguous and df.c_contiguous
                    and sf.writeable and df.writeable
                ):
                    raise ValueError(
                        f"compiled stages need two writable, C-contiguous "
                        f"complex128 buffers of one size, a multiple of {_n}"
                    )
                if size:
                    _fn(proc, size // _n, ctypes.addressof(_view(src)),
                        ctypes.addressof(_view(dst)))

            stages.append(
                PlanStage(
                    work=work,
                    parallel=parallel,
                    needs_barrier=needs_barrier,
                    name=name,
                    nprocs=nprocs,
                )
            )

        def whole(X, writable, out=None, _chain=self._chain, _n=n,
                  _pad=CACHE_LINE // 16):
            size = X.size
            if out is not None:  # checked by FusedStages.whole/run_stages
                # a zero-byte buffer has no view, and no row is written
                y = ctypes.addressof(_view(out)) if size else 0
            if out is None or y % CACHE_LINE:
                # one line over, sliced to start on a line (malloc's is 16
                # mod 64); the address is worked out from the one fetch of it
                raw = np.empty(size + _pad, COMPLEX)
                at = ctypes.addressof(_view(raw))
                skip = (-at % CACHE_LINE) // 16
                Y, y = raw[skip:skip + size].reshape(X.shape), at + 16 * skip
            else:
                Y = out  # the chain's own stores land in the caller's buffer
            if not size:
                x = 0  # no row is read, and a zero-byte buffer has no view
            elif writable:
                x = ctypes.addressof(_view(X))
            else:
                x = X.ctypes.data  # a wire payload, say: refuses the view
            if _chain(len(X), x, y):
                raise MemoryError(f"plan n={_n}: no scratch for a row")
            if out is None or Y is out:
                return Y
            np.copyto(out, Y)  # an out off its line: the one copy
            return out

        return FusedStages(stages, whole)


@contextmanager
def _publishing(cache: Path, stem: str, suffixes: tuple) -> Iterator[dict]:
    """Build an entry's files under temporary names, then rename them in.

    Yields ``{suffix: temporary path}``; on a clean exit every one of them
    that was written is ``os.replace``\\ d to ``<stem><suffix>``, in order,
    so a reader of the cache — another thread's link, another process's
    ``dlopen`` — sees a whole file or none, and concurrent builders of one
    entry race to the same bytes.  Nothing temporary is left either way.
    """
    fd, first = tempfile.mkstemp(dir=str(cache), prefix="build_", suffix=".tmp")
    os.close(fd)
    tmp = {suffix: first[:-4] + suffix for suffix in suffixes}
    try:
        yield tmp
        for suffix, path in tmp.items():
            if os.path.exists(path):
                os.replace(path, cache / (stem + suffix))
    finally:
        for leftover in (first, *tmp.values()):
            try:
                os.unlink(leftover)
            except OSError:
                pass


def run_cc(cc: str, args: list, cwd: Path) -> None:
    """One compiler launch — every one this package makes — in ``cwd``
    (relative names in a source, like a plan's table file, resolve
    there)."""
    proc = subprocess.run(
        [cc, *args], capture_output=True, text=True, timeout=300,
        cwd=str(cwd),
    )
    if proc.returncode != 0:
        raise CodeletCompileError(
            f"{cc} failed (exit {proc.returncode}): {proc.stderr[-2000:]}"
        )


def _codelet_object(
    key: str, source: str, cc: str, flags: list, cache: Path
) -> None:
    """Make sure ``codelet_<key>.o`` is in the cache, compiling ``source``
    (kept beside it) if it is not."""
    tr = get_tracer()
    stem = f"codelet_{key}"
    if (cache / (stem + ".o")).exists():
        tr.count("codegen.codelet_hit", 1)
        return
    tr.count("codegen.codelet_compile", 1)
    with tr.span("codegen.codelet_compile", "codegen", key=key):
        with _publishing(cache, stem, (".o", ".c")) as tmp:
            Path(tmp[".c"]).write_text(source)
            run_cc(cc, [*flags, "-c", "-o", tmp[".o"], tmp[".c"]], cache)


def compile_plan(
    program: SigmaProgram,
    codelet_max: int = DEFAULT_CODELET_MAX,
    cc: Optional[str] = None,
) -> CompiledPlan:
    """Emit, compile (or cache-hit), and load the plan's shared object.

    The cache key is the source hash combined with the compiler
    fingerprint, so a toolchain upgrade or flag change recompiles while
    equal plans are shared across processes via the on-disk cache.  A
    miss builds the codelet objects the cache lacks, streams the tables
    to their file, and makes one compiler launch that compiles the unit
    and links the objects in; every file is published atomically (temp
    name, then ``os.replace``), the ``.so`` first — it is the whole
    artifact, and a hit needs nothing else.  The unit compiles under
    :func:`~repro.codegen.flags.unit_cflags` of the fingerprint's flags
    and its lanes, the codelet objects under the flags as they are, and
    the launch ends with the fingerprint's ``link`` (no C runtime).  Raises
    :class:`CodeletCompileError` when no compiler is available or any of
    those steps is rejected (a codelet or the unit by the compiler, the
    table block by the assembler, a damaged object by the linker); the
    ``codegen.compile_fail`` fault point makes that path deterministic for
    chaos tests.
    """
    tr = get_tracer()
    get_fault_plan().raise_if("codegen.compile_fail")
    cc = cc or find_compiler()
    if cc is None:
        raise CodeletCompileError(
            "no C compiler available (gcc/cc not on PATH, or REPRO_NO_CC set)"
        )
    fingerprint = compiler_fingerprint(cc)
    flags = fingerprint["flags"]
    with tr.span("codegen.emit_c", "codegen", size=program.size,
                 stages=len(program.stages)):
        unit = emit_plan_unit(program, codelet_max, linked=True)
    key = _source_key(unit.text, fingerprint)
    cflags = unit_cflags(flags, unit.nu)
    with _MEMO_LOCK:
        hit = _MEMO.get(key)
        if hit is not None:
            _MEMO.move_to_end(key)
            tr.count("codegen.memo_hit", 1)
            return hit

    cache = codelet_cache_dir()
    stem = f"plan_{program.size}_{key}"
    so_path = cache / (stem + ".so")
    # the codelet objects the plan links, by cache key: the source and
    # what its ``-c`` launch sees (compiler, version, flags), so a flag
    # flip shares none and a glue-tier or link-line flip shares them all
    compiles = {k: fingerprint[k] for k in ("cc", "version", "flags")}
    objects = {
        _source_key(source, compiles): source
        for source in (c.object_source() for c in unit.codelets)
    }
    if not so_path.exists():
        tr.count("codegen.compile", 1)
        tr.count("codegen.table_bytes", unit.tables.nbytes)
        with tr.span("codegen.compile", "codegen", size=program.size,
                     key=key):
            for okey, source in objects.items():
                _codelet_object(okey, source, cc, flags, cache)
            with _publishing(cache, stem, (".so", ".c", ".tab")) as tmp:
                Path(tmp[".c"]).write_text(unit.text)
                tables = []
                if unit.tables.nbytes:
                    with open(tmp[".tab"], "wb") as fh:
                        unit.tables.write(fh)
                    name = os.path.basename(tmp[".tab"])
                    tables = [f'-D{TABLES_MACRO}="{name}"']
                run_cc(cc, [
                    *tables, *cflags, "-o", tmp[".so"],
                    tmp[".c"], *(f"codelet_{okey}.o" for okey in objects),
                    *fingerprint["link"],
                ], cache)
            # used, and later than the plan was built: the GC keeps the
            # objects used since the oldest plan it keeps was built
            for okey in objects:
                with suppress(OSError):  # a concurrent pruner got there
                    os.utime(cache / f"codelet_{okey}.o")
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
        codelets=tuple(objects),
        tables=unit.tables.digest if unit.tables.nbytes else "",
        cflags=cflags,
        in_place=unit.in_place,
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


def _evict(entry: Path, suffixes: tuple) -> int:
    """Delete one entry's files; returns the bytes freed."""
    freed = 0
    for suffix in suffixes:
        path = entry.with_suffix(suffix)
        try:
            size = path.stat().st_size
            path.unlink()
            freed += size
        except OSError:
            pass  # never written, or raced with a concurrent pruner
    return freed


def prune_codelet_cache(
    max_entries: Optional[int] = None, keep: Optional[set] = None
) -> dict:
    """GC the content-addressed cache down to ``max_entries`` plans.

    Repeated measured searches (``repro tune --sizes N --backend
    compiled``, the online tuner) each compile new candidate plans; the
    cache is content-addressed so nothing is ever *wrong*, but without a
    bound it grows forever.  A plan entry — ``plan_<size>_<key>.so`` with
    its ``.c`` source and ``.tab`` table file — goes as one: entries are
    ranked by access recency (``st_atime``, falling back to ``st_mtime``)
    and the oldest are deleted until ``max_entries`` remain.  ``keep``
    protects specific source-hash keys (e.g. the plan a compile just
    loaded).  Codelet objects (``codelet_<key>.o`` + ``.c``) are pure
    build inputs — no ``.so`` needs one once it is linked — so they are
    not counted against the bound: those not used (``st_mtime``: a build
    touches the objects it linked) since the oldest *kept* plan was built
    go, and pruning to zero plans empties the directory.
    ``max_entries=None`` reads ``$REPRO_CODELET_CACHE_MAX`` (unset/invalid
    → report only, nothing is deleted).

    Returns ``{"entries", "pruned", "kept", "bytes_freed", "protected",
    "codelets", "codelets_pruned"}``.  Deleting a shared object another
    process has already ``dlopen``\\ ed is safe (the mapping survives the
    unlink), as is deleting an object a concurrent builder is about to
    link (its build fails over to NumPy like any compile error; the next
    one rebuilds the object), and a missing file mid-prune is ignored —
    concurrent pruners simply race to the same end state.
    """
    report_only = False
    if max_entries is None:
        try:
            max_entries = int(os.environ.get(CACHE_MAX_ENV, ""))
        except ValueError:
            max_entries = -1
        report_only = max_entries < 0
    elif max_entries < 0:
        raise ValueError(f"max_entries must be >= 0, got {max_entries}")
    keep = keep or set()
    cache = codelet_cache_dir()
    plans = []
    for so in cache.glob("plan_*.so"):
        try:
            st = so.stat()
        except OSError:
            continue  # raced with a concurrent pruner
        key = so.stem.rsplit("_", 1)[-1]
        plans.append((max(st.st_atime, st.st_mtime), st.st_mtime, so, key))
    plans.sort()  # oldest-accessed first
    objects = list(cache.glob("codelet_*.o"))
    report = {
        "entries": len(plans),
        "pruned": 0,
        "kept": len(plans),
        "bytes_freed": 0,
        "protected": sum(key in keep for *_, key in plans),
        "codelets": len(objects),
        "codelets_pruned": 0,
    }
    if report_only:
        return report

    overflow = len(plans) - max_entries
    kept_since = float("inf")  # when the oldest plan that stays was built
    for _, built, so, key in plans:
        if key not in keep and report["pruned"] < overflow:
            report["bytes_freed"] += _evict(so, (".so", ".c", ".tab"))
            report["pruned"] += 1
        else:
            kept_since = min(kept_since, built)
    report["kept"] -= report["pruned"]
    for obj in objects:
        try:
            stale = obj.stat().st_mtime < kept_since
        except OSError:
            continue
        if stale:
            report["bytes_freed"] += _evict(obj, (".o", ".c"))
            report["codelets_pruned"] += 1
    get_tracer().count("codegen.cache_pruned", report["pruned"])
    return report


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
    "run_cc",
]
