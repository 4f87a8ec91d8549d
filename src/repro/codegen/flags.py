"""Compiler-flag policy: one source of truth for every codelet build.

Before this module existed the repo had divergent flag sets:
``compiled_backend.CFLAGS`` compiled production shared objects at ``-O2``
while the standalone builds in :mod:`.c_backend` hardcoded their own
``-O2 -std=gnu99`` — so a standalone program was built differently from
the code the serving path actually runs.  Every builder now derives its
flags from :func:`optimization_tier`:

* **native tier** (default): ``-O3 -march=native`` — the ν-lane stage
  text is explicit vector-extension code at any tier; this one lowers it
  to the build host's widest ISA and lets gcc/clang auto-vectorize the
  ν-wide codelet bodies (:mod:`repro.codegen.unroll`) beside it;
* **portable tier**: plain ``-O2``, selected when ``REPRO_NO_SIMD`` is
  set (the forced-scalar CI lane) or when the compiler rejects
  ``-march=native`` (probed once per compiler path, memoized).

One kind of translation unit drops a level at the native tier: a plan
unit whose loops all carry :data:`GLUE_NU` lanes compiles at
:data:`OPT_GLUE` (``-O2 -march=native``, :func:`unit_cflags`).  Such a
unit is *glue*: explicit 256-bit vector statements around calls into
codelet objects it cannot see into, where ``-O3``'s extra passes buy
little and cost about 40 % of the unit's compile from n = 2^12 up.  The
ν = 1 and ν = 2 nests are scalar or half-width loops that ``-O3`` peels
and vectorizes (8-20 % faster than at ``-O2``), so they, the codelet
objects (straight-line code: the same compile time at either level) and
the standalone programs keep the tier.

:func:`exe_cflags` (standalone executables) and :func:`shared_cflags`
(production ``.so`` builds) share the tier verbatim, and the full
``shared_cflags`` value — with the glue tier derived from it, and
:data:`SHARED_LINK`, the freestanding link a plan unit's launch ends
with — is folded into
:func:`repro.codegen.compiled_backend.compiler_fingerprint`, and
through it into the content-addressed codelet cache key, so *any* flag
change recompiles instead of reusing stale objects
(``tests/codegen/test_flags.py`` proves both properties).

Beside the ``-march=native`` probe sits one more host reading,
:func:`l2_cache_bytes`: the emitter runs a stage in place when two rows
of the plan are at least the L2
(:func:`repro.codegen.c_emit.chain_in_place`), so that choice, too,
follows the build host.
"""

from __future__ import annotations

import os
import re
import subprocess
import threading
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

#: environment variable forcing the portable (scalar-friendly) tier and
#: disabling ν-way vector plan generation in the frontend
NO_SIMD_ENV = "REPRO_NO_SIMD"

#: the default optimization tier: auto-vectorization enabled, host ISA
OPT_NATIVE: tuple[str, ...] = ("-O3", "-march=native")

#: the fallback tier: conservative, runs on any host the binary reaches
OPT_PORTABLE: tuple[str, ...] = ("-O2",)

#: what the native tier becomes for a glue unit (:func:`unit_cflags`)
OPT_GLUE: tuple[str, ...] = ("-O2", "-march=native")

#: the lanes every loop of a plan unit carries when it is glue
GLUE_NU = 4

#: what a plan unit's launch links, after its last input: a shared object
#: and none of the C runtime (no crt files, no ``libc.so``, no
#: ``libgcc_s``), so it carries no ``NEEDED`` entry and no ``_init`` /
#: ``_fini``; its only undefined symbols, ``posix_memalign`` and ``free``,
#: bind at ``dlopen`` to the libc every loading process already has.  The
#: compiler's static helpers (``-lgcc``) come last, so an archive member is
#: pulled only for an object that calls one.  ``-Bsymbolic`` binds the
#: unit's own symbols inside it: ``repro_plan`` calls each
#: ``repro_stage<k>`` directly, not through the PLT
SHARED_LINK: tuple[str, ...] = ("-shared", "-Wl,-Bsymbolic", "-nostdlib",
                                "-lgcc")

#: where Linux describes cpu0's caches, one ``index<i>`` directory each
CACHE_SYSFS = Path("/sys/devices/system/cpu/cpu0/cache")

#: a cache ``size`` as sysfs writes it (``2048K``), and its unit's shift
_SIZE = re.compile(r"(\d+)([KMG]?)")
_SHIFT = {"": 0, "K": 10, "M": 20, "G": 30}

_PROBE_LOCK = threading.Lock()
_PROBE: dict[str, bool] = {}


def simd_disabled() -> bool:
    """True when ``REPRO_NO_SIMD`` forces the portable scalar tier."""
    return bool(os.environ.get(NO_SIMD_ENV))


def _accepts_march_native(cc: str) -> bool:
    """Does this compiler accept ``-march=native``? (probed once, memoized)"""
    with _PROBE_LOCK:
        if cc in _PROBE:
            return _PROBE[cc]
    try:
        proc = subprocess.run(
            [cc, "-march=native", "-x", "c", "-E", "-"],
            input="",
            capture_output=True,
            text=True,
            timeout=30,
        )
        ok = proc.returncode == 0
    except (OSError, subprocess.SubprocessError):
        ok = False
    with _PROBE_LOCK:
        _PROBE[cc] = ok
    return ok


def optimization_tier(cc: Optional[str] = None) -> tuple[str, ...]:
    """The optimization flags **every** build shares.

    Standalone verification runs
    (:func:`repro.codegen.c_backend.compile_and_run`) and production
    shared objects (:func:`~repro.codegen.compiled_backend.compile_plan`)
    both call this — the paper's program is built at exactly the tier
    production serves.
    """
    if simd_disabled():
        return OPT_PORTABLE
    if cc is not None and not _accepts_march_native(cc):
        return OPT_PORTABLE
    return OPT_NATIVE


def exe_cflags(cc: Optional[str] = None) -> tuple[str, ...]:
    """Flags for standalone executables (the stdin/stdout programs)."""
    return optimization_tier(cc) + ("-std=gnu99",)


def shared_cflags(cc: Optional[str] = None) -> tuple[str, ...]:
    """Compile flags for JIT shared objects (the production codelet
    builds): codelet objects compile under these alone, and a plan unit
    under them (or their glue tier) plus :data:`SHARED_LINK`."""
    return optimization_tier(cc) + ("-fPIC", "-std=gnu99")


def unit_cflags(flags: Sequence[str], nu: Optional[int]) -> tuple[str, ...]:
    """The flags a plan unit compiles under, from a builder's ``flags``
    (:func:`shared_cflags`, say) and ``nu``, the lanes every loop of the
    unit carries (None when its loops differ).

    At the native tier a glue unit — ``nu == GLUE_NU`` — swaps
    :data:`OPT_NATIVE` for :data:`OPT_GLUE`; any other unit, and any
    other tier, keeps ``flags`` as they are.
    """
    flags = tuple(flags)
    if nu == GLUE_NU and flags[:len(OPT_NATIVE)] == OPT_NATIVE:
        return OPT_GLUE + flags[len(OPT_NATIVE):]
    return flags


@lru_cache(maxsize=None)
def l2_cache_bytes() -> Optional[int]:
    """The host's L2 (data or unified) in bytes, or None when unknown.

    Read once per process from ``level``, ``type`` and ``size`` under
    :data:`CACHE_SYSFS` (``2``, ``Unified``, ``2048K``, say); a host that
    does not list its caches there reads None.
    """
    for index in sorted(CACHE_SYSFS.glob("index*")):
        try:
            level, kind, size = (
                (index / name).read_text().strip()
                for name in ("level", "type", "size")
            )
        except OSError:
            continue
        match = _SIZE.fullmatch(size)
        if level == "2" and kind in ("Data", "Unified") and match:
            return int(match[1]) << _SHIFT[match[2]]
    return None


def clear_flag_probe_cache() -> None:
    """Drop memoized host probes: ``-march=native`` and the L2 reading
    (tests, toolchain swaps)."""
    with _PROBE_LOCK:
        _PROBE.clear()
    l2_cache_bytes.cache_clear()


__all__ = [
    "CACHE_SYSFS",
    "GLUE_NU",
    "NO_SIMD_ENV",
    "OPT_GLUE",
    "OPT_NATIVE",
    "OPT_PORTABLE",
    "SHARED_LINK",
    "clear_flag_probe_cache",
    "exe_cflags",
    "l2_cache_bytes",
    "optimization_tier",
    "shared_cflags",
    "simd_disabled",
    "unit_cflags",
]
