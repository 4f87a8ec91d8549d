"""Shared-memory arena: POSIX segments as NumPy views, with leak accounting.

The process runtime double-buffers transforms through
:mod:`multiprocessing.shared_memory` segments.  Segments are easy to leak —
an unlinked-but-still-mapped segment holds its pages, and a never-unlinked
one survives the process on ``/dev/shm`` — so this module makes ownership
explicit:

* the **creating** process owns a segment through a :class:`SharedArena`;
  buffers are refcounted (:meth:`SharedBuffer.acquire` /
  :meth:`SharedBuffer.release`) and unlinked when the count reaches zero or
  the arena closes;
* **attaching** processes (pool workers, a serve shard) open segments by
  name via :func:`attach` and only ever ``close()`` their mapping — unlink
  stays the owner's job, matching POSIX semantics (the segment disappears
  after the last close once unlinked).  An owner may unlink early
  (:meth:`SharedBuffer.unlink`) once every peer has attached: the name is
  gone, every mapping stays valid;
* a process-wide registry backs :func:`segment_stats` /
  :func:`live_segment_names`, and an ``atexit`` hook unlinks stragglers so
  a crashed or careless holder cannot leak past interpreter exit — every
  such rescue is counted as a leak, which the hygiene tests assert to be
  zero.
"""

from __future__ import annotations

import atexit
import mmap
import os
import secrets
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from ..spl.expr import COMPLEX

#: process-wide registry of segments *created* (owned) by this process
_LOCK = threading.Lock()
_OWNED: dict[str, "SharedBuffer"] = {}
_COUNTS = {"created": 0, "unlinked": 0, "leaked_at_exit": 0}


def _unique_name(prefix: str) -> str:
    # pid + random suffix: unique across concurrent processes and safely
    # under the 31-char POSIX name limit for short prefixes
    return f"{prefix}-{os.getpid() % 100000}-{secrets.token_hex(4)}"


class _UntrackedMapping:
    """An existing segment opened read-write by name — no create flag — and
    mapped without any resource tracker hearing of it: what Python 3.13's
    ``SharedMemory(name, track=False)`` does, for every version.  Before
    3.13, ``SharedMemory(name)`` registers the name with this process's
    tracker (cpython#82300), and unregistering again would strip the
    owner's entry when the two share one."""

    def __init__(self, name: str):
        from _posixshmem import shm_open  # what SharedMemory opens with

        fd = shm_open("/" + name, os.O_RDWR, mode=0o600)
        try:
            self.buf = mmap.mmap(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)

    def close(self) -> None:
        try:
            self.buf.close()
        except BufferError:  # a view is still alive: the pages stay mapped
            pass  # until it goes, and the mapping with it


@dataclass
class ArenaStats:
    """One arena's allocation accounting."""

    created: int = 0
    released: int = 0
    active: int = 0
    active_bytes: int = 0

    def snapshot(self) -> dict:
        return {
            "created": self.created,
            "released": self.released,
            "active": self.active,
            "active_bytes": self.active_bytes,
        }


class SharedBuffer:
    """A refcounted shared segment owned by a :class:`SharedArena`.

    ``array`` is a 1-D NumPy view over the mapping.  The buffer starts with
    one reference; :meth:`release` drops one and the segment is closed and
    unlinked when the count reaches zero.
    """

    def __init__(self, arena: "SharedArena", shm: shared_memory.SharedMemory,
                 nelems: int, dtype) -> None:
        self._arena = arena
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.nelems = nelems
        self.dtype = np.dtype(dtype)
        self._array: Optional[np.ndarray] = np.ndarray(
            (nelems,), dtype=self.dtype, buffer=shm.buf
        )
        self._refs = 1
        self._name = shm.name

    @property
    def name(self) -> str:
        assert self._shm is not None, "buffer already destroyed"
        return self._name

    @property
    def nbytes(self) -> int:
        return self.nelems * self.dtype.itemsize

    @property
    def array(self) -> np.ndarray:
        assert self._array is not None, "buffer already destroyed"
        return self._array

    @property
    def live(self) -> bool:
        return self._shm is not None

    def unlink(self) -> None:
        """Remove the segment's name now; this mapping (and every peer's)
        stays valid until closed.  Idempotent."""
        with _LOCK:
            if _OWNED.pop(self._name, None) is None:
                return
            _COUNTS["unlinked"] += 1
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - raced external unlink
            pass

    def acquire(self) -> "SharedBuffer":
        self._refs += 1
        return self

    def release(self) -> None:
        self._refs -= 1
        if self._refs <= 0 and self._shm is not None:
            self._arena._destroy(self)

    def _unlink(self) -> None:
        """Drop the view, close the mapping, unlink the segment."""
        if self._shm is None:
            return
        self.unlink()
        shm, self._shm = self._shm, None
        self._array = None  # a live view would make shm.close() fail
        shm.close()


class SharedArena:
    """Owner of a set of shared-memory buffers; unlinks them all on close."""

    def __init__(self, prefix: str = "repro-mp"):
        self.prefix = prefix
        self._lock = threading.Lock()
        self._buffers: dict[str, SharedBuffer] = {}
        self.stats = ArenaStats()
        self._closed = False

    def allocate(self, nelems: int, dtype=COMPLEX) -> SharedBuffer:
        """Create a segment big enough for ``nelems`` of ``dtype``."""
        if nelems < 1:
            raise ValueError(f"need nelems >= 1, got {nelems}")
        with self._lock:
            if self._closed:
                raise RuntimeError("arena is closed")
            nbytes = nelems * np.dtype(dtype).itemsize
            shm = shared_memory.SharedMemory(
                name=_unique_name(self.prefix), create=True, size=nbytes
            )
            buf = SharedBuffer(self, shm, nelems, dtype)
            self._buffers[buf.name] = buf
            self.stats.created += 1
            self.stats.active += 1
            self.stats.active_bytes += buf.nbytes
        with _LOCK:
            _OWNED[buf.name] = buf
            _COUNTS["created"] += 1
        return buf

    def _destroy(self, buf: SharedBuffer) -> None:
        with self._lock:
            if self._buffers.pop(buf.name, None) is None:
                return
            self.stats.released += 1
            self.stats.active -= 1
            self.stats.active_bytes -= buf.nbytes
            buf._unlink()

    @property
    def active(self) -> int:
        with self._lock:
            return len(self._buffers)

    def close(self) -> None:
        """Unlink every live buffer regardless of refcounts; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leftovers = list(self._buffers.values())
        for buf in leftovers:
            self._destroy(buf)

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AttachedSegment:
    """A worker-side mapping of a segment some other process owns.

    ``untrack`` matters on Python < 3.13, where attaching through
    ``SharedMemory`` registers the segment with a resource tracker
    (cpython#82300).  Pool workers share the *master's* tracker under
    every start method (fork inherits it, spawn passes the tracker fd), so
    for them registration is an idempotent set-add and they may leave
    ``untrack=False``.  ``untrack=True`` maps the segment without any
    tracker hearing of it (:class:`_UntrackedMapping`): for a process that
    does not know whose tracker it has, such as a serve shard attaching a
    client's segment — a tracker of its own would unlink the owner's
    segment when it exits, and unregistering from a shared one would strip
    the owner's entry.  On 3.13+ ``track=False`` sidesteps the question.
    ``nbytes`` is the mapping's size, which may exceed ``nelems``'s.
    """

    def __init__(self, name: str, nelems: int, dtype=COMPLEX,
                 untrack: bool = False):
        if untrack:
            shm = _UntrackedMapping(name)
        else:
            try:
                shm = shared_memory.SharedMemory(name=name, track=False)
            except TypeError:  # Python < 3.13: no track parameter
                shm = shared_memory.SharedMemory(name=name)
        self._shm = shm
        self.name = name
        self.nbytes = len(shm.buf)
        try:
            self._array: Optional[np.ndarray] = np.ndarray(
                (nelems,), dtype=np.dtype(dtype), buffer=shm.buf
            )
        except TypeError:  # the segment is smaller than asked for
            shm.close()
            raise

    @property
    def array(self) -> np.ndarray:
        assert self._array is not None, "segment already closed"
        return self._array

    def close(self) -> None:
        """Unmap; never unlinks (the creator owns the segment)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        self._array = None
        shm.close()


def attach(name: str, nelems: int, dtype=COMPLEX,
           untrack: bool = False) -> AttachedSegment:
    """Map an existing segment by name as ``nelems`` of ``dtype``.

    Pass ``untrack=True`` from a process that may not share the owner's
    resource tracker; see :class:`AttachedSegment`.
    """
    return AttachedSegment(name, nelems, dtype, untrack=untrack)


def live_segment_names() -> list[str]:
    """Names of segments this process created and has not yet unlinked."""
    with _LOCK:
        return sorted(_OWNED)


def segment_stats() -> dict:
    """Process-wide segment accounting (created / unlinked / live / leaked)."""
    with _LOCK:
        return {
            "created": _COUNTS["created"],
            "unlinked": _COUNTS["unlinked"],
            "live": len(_OWNED),
            "leaked_at_exit": _COUNTS["leaked_at_exit"],
        }


def _cleanup_at_exit() -> None:
    """Unlink stragglers at interpreter exit; each one counts as a leak."""
    with _LOCK:
        stragglers = list(_OWNED.values())
    for buf in stragglers:
        try:
            buf._unlink()
        except Exception:  # pragma: no cover - nothing left to do at exit
            pass
        with _LOCK:
            _COUNTS["leaked_at_exit"] += 1


atexit.register(_cleanup_at_exit)
