"""Wisdom: the persistent ranking store of measured planning.

FFTW's "wisdom" is the saved outcome of *measured* planning, and the next
planner reads it.  A wisdom file is JSON keyed by plan configuration
``(n, threads, mu)``; an entry holds, per executor lane
(``backend/runtime``), the **ranking** :func:`repro.tune.measured_search`
measured (its ``best`` block names a buildable spec: ``strategy``,
``min_leaf``, ``nu``) — and nothing else: a file holds only what a build
reads.  Keys other writers left in an entry (older files carry
``observations`` and ``artifacts``) are kept and ignored.  It builds
nothing: what a file contributes to a build is the one requested →
effective substitution :meth:`Wisdom.best` feeds
:meth:`repro.mp.spec.PlanSpec.tuned`
(:func:`repro.serve.plan_cache.plan_builder`).

    wisdom = Wisdom("wisdom.json")
    measured_search(4096, threads=2, wisdom=wisdom)   # persists a ranking
    wisdom.best(4096, 2, 4, "numpy", "pthreads")      # -> its best block

The file is the store; an instance is a cache of it.  Every write is one
read-merge-write :meth:`~Wisdom.transaction` under an advisory lock
on a ``<path>.lock`` sidecar, so instances, threads and processes sharing
one path lose nothing, and reads reload once the file has moved on.  Saves
are atomic (temp file in the same directory, then ``os.replace``): no
reader sees a torn file, and a corrupt or missing one reads as empty.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Iterator, Optional

from .trace import get_tracer


#: schema version of the ``tune`` block inside a wisdom entry.  Bumped
#: whenever the ranking layout changes; readers ignore rankings from
#: other versions, so stale fleet wisdom degrades to "no record" instead
#: of misguiding a build.
TUNE_VERSION = 1


class Wisdom:
    """Persistent measured rankings keyed by plan configuration."""

    def __init__(self, path: Optional[str | Path] = None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.RLock()
        self._store: dict = {}
        #: identity of the file version ``_store`` mirrors (see _records)
        self._stamp: object = ()
        #: True inside a transaction: nested ones join instead of re-locking
        self._open = False

    # -- persistence -----------------------------------------------------------

    def _records(self) -> dict:
        """The current records (``_lock`` held): the cached store, re-read
        whenever the file was replaced since — by this instance or another."""
        if self.path is not None:
            stamp = self._file_stamp()
            if stamp != self._stamp:
                try:
                    store = json.loads(self.path.read_text())
                except (json.JSONDecodeError, OSError):
                    store = {}
                self._store = store if isinstance(store, dict) else {}
                self._stamp = stamp
        return self._store

    def _file_stamp(self) -> Optional[tuple]:
        try:
            st = os.stat(self.path)
        except OSError:
            return None
        return (st.st_ino, st.st_mtime_ns, st.st_size)

    def _save(self) -> None:
        """Atomically publish the store (temp file + ``os.replace``)."""
        payload = json.dumps(self._store, indent=1)
        fd, tmp = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self._stamp = self._file_stamp()

    @contextlib.contextmanager
    def transaction(self) -> Iterator[dict]:
        """One read-merge-write of the file; yields the records to mutate.

        Holds the sidecar's advisory lock from the read to the publish, so
        concurrent writers serialize instead of overwriting each other.
        Nested transactions join the outer one: wrap a loop of
        :meth:`record_tuning` calls in ``with wisdom.transaction():`` to
        rewrite the file once.
        """
        with self._lock:
            if self._open or self.path is None:
                yield self._store
                return
            with open(f"{self.path}.lock", "a") as sidecar:
                fcntl.flock(sidecar, fcntl.LOCK_EX)
                store = self._records()
                self._open = True
                try:
                    yield store
                finally:
                    self._open = False
                    self._save()

    @staticmethod
    def _key(n: int, threads: int, mu: int) -> str:
        return f"dft:{n}:p{threads}:mu{mu}"

    def __len__(self) -> int:
        with self._lock:
            return len(self._records())

    def __contains__(self, key: tuple) -> bool:
        n, threads, mu = key
        with self._lock:
            return self._key(n, threads, mu) in self._records()

    def forget(self) -> None:
        """Drop every record (in memory and on disk)."""
        with self.transaction() as store:
            store.clear()

    def entry(self, n: int, threads: int = 1, mu: int = 4) -> Optional[dict]:
        """Everything stored for one configuration, or None."""
        with self._lock:
            entry = self._records().get(self._key(n, threads, mu))
        return entry if isinstance(entry, dict) else None

    # -- measured rankings ------------------------------------------------------

    @staticmethod
    def _lane(backend: str, runtime: str) -> str:
        return f"{backend}/{runtime}"

    def _tune_block(self, store: dict, n, threads, mu) -> dict:
        """The ``rankings`` map of the key's version-stamped ``tune`` block
        in ``store``, creating the block — or resetting one stamped with
        another version — on the way."""
        entry = store.setdefault(self._key(n, threads, mu), {})
        tune = entry.get("tune")
        if not isinstance(tune, dict) or tune.get("version") != TUNE_VERSION:
            tune = entry["tune"] = {"version": TUNE_VERSION}
        return tune.setdefault("rankings", {})

    def record_tuning(
        self,
        n: int,
        threads: int,
        mu: int,
        backend: str,
        runtime: str,
        record: dict,
    ) -> None:
        """Persist a measured-search ranking for one executor lane.

        ``record`` comes from :func:`repro.tune.measured_search` — the
        strategy ranking with measured seconds per candidate.  Stored
        under a :data:`TUNE_VERSION` stamp so readers on other schema
        versions skip it, and keyed ``backend/runtime`` so the fleet
        shares rankings per (n, threads, mu, backend, runtime).
        """
        with self.transaction() as store:
            rankings = self._tune_block(store, n, threads, mu)
            rankings[self._lane(backend, runtime)] = dict(record)
        get_tracer().count("wisdom.tune_record", 1)

    def tuning(
        self, n: int, threads: int, mu: int, backend: str, runtime: str
    ) -> Optional[dict]:
        """The stored measured ranking for exactly this lane, or None;
        blocks written under another :data:`TUNE_VERSION` read as absent."""
        tune = (self.entry(n, threads, mu) or {}).get("tune")
        if not isinstance(tune, dict) or tune.get("version") != TUNE_VERSION:
            return None
        return tune.get("rankings", {}).get(self._lane(backend, runtime))

    def best(
        self, n: int, threads: int, mu: int, backend: str, runtime: str
    ) -> Optional[dict]:
        """The ``best`` block a build on this lane should adopt, or None.

        The lane's own ranking, else the ``sequential`` lane's: strategy
        order carries over between runtimes — what the online tuner
        assumes when it ranks every key on the sequential runtime.
        """
        record = (self.tuning(n, threads, mu, backend, runtime)
                  or self.tuning(n, threads, mu, backend, "sequential"))
        best = record.get("best") if isinstance(record, dict) else None
        return best if isinstance(best, dict) else None
