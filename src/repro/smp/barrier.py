"""A sense-reversing centralized barrier.

This is the classical low-latency software barrier the paper's generated
pthreads code relies on for its "low-latency minimal overhead
synchronization" (Section 3.2).  Each arrival takes the flipped shared
*sense* as its own; the last thread to arrive releases the others by
flipping the shared sense.  A condition variable stands in for the
spin-wait of the C implementation (spinning burns the GIL in CPython).

A party's sense is read on arrival, under the lock, not kept per thread
(an episode cannot complete before every party has arrived, so all of
its arrivals read the same value): a pool's master role may pass between
threads, as a service's batches do between the threads that hold its
baton in turn.
"""

from __future__ import annotations

import threading


class SenseReversingBarrier:
    """Reusable barrier for a fixed party count.

    :meth:`abort` breaks the barrier: every current and future ``wait``
    raises :class:`threading.BrokenBarrierError`.  A party that dies
    between barriers (a crashed worker thread) must abort on its way out,
    or the surviving parties would wait for an arrival that never comes.
    """

    def __init__(self, parties: int):
        if parties < 1:
            raise ValueError(f"barrier needs >= 1 parties, got {parties}")
        self.parties = parties
        self._count = parties
        self._sense = False
        self._broken = False
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self.wait_count = 0  # total number of wait() calls (for accounting)

    def wait(self) -> None:
        with self._cond:
            if self._broken:
                raise threading.BrokenBarrierError
            local_sense = not self._sense
            self.wait_count += 1
            self._count -= 1
            if self._count == 0:
                # last arrival: reset and release everyone
                self._count = self.parties
                self._sense = local_sense
                self._cond.notify_all()
            else:
                self._cond.wait_for(
                    lambda: self._broken or self._sense == local_sense
                )
                if self._broken:
                    raise threading.BrokenBarrierError

    def abort(self) -> None:
        """Break the barrier, waking every waiter with an error."""
        with self._cond:
            self._broken = True
            self._cond.notify_all()

    @property
    def broken(self) -> bool:
        with self._lock:
            return self._broken

    def reset_accounting(self) -> None:
        self.wait_count = 0
