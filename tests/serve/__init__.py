"""Helpers the serving tests share."""

import threading
import time


class ResolvedByHand:
    """As much of an ``FFTService`` as a waiting ticket uses, for tickets
    a test resolves itself: there is no queue to run, so ``_serve`` polls
    ``done()`` — with ``FFTService._serve``'s answers: True once done,
    False once ``timeout`` passes, None once ``interrupt()`` holds."""

    @staticmethod
    def _serve(done, timeout=None, interrupt=None):
        end = None if timeout is None else time.monotonic() + timeout
        while not done():
            if interrupt is not None and interrupt():
                return None
            if end is not None and time.monotonic() >= end:
                return False
            time.sleep(0.001)
        return True


def hold_baton(service, seconds: float) -> threading.Timer:
    """Hold ``service``'s baton for ``seconds``, as a batch running on
    another thread would: whatever is admitted meanwhile queues, and its
    waiters wait for the release (the returned, started timer)."""
    with service._cond:
        service._executing = True
    timer = threading.Timer(seconds, service._release_baton)
    timer.start()
    return timer


def queue_every_group(monkeypatch, service) -> None:
    """Admit every group to ``service``'s queue: none runs on the thread
    that admits it, so a waiter runs it (the queued path)."""
    admit = service.admit
    monkeypatch.setattr(service, "admit",
                        lambda reqs, here=False: admit(reqs))
