"""Helpers the serving tests share."""

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
