"""Typed deadline handling: expiry while queued surfaces as ``deadline``.

The regression this guards: a request whose deadline passed while it sat
in the queue used to surface only when its batch ran (or as a generic
failure).  Whoever runs the queue now sweeps queued requests against
their deadlines and resolves them with :class:`DeadlineExceeded` before
any batch runs — and the wire protocol carries the typed ``deadline``
error code.
"""

import time

import numpy as np
import pytest

from repro.serve import (
    DeadlineExceeded,
    FFTService,
    RemoteError,
    ServeClient,
    ServeConfig,
)
from repro.serve.server import FFTServer

from . import hold_baton


def _vec(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestServiceDeadline:
    def test_queued_expiry_is_typed_and_prompt(self):
        with FFTService(ServeConfig(max_batch=64)) as svc:
            x = _vec(64)
            svc.transform(x, no_batch=True)  # warm the plan cache
            # submitted and not waited on, it sits queued past its 30 ms
            ticket = svc.submit(_vec(64, seed=1), timeout=0.03)
            time.sleep(0.06)
            t0 = time.monotonic()
            with pytest.raises(DeadlineExceeded) as ei:
                ticket.result(2.0)
            waited = time.monotonic() - t0
            # the first waiter's sweep resolves it; no batch runs it
            assert waited < 0.4, f"deadline surfaced only after {waited:.3f}s"
            assert "queued" in str(ei.value)
            stats = svc.stats()
            assert (stats["deadline_misses"], stats["batches"]) == (1, 1)

    def test_fresh_requests_unaffected(self):
        with FFTService(ServeConfig()) as svc:
            x = _vec(64)
            y = svc.transform(x, timeout=30.0)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)


class TestWireDeadline:
    def test_deadline_code_over_the_wire(self):
        service = FFTService(ServeConfig(max_batch=64))
        srv = FFTServer(("127.0.0.1", 0), service)
        srv.serve_background()
        try:
            with ServeClient("127.0.0.1", srv.port) as client:
                x = _vec(64)
                client.fft(x, no_batch=True)  # warm the plan cache
                # busy past the request's 30 ms: it queues and expires
                hold_baton(service, 0.1)
                t0 = time.monotonic()
                with pytest.raises(RemoteError) as ei:
                    client.fft(_vec(64, seed=1), timeout=0.03)
                assert ei.value.code == "deadline"
                assert time.monotonic() - t0 < 0.4
        finally:
            srv.shutdown()
            srv.server_close()
            service.close()

    def test_deadline_is_not_retryable(self):
        """fft_retry must raise a deadline error immediately, not resend."""
        service = FFTService(ServeConfig(max_batch=64))
        srv = FFTServer(("127.0.0.1", 0), service)
        srv.serve_background()
        try:
            with ServeClient("127.0.0.1", srv.port) as client:
                client.fft(_vec(64), no_batch=True)
                hold_baton(service, 0.1)
                with pytest.raises(RemoteError) as ei:
                    client.fft_retry(_vec(64, seed=1), timeout=0.03)
                assert ei.value.code == "deadline"
                assert client.retries_total == 0
        finally:
            srv.shutdown()
            srv.server_close()
            service.close()
