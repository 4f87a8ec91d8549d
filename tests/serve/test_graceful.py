"""Graceful shutdown: drain semantics, signal handlers, the serve path.

The contract (docs/serving.md): on SIGTERM/SIGINT the server stops
accepting, already-admitted work completes (``FFTService.drain``), and
only then do the service and socket close — so a supervised shard kill
never drops an acknowledged request.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    FFTService,
    ServeClient,
    ServeConfig,
    ServiceClosed,
    graceful_shutdown,
    install_signal_handlers,
)
from repro.serve.server import FFTServer


def _vec(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestDrain:
    def test_drain_empty_service_is_immediate(self):
        service = FFTService(ServeConfig())
        try:
            assert service.drain(timeout=1.0) is True
        finally:
            service.close()

    def test_drain_waits_for_queued_work(self):
        service = FFTService(ServeConfig(max_batch=64))
        try:
            tickets = [service.submit(_vec(256, seed=i)) for i in range(8)]
            assert service.drain(timeout=10.0) is True
            for i, t in enumerate(tickets):
                np.testing.assert_allclose(
                    t.result(timeout=5.0),
                    np.fft.fft(_vec(256, seed=i)),
                    atol=1e-6,
                )
        finally:
            service.close()


class TestGracefulShutdown:
    def test_inflight_request_completes(self):
        service = FFTService(ServeConfig(max_batch=64))
        server = FFTServer(("127.0.0.1", 0), service)
        server.serve_background()
        client = ServeClient("127.0.0.1", server.port)
        xs = [_vec(128, seed=i) for i in range(6)]
        results = {}

        def _burst():
            results["outs"] = client.fft_pipeline(xs)

        t = threading.Thread(target=_burst)
        t.start()
        time.sleep(0.01)  # let the burst land
        assert graceful_shutdown(server, service, drain_timeout=10.0)
        t.join(timeout=10.0)
        assert not t.is_alive()
        for x, (y, _, err) in zip(xs, results["outs"]):
            assert err is None  # admitted work was never dropped
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
        client.close()
        with pytest.raises(ServiceClosed):
            service.submit(_vec(64))
        with pytest.raises(OSError):
            ServeClient("127.0.0.1", server.port, timeout=0.5)

    def test_signal_handler_drives_shutdown(self):
        service = FFTService(ServeConfig())
        server = FFTServer(("127.0.0.1", 0), service)
        server.serve_background()
        old = signal.getsignal(signal.SIGTERM)
        try:
            done = install_signal_handlers(server, service,
                                           signals=(signal.SIGTERM,))
            with ServeClient("127.0.0.1", server.port) as c:
                np.testing.assert_allclose(
                    c.fft(_vec(64)), np.fft.fft(_vec(64)), atol=1e-6
                )
            os.kill(os.getpid(), signal.SIGTERM)
            assert done.wait(timeout=10.0)
            with pytest.raises(ServiceClosed):
                service.submit(_vec(64))
        finally:
            signal.signal(signal.SIGTERM, old)

    def test_handler_is_idempotent(self):
        service = FFTService(ServeConfig())
        server = FFTServer(("127.0.0.1", 0), service)
        server.serve_background()
        old = signal.getsignal(signal.SIGTERM)
        try:
            done = install_signal_handlers(server, service,
                                           signals=(signal.SIGTERM,))
            os.kill(os.getpid(), signal.SIGTERM)
            os.kill(os.getpid(), signal.SIGTERM)  # second signal: no-op
            assert done.wait(timeout=10.0)
        finally:
            signal.signal(signal.SIGTERM, old)
