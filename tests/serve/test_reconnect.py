"""ServeClient reconnect-on-reset against a real socket.

The retry path has existed since the retry policy landed, but only the
error-code branches had socket-level coverage.  Here the server hard-
closes the TCP connection mid-request (the ``net.conn_reset`` injection
point) and ``fft_retry`` under a *seeded* policy must redial, resend,
and return the correct transform — resending is safe because the FFT op
is idempotent.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.serve import (
    FFTService,
    RetryPolicy,
    ServeClient,
    ServeConfig,
)
from repro.serve.server import FFTServer


@pytest.fixture()
def server():
    service = FFTService(ServeConfig(max_batch=16))
    srv = FFTServer(("127.0.0.1", 0), service)
    srv.serve_background()
    yield srv
    srv.shutdown()
    srv.server_close()
    service.close()


def _vec(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestReconnectOnReset:
    def test_fft_retry_reconnects_and_completes(self, server):
        client = ServeClient("127.0.0.1", server.port)
        x = _vec(128)
        plan = FaultPlan(
            [FaultSpec("net.conn_reset", rate=1.0, max_fires=1)], seed=2
        )
        policy = RetryPolicy(attempts=5, base_s=0.001, seed=42)
        with fault_plan(plan):
            y = client.fft_retry(x, policy=policy)
        np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
        assert client.reconnects_total == 1
        assert client.retries_total >= 1
        assert plan.snapshot()["net.conn_reset"]["fires"] == 1
        # the fresh connection is live for subsequent traffic
        x2 = _vec(64, seed=1)
        np.testing.assert_allclose(
            client.fft(x2), np.fft.fft(x2), atol=1e-6
        )
        client.close()

    def test_repeated_resets_exhaust_policy(self, server):
        client = ServeClient("127.0.0.1", server.port)
        plan = FaultPlan([FaultSpec("net.conn_reset", rate=1.0)], seed=2)
        policy = RetryPolicy(attempts=3, base_s=0.001, seed=7)
        with fault_plan(plan):
            with pytest.raises((ConnectionError, OSError)):
                client.fft_retry(_vec(64), policy=policy)
        assert client.retries_total >= policy.attempts - 1
        client.close()

    def test_no_reconnect_policy_raises_immediately(self, server):
        client = ServeClient("127.0.0.1", server.port)
        plan = FaultPlan(
            [FaultSpec("net.conn_reset", rate=1.0, max_fires=1)], seed=2
        )
        policy = RetryPolicy(attempts=5, reconnect=False, seed=9)
        with fault_plan(plan):
            with pytest.raises((ConnectionError, OSError)):
                client.fft_retry(_vec(64), policy=policy)
        assert client.reconnects_total == 0
        client.close()
