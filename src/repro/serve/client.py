"""TCP client for the ``repro serve`` front end.

One :class:`ServeClient` holds one
:class:`~repro.serve.protocol.FrameConn` and is intended for one thread
(the load generator gives each worker its own client).  Arrays
travel as binary frames (raw ``complex128`` after a JSON header line).
Remote failures surface as :class:`RemoteError`; ``overloaded``
rejections carry the server's ``retry_after`` hint so callers can
implement polite backoff.

``fft`` is the blocking request/response call.  ``fft_pipeline`` keeps a
whole burst of requests in flight on the connection before reading any
response — the server handler submits each one to the batcher on
arrival, so a pipelined burst is what actually fills the service's
batching window from one client.

``fft_retry`` wraps ``fft`` with the fault-tolerant policy
(:class:`RetryPolicy`): exponential backoff with jitter, honoring the
server's ``retry_after`` hint on ``overloaded``, retrying typed
``internal`` faults, and transparently reconnecting after a connection
reset.  Resending after a reset is safe because the FFT op is
idempotent and side-effect free.  The envelope ops (``stats``,
``health``, ``ping``) redial through the same loop under the client's
own policy — there is one redial loop, the policy's.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..seeding import default_seed, derive_seed
from .protocol import RETRYABLE_CODES, FrameConn, payload_array

#: per-process client counter; decorrelates jitter streams of a fleet of
#: clients sharing one ``REPRO_SEED``
_CLIENT_IDS = itertools.count()


def jitter_rng(policy: "RetryPolicy",
               client_index: Optional[int] = None) -> random.Random:
    """The backoff-jitter RNG for one client under ``policy``.

    An explicit ``policy.seed`` is honored verbatim.  Otherwise the
    stream derives from the process seed (``REPRO_SEED`` via
    :func:`repro.seeding.default_seed`) and the client's index, so a
    chaos run replays the exact same backoff schedule under the same
    seed — seeding from ``random.Random(None)`` (OS entropy) made retry
    timing the one unreproducible part of an otherwise deterministic
    fault plan.
    """
    if policy.seed is not None:
        return random.Random(policy.seed)
    if client_index is None:
        client_index = next(_CLIENT_IDS)
    return random.Random(
        derive_seed(default_seed(), "serve.client.jitter", client_index)
    )


class RemoteError(Exception):
    """A structured failure response from the server."""

    def __init__(self, code: str, detail: str,
                 retry_after: Optional[float] = None):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.retry_after = retry_after

    @classmethod
    def of(cls, resp: dict) -> "RemoteError":
        """The error a failed response header describes."""
        return cls(resp.get("error", "unknown"), resp.get("detail", ""),
                   resp.get("retry_after"))


@dataclass
class RetryPolicy:
    """Backoff/retry tunables for :meth:`ServeClient.fft_retry`.

    The k-th retry sleeps ``base_s * multiplier**k`` (capped at ``max_s``),
    raised to the server's ``retry_after`` hint when one was sent, then
    stretched by up to ``jitter`` (multiplicative, seeded — so a fleet of
    backed-off clients doesn't thundering-herd the queue on the same tick).
    """

    attempts: int = 5
    base_s: float = 0.005
    multiplier: float = 2.0
    max_s: float = 0.25
    jitter: float = 0.5
    retry_codes: tuple = RETRYABLE_CODES
    reconnect: bool = True
    seed: Optional[int] = None

    def backoff_s(self, attempt: int, retry_after: Optional[float],
                  rng: random.Random) -> float:
        delay = min(self.max_s, self.base_s * self.multiplier ** attempt)
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay * (1.0 + self.jitter * rng.random())


class ServeClient:
    """Blocking client speaking the framed JSON/binary protocol."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7373,
                 timeout: float = 60.0,
                 retry: Optional[RetryPolicy] = None):
        self._address = (host, port)
        self._timeout = timeout
        self.retry_policy = retry or RetryPolicy()
        self._rng = jitter_rng(self.retry_policy)
        self._next_id = 0
        self.retries_total = 0
        self.reconnects_total = 0
        self._connect()

    # -- plumbing -------------------------------------------------------------

    def _connect(self) -> None:
        # one timeout: here the read timeout *is* the request timeout
        self._conn = FrameConn.dial(self._address, self._timeout)
        self._connected = True

    def reconnect(self) -> None:
        """Drop the (possibly reset) connection and dial a fresh one."""
        self.close()
        self._connect()
        self.reconnects_total += 1

    def _read_response(self) -> tuple[dict, Optional[memoryview]]:
        frame = self._conn.recv()
        if frame is None:
            raise ConnectionError("server closed the connection")
        return frame[0], frame[1]

    @staticmethod
    def _check(resp: dict) -> dict:
        if not resp.get("ok", False):
            raise RemoteError.of(resp)
        return resp

    def _fft_header(self, threads, mu, strategy, timeout,
                    no_batch) -> dict:
        self._next_id += 1
        msg = {"op": "fft", "id": self._next_id}
        if threads is not None:
            msg["threads"] = threads
        if mu is not None:
            msg["mu"] = mu
        if strategy is not None:
            msg["strategy"] = strategy
        if timeout is not None:
            msg["timeout"] = timeout
        if no_batch:
            msg["no_batch"] = True
        return msg

    # -- public API -----------------------------------------------------------

    def request(self, op: str, **fields) -> dict:
        """Send one JSON-envelope op and block for its response header."""
        self._next_id += 1
        self._conn.send({"op": op, "id": self._next_id, **fields})
        resp, _ = self._read_response()
        return self._check(resp)

    def fft(
        self,
        x: np.ndarray,
        threads: Optional[int] = None,
        mu: Optional[int] = None,
        strategy: Optional[str] = None,
        timeout: Optional[float] = None,
        no_batch: bool = False,
    ) -> np.ndarray:
        """Transform one vector or a ``(b, n)`` stack on the server."""
        msg = self._fft_header(threads, mu, strategy, timeout, no_batch)
        self._conn.send(msg, np.asarray(x))
        resp, buf = self._read_response()
        self._check(resp)
        return payload_array(resp, buf)

    def fft_retry(
        self,
        x: np.ndarray,
        threads: Optional[int] = None,
        mu: Optional[int] = None,
        strategy: Optional[str] = None,
        timeout: Optional[float] = None,
        no_batch: bool = False,
        policy: Optional[RetryPolicy] = None,
    ) -> np.ndarray:
        """``fft`` with retry: backoff + jitter, reconnect on resets.

        Retries typed ``overloaded``/``internal`` responses (honoring the
        ``retry_after`` hint) and connection failures (after redialing).
        Non-retryable errors — ``bad-request``, ``deadline``, ``closed`` —
        raise immediately.
        """
        return self._retrying(
            functools.partial(self.fft, x, threads=threads, mu=mu,
                              strategy=strategy, timeout=timeout,
                              no_batch=no_batch),
            policy or self.retry_policy,
        )

    def _retrying(self, call, pol: RetryPolicy):
        """Run ``call`` under ``pol``: the client's one redial-and-retry loop."""
        last: Exception = RemoteError("unknown", "no attempt made")
        for attempt in range(max(1, pol.attempts)):
            try:
                if not self._connected:
                    self.reconnect()  # a failed redial lands below
                return call()
            except RemoteError as exc:
                if exc.code not in pol.retry_codes:
                    raise
                last = exc
                self.retries_total += 1
                time.sleep(pol.backoff_s(attempt, exc.retry_after, self._rng))
            except (ConnectionError, OSError) as exc:
                if not pol.reconnect:
                    raise
                last = exc
                self.retries_total += 1
                self._connected = False
                time.sleep(pol.backoff_s(attempt, None, self._rng))
        raise last

    def fft_pipeline(
        self,
        xs: list,
        threads: Optional[int] = None,
        mu: Optional[int] = None,
        strategy: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> list:
        """Send every request before reading any response.

        Returns one ``(result, latency_s, error)`` triple per input, in
        input order: ``result`` is the transformed array (None on
        failure), ``latency_s`` the send-to-receive wall time, and
        ``error`` a :class:`RemoteError` or None.
        """
        sent: list[tuple[int, float]] = []
        send, last = self._conn.send, len(xs) - 1
        for i, x in enumerate(xs):
            msg = self._fft_header(threads, mu, strategy, timeout, False)
            send(msg, np.asarray(x), i == last)  # one flush per burst
            sent.append((msg["id"], time.perf_counter()))
        by_id: dict = {}
        for _ in sent:
            resp, buf = self._read_response()
            now = time.perf_counter()
            rid = resp.get("id")
            if resp.get("ok", False):
                by_id[rid] = (payload_array(resp, buf), now, None)
            else:
                by_id[rid] = (None, now, RemoteError.of(resp))
        out = []
        for rid, t0 in sent:
            y, t1, err = by_id[rid]
            out.append((y, t1 - t0, err))
        return out

    def _envelope(self, op: str) -> dict:
        """One payload-less op under the client's own retry policy."""
        return self._retrying(functools.partial(self.request, op),
                              self.retry_policy)

    def prewarm(self, n: int, threads: Optional[int] = None,
                mu: Optional[int] = None,
                strategy: Optional[str] = None) -> dict:
        """Ask the server to build one plan ahead of traffic."""
        hints = {"threads": threads, "mu": mu, "strategy": strategy}
        return self.request("prewarm", n=int(n), **{
            k: v for k, v in hints.items() if v is not None})["plan"]

    def stats(self) -> dict:
        return self._envelope("stats")["stats"]

    def health(self) -> dict:
        """The server's liveness/degradation snapshot (``health`` op)."""
        return self._envelope("health")["health"]

    def ping(self) -> bool:
        return bool(self._envelope("ping").get("pong"))

    def close(self) -> None:
        self._connected = False
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
