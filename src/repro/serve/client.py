"""Client for the ``repro serve`` front end: TCP, or the endpoint's Unix
listener when it is on this host (``FrameConn.dial``).

One :class:`ServeClient` holds one
:class:`~repro.serve.protocol.FrameConn` and is intended for one thread
(the load generator gives each worker its own client).  Arrays
travel as binary frames (raw ``complex128`` after a JSON header line) —
except that a client whose peer is on this host (``FrameConn.loopback``)
offers each connection one shared segment (``attach``), and a payload of
``BY_REFERENCE_BYTES`` or more then crosses no socket: it is written into
the segment and the shard writes the result beside it.  A refused
``attach`` (the router refuses it) leaves the connection on bytes.
Remote failures surface as :class:`RemoteError`; ``overloaded``
rejections carry the server's ``retry_after`` hint so callers can
implement polite backoff.

``fft`` is the blocking request/response call.  ``fft_pipeline`` keeps a
whole burst of requests in flight on the connection before reading any
response — the server handler admits the burst as one group, so a
pipelined burst is what fills a stacked batch from one client.

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
import threading
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..mp.arena import SharedArena
from ..seeding import default_seed, derive_seed
from .protocol import BY_REFERENCE_BYTES, RETRYABLE_CODES, WIRE_DTYPE, \
    WIRE_PREFIX, FrameConn, payload_array

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


def _lines(nbytes: int) -> int:
    """``nbytes`` rounded up to whole 64-byte cache lines."""
    return -(-nbytes // 64) * 64


class _Segment:
    """A connection's shared segment, client side.  A call bump-allocates
    its regions from offset 0; no view of the mapping outlives the call
    that made it, so the segment always closes."""

    def __init__(self, arena: SharedArena, nbytes: int):
        self._shared = arena.allocate(nbytes, np.uint8)
        self.name, self.nbytes = self._shared.name, nbytes

    def put(self, msg: dict, x: np.ndarray, at: int) -> int:
        """Write ``x`` into the region at ``at`` and make ``msg`` its
        segment frame; returns the offset of the region its result comes
        back in (the next free offset is one region further)."""
        view = np.ndarray(x.shape, WIRE_DTYPE, self._shared.array, at)
        try:
            view[...] = x
        finally:
            del view  # not even a failed call's traceback keeps it
        out = at + _lines(16 * x.size)
        msg["shape"], msg["shm"] = list(x.shape), [at, out]
        return out

    def take(self, at: int, shape) -> np.ndarray:
        return np.array(np.ndarray(shape, WIRE_DTYPE, self._shared.array, at),
                        dtype=np.complex128)

    def unlink(self) -> None:
        """Remove the name: both mappings stay valid, and no process that
        dies from here on can leave the segment behind."""
        self._shared.unlink()

    def release(self) -> None:
        self._shared.release()


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
        try:
            delay = min(self.max_s, self.base_s * self.multiplier ** attempt)
        except OverflowError:  # the growth passed max_s long before
            delay = self.max_s
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
        # owns each connection's shared segment in turn
        self._arena = SharedArena(WIRE_PREFIX)
        self._connect()

    # -- plumbing -------------------------------------------------------------

    def _connect(self) -> None:
        # one timeout: here the read timeout *is* the request timeout
        self._conn = FrameConn.dial(self._address, self._timeout)
        self._connected = True
        # the most a pipelined burst sends inline, before it reads: within
        # it the burst never waits on the peer.  A larger one is sent from
        # a helper thread while the caller reads: a server answering its
        # first requests would otherwise wait for this client to read
        # while the client waits for the server to read the rest
        self._burst_room = self._conn.send_room()
        self._segment: Optional[_Segment] = None
        # may this connection still offer a segment: same host, not refused
        self._offer = self._conn.loopback()

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

    def _segment_for(self, need: int) -> Optional[_Segment]:
        """The connection's segment, with room for ``need`` bytes: created
        and offered (``attach``) on first need, and again, larger, when a
        call needs more room; None on bytes."""
        seg = self._segment
        if seg is not None and seg.nbytes >= need:
            return seg
        if not self._offer:
            return None
        try:
            fresh = _Segment(self._arena, 1 << (need - 1).bit_length())
        except OSError:  # no shared memory here: bytes it is
            self._offer = False
            return None
        try:
            self.request("attach", name=fresh.name, size=fresh.nbytes)
        except RemoteError:  # refused: this connection stays on bytes
            fresh.release()
            self._offer = False
            return None
        except BaseException:
            fresh.release()
            raise
        fresh.unlink()
        if seg is not None:
            seg.release()
        self._segment = fresh
        return fresh

    def _result(self, resp: dict, buf, shape, out: Optional[int]):
        """A successful reply's array: its payload, or a copy of its
        segment region (the next call reuses the region)."""
        if out is None:
            return payload_array(resp, buf)
        return self._segment.take(out, shape)

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
        x = np.asarray(x)
        nbytes = 16 * x.size
        seg = (None if nbytes < BY_REFERENCE_BYTES
               else self._segment_for(2 * _lines(nbytes)))
        out = None
        if seg is None:
            self._conn.send(msg, x)
        else:
            out = seg.put(msg, x, 0)
            self._conn.send(msg)
        resp, buf = self._read_response()
        return self._result(self._check(resp), buf, x.shape, out)

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
        xs = [np.asarray(x) for x in xs]
        sizes = [16 * x.size for x in xs]
        need = sum(2 * _lines(nb) for nb in sizes if nb >= BY_REFERENCE_BYTES)
        seg = self._segment_for(need) if need else None
        send, last = self._conn.send, len(xs) - 1
        sent = []  # (id, shape, the result's segment offset or None, t0)

        def send_all() -> None:
            at = 0
            for i, (x, nb) in enumerate(zip(xs, sizes)):
                msg = self._fft_header(threads, mu, strategy, timeout, False)
                out = None
                if seg is None or nb < BY_REFERENCE_BYTES:
                    send(msg, x, i == last)  # one flush per burst
                else:
                    out = seg.put(msg, x, at)
                    send(msg, None, i == last)
                    at = out + _lines(nb)
                sent.append((msg["id"], x.shape, out, time.perf_counter()))

        wire = sum(nb for nb in sizes if seg is None or nb < BY_REFERENCE_BYTES)
        if wire <= self._burst_room:
            send_all()
            by_id = self._responses(len(xs))
        else:
            by_id = self._send_while_reading(send_all, len(xs))
        results = []
        for rid, shape, out, t0 in sent:
            resp, buf, t1 = by_id[rid]
            if resp.get("ok", False):
                results.append((self._result(resp, buf, shape, out), t1 - t0,
                                None))
            else:
                results.append((None, t1 - t0, RemoteError.of(resp)))
        return results

    def _responses(self, count: int) -> dict:
        """The next ``count`` responses, by id, each with its arrival time."""
        by_id: dict = {}
        for _ in range(count):
            resp, buf = self._read_response()
            by_id[resp.get("id")] = (resp, buf, time.perf_counter())
        return by_id

    def _send_while_reading(self, send_all, count: int) -> dict:
        """``send_all()`` on a helper thread while this one reads the
        ``count`` responses.  Whichever side fails first severs the
        connection, so the other fails at once instead of waiting out its
        own timeout, and its error is what this raises."""
        failed: list = []

        def run() -> None:
            try:
                send_all()
            except Exception as exc:
                failed.append(exc)
                self._connected = False
                self._conn.sever()  # wakes the reader

        sender = threading.Thread(target=run, name="serve-client-send",
                                  daemon=True)
        sender.start()
        try:
            return self._responses(count)
        except Exception:
            send_failed = bool(failed)
            if not send_failed:  # the read failed first: stop the send
                self._connected = False
                self._conn.sever()
            sender.join()
            if send_failed:
                raise failed[0] from None
            raise
        finally:
            sender.join()

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
        if self._segment is not None:
            self._segment.release()
            self._segment = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
