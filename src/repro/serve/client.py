"""Client for the ``repro serve`` front end: TCP, or the endpoint's Unix
listener when it is on this host (``FrameConn.dial``).

One :class:`ServeClient` holds one
:class:`~repro.serve.protocol.FrameConn` and is intended for one thread
(the load generator gives each worker its own client).  Arrays
travel as binary frames (raw ``complex128`` after a JSON header line) —
except that a client whose peer is on this host (``FrameConn.loopback``)
offers each connection one shared segment (``attach``), and a payload of
``BY_REFERENCE_BYTES`` or more then crosses no socket: it is written into
a region of the segment, the shard writes the result into another, and
that region is the array the call returns.  A refused ``attach`` (the
router refuses it) leaves the connection on bytes.
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
import weakref
from bisect import bisect_left, insort
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
    """A connection's shared segment, client side.

    A call places its regions first fit on 64-byte lines, skipping every
    region in use: a call's own, and each live result's.  An ``in`` region
    is free again when its call returns.  An ``out`` region becomes the
    call's result: one ``np.frombuffer`` owner array, the ``.base`` every
    view, slice and reshape of the result collapses to, whose finalizer
    hands the region back.  Released, the segment stays mapped until its
    last result dies."""

    def __init__(self, arena: SharedArena, nbytes: int):
        self._shared = arena.allocate(nbytes, np.uint8)
        self.name, self.nbytes = self._shared.name, nbytes
        # what each owner views: a buffer of the mapping's array, so every
        # result holds the mapping through it
        self._lines = memoryview(self._shared.array)
        self._used: list = []  # the (start, end) of every region in use
        # offsets of results dead since the last placement; their
        # finalizers append from whichever thread drops the last view
        self._freed: list = []

    def place(self, sizes) -> Optional[list]:
        """An ``(in, out)`` offset pair for each of ``sizes`` (bytes), all
        now in use; None, with nothing placed, when they do not fit."""
        used, freed = self._used, self._freed
        while freed:
            self.free(freed.pop())
        spots: list = []
        for nbytes in sizes:
            pair, need = [], _lines(nbytes)
            for _ in range(2):
                at = 0
                for start, end in used:
                    if start - at >= need:
                        break
                    at = end
                if at + need > self.nbytes:
                    for region in spots + [pair]:
                        for placed in region:
                            self.free(placed)
                    return None
                insort(used, (at, at + need))
                pair.append(at)
            spots.append(pair)
        return spots

    def free(self, at: int) -> None:
        used = self._used
        del used[bisect_left(used, (at,))]

    def put(self, msg: dict, x: np.ndarray, at: int, out: int) -> None:
        """Write ``x`` into the region at ``at`` and make ``msg`` its
        segment frame, with its result to come back at ``out``."""
        np.ndarray(x.shape, WIRE_DTYPE, self._shared.array, at)[...] = x
        msg["shape"], msg["shm"] = list(x.shape), [at, out]

    def result(self, out: int, x: np.ndarray) -> np.ndarray:
        """The region at ``out`` as ``x``'s result, which owns it."""
        owner = np.frombuffer(self._lines, WIRE_DTYPE, x.size, out)
        weakref.finalize(owner, self._freed.append, out).atexit = False
        return owner.reshape(x.shape)

    def unlink(self) -> None:
        """Remove the name: both mappings stay valid, and no process that
        dies from here on can leave the segment behind."""
        self._shared.unlink()

    def release(self) -> None:
        self._lines = None
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

    def _regions(self, sizes) -> Optional[tuple[_Segment, list]]:
        """The segment and an ``(in, out)`` region pair for each of
        ``sizes`` (payload bytes), placed in the connection's segment, or
        in one twice as large (at least) created and offered (``attach``)
        in its place when they do not fit; None on bytes."""
        seg = self._segment
        if seg is not None:
            spots = seg.place(sizes)
            if spots is not None:
                return seg, spots
        if not self._offer:
            return None
        need = sum(2 * _lines(nbytes) for nbytes in sizes)
        size = 1 << (need - 1).bit_length()
        try:
            fresh = _Segment(self._arena, max(size, 2 * seg.nbytes) if seg
                             else size)
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
            seg.release()  # mapped on while its results live
        self._segment = fresh
        return fresh, fresh.place(sizes)

    def _cut_off(self, seg: _Segment) -> None:
        """A call on ``seg`` ended without its reply: the shard may still
        store into its regions, so no later call places one there."""
        if self._segment is seg:
            self._segment = None
            seg.release()

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
        """Transform one vector or a ``(b, n)`` stack on the server.

        A result that rode the connection's segment *is* its ``out``
        region: it holds the region, and its segment's mapping, until its
        last view dies (``.copy()`` gives an array that owns its memory)."""
        msg = self._fft_header(threads, mu, strategy, timeout, no_batch)
        x = np.asarray(x)
        nbytes = 16 * x.size
        placed = (None if nbytes < BY_REFERENCE_BYTES
                  else self._regions((nbytes,)))
        if placed is None:
            self._conn.send(msg, x)
            resp, buf = self._read_response()
            return payload_array(self._check(resp), buf)
        seg, ((at, out),) = placed
        try:
            seg.put(msg, x, at, out)
            self._conn.send(msg)
            resp, _ = self._read_response()
        except BaseException:
            self._cut_off(seg)
            raise
        seg.free(at)
        if not resp.get("ok", False):
            seg.free(out)
            raise RemoteError.of(resp)
        return seg.result(out, x)

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
        failure; a segment region, as :meth:`fft` returns one), ``latency_s``
        the send-to-receive wall time, and ``error`` a :class:`RemoteError`
        or None.  Every segment region is placed before the first frame
        leaves.
        """
        xs = [np.asarray(x) for x in xs]
        sizes = [16 * x.size for x in xs]
        big = [nb for nb in sizes if nb >= BY_REFERENCE_BYTES]
        placed = self._regions(big) if big else None
        seg, spots = placed or (None, ())
        send, last = self._conn.send, len(xs) - 1
        sent = []  # (id, x, its (in, out) regions or None, t0)

        def send_all() -> None:
            regions = iter(spots)
            for i, (x, nb) in enumerate(zip(xs, sizes)):
                msg = self._fft_header(threads, mu, strategy, timeout, False)
                region = None
                if seg is None or nb < BY_REFERENCE_BYTES:
                    send(msg, x, i == last)  # one flush per burst
                else:
                    region = next(regions)
                    seg.put(msg, x, *region)
                    send(msg, None, i == last)
                sent.append((msg["id"], x, region, time.perf_counter()))

        wire = sum(nb for nb in sizes if seg is None or nb < BY_REFERENCE_BYTES)
        try:
            if wire <= self._burst_room:
                send_all()
                by_id = self._responses(len(xs))
            else:
                by_id = self._send_while_reading(send_all, len(xs))
        except BaseException:
            if seg is not None:
                self._cut_off(seg)
            raise
        results = []
        for rid, x, region, t0 in sent:
            resp, buf, t1 = by_id[rid]
            ok = resp.get("ok", False)
            y = None
            if region is not None:
                at, out = region
                seg.free(at)
                if ok:
                    y = seg.result(out, x)
                else:
                    seg.free(out)
            elif ok:
                y = payload_array(resp, buf)
            results.append((y, t1 - t0, None if ok else RemoteError.of(resp)))
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
