"""The network front end: ``repro serve`` wraps an :class:`FFTService`.

A :class:`FFTServer` is the framed endpoint of :mod:`repro.serve.protocol`
(one handler thread per connection, one request loop, one op ladder);
what is its own is how a request is answered.  Connections are
**pipelined**: the read loop *holds* what a burst brings — ``fft``
requests and finished replies alike, each in its request's slot — for as
long as more of the connection is already received, and admits the held
requests to the service as one group (:meth:`FFTService.admit`: one lock
round) just before it would wait on the socket, at ``queue_limit`` rows
read ahead, or at end of stream.  On an idle service (nothing queued or
executing) the group runs right there, on the handler thread, as one
batch per plan key, and its replies leave in request order in one
flush.  A group that meets a busy service queues instead; before its
next blocking read the handler waits for what it
owes, in request order, running the service's queue meanwhile, and
reads on as soon as bytes arrive.  A handler writes only its own socket,
so a client that stops reading stalls no other connection.  Admission
control applies per request of the group: one that does not fit under
``queue_limit`` is an ``overloaded`` reply in its own slot.

A same-host client offers its connection one shared segment (``attach``).
The session maps it (:class:`_Segment`), views each segment frame's
request in place, and hands the service the frame's ``out`` region as the
request's result buffer — a lone request's whole-plan call stores ``Y``
straight into it — then answers with a header alone.
"""

from __future__ import annotations

import contextlib
import re
import sys
import threading
import time
from typing import Optional

import numpy as np

from ..faults import get_fault_plan
from ..mp.arena import attach
from .protocol import WIRE_DTYPE, WIRE_PREFIX, FrameConn, FrameServer, \
    Session, described_bytes, error_response, payload_array
from .service import (
    DeadlineExceeded,
    FFTService,
    FFTTicket,
    Overloaded,
    ServiceClosed,
)

#: the one exception → wire error-code table (``docs/serving.md`` §4/§7),
#: first match wins.  Anything not listed — a broken worker pool, an injected
#: fault, a server bug — is ``internal``: typed and retryable, and one
#: request's failure never wedges the connection.
_ERROR_TABLE = (
    (Overloaded, "overloaded"),
    (DeadlineExceeded, "deadline"),
    (ServiceClosed, "closed"),
    ((ValueError, TypeError), "bad-request"),
)


def exception_response(req_id, exc: BaseException) -> dict:
    """The wire error for ``exc`` (``overloaded`` carries ``retry_after``)."""
    code = next((c for tp, c in _ERROR_TABLE if isinstance(exc, tp)),
                "internal")
    retry = exc.retry_after if isinstance(exc, Overloaded) else None
    return error_response(req_id, code, str(exc), retry_after=retry)


def _answer(item, interrupt=None) -> Optional[tuple[dict, object]]:
    """A reply slot's header and payload: a finished header as it is, or an
    admitted ``(request, req_id, timeout, out)`` once its ticket resolves —
    its result the payload, or none when it was computed into ``out``, a
    segment region.  The wait runs the service's queue, past passes that
    raise, until ``timeout`` + 1 s after arrival (a batch run here
    overruns it; then ``deadline``); None if ``interrupt()`` stops it."""
    if type(item) is dict:
        return item, None
    req, req_id, timeout, out = item
    ticket, served = req.ticket, True
    bound = None if timeout is None else req.arrival + timeout + 1.0
    while served and not ticket._done:
        with contextlib.suppress(Exception):  # counted; still queued
            served = ticket._service._serve(ticket.done, None if bound is None
                                            else bound - time.monotonic(),
                                            interrupt)
    if served is None:
        return None
    if not served:
        # a batch still running may yet store into out, a region the
        # client's next call reuses: the timed-out header waits for the
        # ticket (every batch resolves it)
        while out is not None and not ticket._done:
            with contextlib.suppress(Exception):
                ticket._service._serve(ticket.done)
        return exception_response(
            req_id, DeadlineExceeded("timed out waiting for result")), None
    if ticket._error is not None:
        return exception_response(req_id, ticket._error), None
    return {"id": req_id, "ok": True}, ticket._result if out is None else None


#: the per-request hints an ``fft`` header may carry; a header with none of
#: them (a routed one, say) skips reading them
_HINTS = frozenset(("timeout", "threads", "mu", "strategy", "no_batch"))

#: a client's segment name, as ``SharedArena`` makes it: prefix, pid, hex
_WIRE_NAME = re.compile(re.escape(WIRE_PREFIX) + r"-[0-9]+-[0-9a-f]+")


class _Segment:
    """A client's shared segment as the shard maps it: opened by its
    ``repro-wire`` name only, with no create flag (the client created it,
    mode 0600), and exactly ``size`` bytes long.  Raises ``ValueError`` or
    ``OSError`` for anything else."""

    def __init__(self, name, size):
        if type(name) is not str or not _WIRE_NAME.fullmatch(name):
            raise ValueError(f"{name!r} is not a {WIRE_PREFIX} segment")
        if type(size) is not int or size < 1:
            raise ValueError(f"size {size!r} is not a positive integer")
        try:
            self._map = attach(name, size, np.uint8, untrack=True)
        except ValueError:  # the segment is smaller
            raise ValueError(f"size {size} is not the segment's") from None
        if self._map.nbytes != size:
            self._map.close()
            raise ValueError(f"size {size} is not the segment's "
                             f"{self._map.nbytes} bytes")
        self.nbytes = size

    def regions(self, msg: dict) -> tuple[np.ndarray, np.ndarray]:
        """A segment frame's request, viewed in place, and the view its
        result is computed into.  ``ValueError`` unless ``shape`` describes
        a region and ``shm`` is two 16-byte-aligned offsets of disjoint
        regions this segment holds."""
        shape, shm = msg.get("shape"), msg["shm"]
        nbytes = described_bytes(shape)
        if nbytes < 0:
            raise ValueError(f"shape {shape!r} describes no region")
        if (type(shm) is not list or len(shm) != 2
                or any(type(at) is not int for at in shm)):
            raise ValueError(f"shm must be two byte offsets, got {shm!r}")
        src, dst = shm
        for at in shm:
            if at < 0 or at % 16:
                raise ValueError(f"region offset {at} is not 16-byte aligned")
            if at + nbytes > self.nbytes:
                raise ValueError(f"region [{at}, {at + nbytes}) runs past "
                                 f"the segment's {self.nbytes} bytes")
        if src < dst + nbytes and dst < src + nbytes:
            raise ValueError(f"regions at {src} and {dst} overlap")
        buf = self._map.array
        x = np.ndarray(shape, WIRE_DTYPE, buf, src)
        return (x.astype(np.complex128, copy=False),
                np.ndarray(shape, WIRE_DTYPE, buf, dst))

    def close(self) -> None:
        """Let go of the mapping without unmapping it: a batch still
        running may be reading a request's region or storing into its
        ``out`` (a client that hung up, or attached a new segment), and
        the views it holds keep the pages mapped until the last one goes.
        A NumPy view pins no buffer export, so an explicit unmap would
        pull the pages out from under it."""
        self._map = None


class _ServerSession(Session):
    """Hold what a burst brings; admit it as one group; answer in request
    order."""

    def __init__(self, conn: FrameConn, service: FFTService):
        super().__init__(conn)
        self.service = service
        self.health, self.stats = service.health, service.stats
        # read and not yet admitted, in request order: a finished reply
        # header (a dict), or an fft's ``(request, req_id, timeout, out)``
        self._held: list = []
        self._held_rows = 0  # read since nothing was owed: the read-ahead
        self._held_reqs: list = []  # the held slots' requests, in order
        # admitted, not yet written, in order: what a wait left to read first
        self._owed: list = []

    def reply(self, item) -> None:
        """Hold ``item`` in its request's slot until the held group is
        admitted: a finished reply header, or an fft's ``(request, req_id,
        timeout, out)``."""
        if not self._held:
            self.conn.before_block(self._admit_held)
        self._held.append(item)

    def dispatch(self, msg: dict, payload: Optional[memoryview],
                 line: bytes) -> None:
        # the fault plan is read once per frame, for every chaos point the
        # frame passes (``fft``'s too)
        fp = self._faults = get_fault_plan()
        if fp.enabled and fp.fired("net.conn_reset"):
            # chaos: hard-reset the connection mid-conversation; clients
            # must reconnect and resend (FFT is idempotent)
            self.conn.abort()
            raise ConnectionAbortedError("injected fault: connection reset")
        Session.dispatch(self, msg, payload, line)

    def attach(self, req_id, msg: dict) -> None:
        """Map the client's shared segment in place of the one before; a
        refused ``attach`` leaves the session as it was."""
        try:
            segment = _Segment(msg.get("name"), msg.get("size"))
        except (OSError, ValueError) as exc:
            self.reply(error_response(req_id, "bad-request",
                                      f"attach refused: {exc}"))
            return
        if self.segment is not None:
            self.segment.close()
        self.segment = segment
        self.reply({"id": req_id, "ok": True})

    def fft(self, req_id, msg: dict, payload: Optional[memoryview],
            line: bytes) -> None:
        """Hold one request in its slot; admit the held group now, and
        wait for all that is owed, if ``queue_limit`` rows were read since
        nothing was owed (else admit before the next blocking read).
        No ``payload``: a segment frame, viewed in place and answered in
        its ``out`` region."""
        fp = self._faults
        if fp.enabled and fp.fired("net.poison_payload"):
            # chaos: this payload is "poisoned" — it must surface as a
            # typed, retryable error, never as a silently wrong answer
            self.reply(error_response(req_id, "internal",
                                      "injected fault: poisoned payload"))
            return
        service = self.service
        timeout = service.config.default_timeout_s
        hinted = not _HINTS.isdisjoint(msg)
        if hinted:
            timeout = msg.get("timeout", timeout)
        out = None
        try:
            if payload is None:
                x, out = self.segment.regions(msg)
            else:
                x = payload_array(msg, payload)
            if hinted:
                req = service.request(
                    x,
                    threads=msg.get("threads"),
                    mu=msg.get("mu"),
                    strategy=msg.get("strategy"),
                    timeout=timeout,
                    no_batch=bool(msg.get("no_batch", False)),
                    out=out,
                )
            else:
                req = service.request(x, timeout=timeout, out=out)
        except Exception as exc:
            self.reply(exception_response(req_id, exc))
            return
        self.reply((req, req_id, timeout, out))
        self._held_reqs.append(req)
        self._held_rows += req.rows
        if self._held_rows >= service.config.queue_limit:
            self.conn.before_block(None)
            self._admit_held(self.conn.idle(), True)

    def _admit_held(self, idle: bool = True, final: bool = False) -> None:
        """Admit the held requests as one group — run here if ``idle``
        (nothing more to read) and the service is idle — and answer what
        is owed in request order, in one flush: each unresolved slot once
        its ticket resolves, what was written before it flushed first.
        The connection's before-block hook while anything is held or
        owed, where a wait stops once bytes wait on the socket and leaves
        the rest owed; ``final`` (at ``queue_limit`` rows read ahead and
        at the end of the connection) waits for all."""
        held, self._held = self._held, []
        reqs, self._held_reqs = self._held_reqs, []
        if reqs:
            try:
                self.service.admit(reqs, idle)
            except Exception as exc:  # a server bug: each request's failure
                for req in reqs:
                    req.ticket = FFTTicket(False, error=exc)
        owed = self._owed
        if held and not owed:
            send, last, i = self.conn.send, held[-1], 0
            for slot in held:
                if type(slot) is dict:
                    send(slot, None, slot is last)
                else:
                    ticket = slot[0].ticket
                    if not ticket._done:
                        break  # the rest waits its turn behind this one
                    # run by this thread, or resolved already: no wait
                    error = ticket._error
                    if error is None:
                        send({"id": slot[1], "ok": True},
                             ticket._result if slot[3] is None else None,
                             slot is last)
                    else:
                        send(exception_response(slot[1], error), None,
                             slot is last)
                i += 1
            else:
                self._held_rows = 0
                return
            held = held[i:]
        owed += held
        interrupt = None if final else self.conn.waiting
        while owed:
            slot = owed[0]
            if type(slot) is not dict and not slot[0].ticket._done:
                self.conn.flush()  # a finished reply never waits on compute
            answer = _answer(slot, interrupt)
            if answer is None:  # bytes to read first
                return self.conn.before_block(self._admit_held)
            del owed[0]
            self.conn.send(*answer, not owed)
        self._held_rows = 0

    def prewarm(self, req_id, msg: dict) -> None:
        """Build one plan here, ahead of traffic (the shard tier's warm-up)."""
        try:
            built = self.service.prewarm(
                msg["n"],
                threads=msg.get("threads"),
                mu=msg.get("mu"),
                strategy=msg.get("strategy"),
            )
        except Exception as exc:
            self.reply(exception_response(req_id, exc))
        else:
            self.reply({"id": req_id, "ok": True, "plan": built})

    def close(self) -> None:
        try:
            # what was read before the connection ended
            self._admit_held(True, True)
        except (OSError, ValueError):
            pass  # the connection is gone, or was closed under us
        if self.segment is not None:
            self.segment.close()


class FFTServer(FrameServer):
    """The framed endpoint bound to one shared :class:`FFTService`."""

    def __init__(self, address: tuple[str, int], service: FFTService):
        # Many small runnable threads (one handler per connection) share
        # the GIL; the default 5 ms switch interval lets one of them hold
        # it for a full request's worth of wall time while the rest
        # starve.  Set it here so every embedder of the server benefits,
        # not just the CLI.
        sys.setswitchinterval(0.0005)
        super().__init__(address)
        self.service = service

    def session(self, conn: FrameConn) -> _ServerSession:
        return _ServerSession(conn, self.service)


def graceful_shutdown(server: FFTServer, service: FFTService,
                      drain_timeout: Optional[float] = 5.0) -> bool:
    """Stop accepting, drain the batcher, then close; True if fully drained.

    The ordered teardown supervised shard children (and ``repro serve``
    itself) run on SIGTERM/SIGINT: ``server.shutdown()`` stops the accept
    loop (connections already open keep their handler threads, so
    admitted requests still get responses), :meth:`FFTService.drain`
    runs the queue until it is empty, and only then does
    :meth:`FFTService.close` stop the worker pools.
    Idempotent: a second call returns immediately.
    """
    server.shutdown()
    drained = service.drain(drain_timeout)
    service.close()
    server.server_close()
    return drained


def install_signal_handlers(
    server: FFTServer,
    service: FFTService,
    signals: tuple = None,
    drain_timeout: Optional[float] = 5.0,
) -> threading.Event:
    """SIGTERM/SIGINT → graceful shutdown; returns the completion event.

    Must run on the main thread (CPython's signal rule).  The handler
    only spawns the shutdown thread — ``shutdown()`` blocks until the
    accept loop exits, which deadlocks if called from the thread running
    ``serve_forever`` — and the returned event is set once the drain and
    close have finished, so a caller's main thread can simply
    ``event.wait()`` after ``serve_background()``.
    """
    import signal as _signal

    if signals is None:
        signals = (_signal.SIGTERM, _signal.SIGINT)
    done = threading.Event()
    started = threading.Event()

    def _run() -> None:
        try:
            graceful_shutdown(server, service, drain_timeout)
        finally:
            done.set()

    def _handler(signum, frame):  # noqa: ARG001 - signal signature
        if started.is_set():
            return
        started.set()
        threading.Thread(
            target=_run, name="fft-serve-shutdown", daemon=True
        ).start()

    for sig in signals:
        _signal.signal(sig, _handler)
    return done
