"""The network front end: ``repro serve`` wraps an :class:`FFTService`.

A :class:`FFTServer` is the framed endpoint of :mod:`repro.serve.protocol`
(one handler thread per connection, one request loop, one op ladder);
what is its own is how a request is answered.  Connections are
**pipelined**: the read loop *holds* what a burst brings — ``fft``
requests and finished replies alike, each in its request's slot — for as
long as more of the connection is already received, and admits the held
requests to the service as one group (:meth:`FFTService.admit`: one lock
round) just before it would wait on the socket, at ``queue_limit`` held
rows, or at end of stream.  On an idle service (zero window, nothing
queued or executing) the group runs right there, on the handler thread,
as one batch per plan key, and its replies leave in request order in one
flush: no dispatcher, ticket or drain wake-up.  A group that meets a busy
service or a non-zero window queues instead; the dispatcher batches it
with whatever else is queued and a per-connection drain thread writes
those replies in request order as their tickets resolve.  A client may
keep many requests in flight on one connection either way.  Admission
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
import queue
import re
import sys
import threading
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


def _answer(item) -> tuple[dict, object]:
    """A reply slot's header and payload: a finished header as it is, or an
    admitted ``(request, req_id, timeout, out)`` once its ticket resolves —
    its result the payload, or none when it was computed into ``out``, a
    segment region."""
    if type(item) is dict:
        return item, None
    req, req_id, timeout, out = item
    try:
        y = req.ticket.result(None if timeout is None else timeout + 1.0)
    except Exception as exc:
        if out is not None:
            # a batch still running may yet store into out: the shard's
            # last write to the segment comes before its reply, so the
            # timed-out header waits for the ticket (every batch resolves
            # it) — the client's next call reuses the region
            with contextlib.suppress(Exception):
                req.ticket.result()
        return exception_response(req_id, exc), None
    return {"id": req_id, "ok": True}, (y if out is None else None)


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
        self._held_rows = 0
        self._held_reqs: list = []  # the held slots' requests, in order
        # replies the drain writes in request order: the same slots, each
        # fft's admitted, its ticket's result waited for
        self._pending: queue.Queue = queue.Queue()
        self._drainer = threading.Thread(target=self._drain, daemon=True)
        self._drainer.start()

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
        """Hold one request in its slot; admit the held group now if it
        reached ``queue_limit`` rows (else before the next blocking read).
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
            self._admit_held(self.conn.idle())

    def _admit_held(self, idle: bool = True) -> None:
        """Admit the held requests as one group — run here if ``idle``
        (nothing more to read) and the service is idle — and answer every
        held slot in order: written now, in one flush, while each is
        resolved and nothing earlier is owed; the rest through the drain.
        The connection's before-block hook while anything is held."""
        held, self._held, self._held_rows = self._held, [], 0
        if not held:
            return
        reqs, self._held_reqs = self._held_reqs, []
        if reqs:
            try:
                self.service.admit(reqs, idle)
            except Exception as exc:  # a server bug: each request's failure
                for req in reqs:
                    req.ticket = FFTTicket.failed(exc)
        # nothing owed: the drain marks a reply done only once written, and
        # this thread is the only one that queues replies
        direct = not self._pending.unfinished_tasks
        send, put, first, last = (self.conn.send, self._pending.put,
                                  held[0], held[-1])
        for slot in held:
            if direct:
                if type(slot) is dict:
                    send(slot, None, slot is last)
                    continue
                req, req_id, _, out = slot
                ticket = req.ticket
                if ticket._latch is None:
                    # run by this thread, or refused at admission: resolved,
                    # nothing to wait for, so no ticket protocol
                    error = ticket._error
                    if error is None:
                        send({"id": req_id, "ok": True},
                             ticket._result if out is None else None,
                             slot is last)
                    else:
                        send(exception_response(req_id, error), None,
                             slot is last)
                    continue
                if ticket.done():
                    send(*_answer(slot), slot is last)
                    continue
            if direct and slot is not first:  # what was written here
                self.conn.flush()             # leaves before the drain
            direct = False
            put(slot)

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

    def _drain(self) -> None:
        """Write responses in request order as results become available.

        The flush is deferred while more work is already queued, so the
        responses to a queued burst leave in one write (one syscall, one
        TCP segment train) instead of one per response.  What is queued
        are *unresolved* tickets: before blocking on one, whatever a
        deferred flush owes is sent — a finished response never waits for
        the next request's compute.
        """
        pending = self._pending
        get, empty, done = pending.get, pending.empty, pending.task_done
        send, flush = self.conn.send, self.conn.flush
        owed = False  # an earlier send deferred its flush
        while True:
            item = get()
            if item is None:
                return  # whatever is still owed, the connection's close sends
            try:
                if (owed and type(item) is not dict
                        and not item[0].ticket.done()):
                    flush()
                head, y = _answer(item)
                owed = not empty()
                send(head, y, not owed)
            except (OSError, ValueError):
                return  # the connection is gone, or was closed under us
            done()

    def close(self) -> None:
        try:
            self._admit_held()  # what was read before the connection ended
        except (OSError, ValueError):
            pass  # the connection is gone, or was closed under us
        self._pending.put(None)  # ends the drain once all queued is written
        self._drainer.join(timeout=60)
        if self.segment is not None:
            self.segment.close()


class FFTServer(FrameServer):
    """The framed endpoint bound to one shared :class:`FFTService`."""

    def __init__(self, address: tuple[str, int], service: FFTService):
        # Many small runnable threads (handlers, drains, the dispatcher)
        # share the GIL; the default 5 ms switch interval lets one of them
        # hold it for a full request's worth of wall time while the rest
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
    waits for the queue to empty, and only then does
    :meth:`FFTService.close` stop the dispatcher and the worker pools.
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
