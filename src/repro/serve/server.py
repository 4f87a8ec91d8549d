"""The TCP front end: ``repro serve`` wraps an :class:`FFTService`.

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
"""

from __future__ import annotations

import queue
import sys
import threading
from typing import Optional

from ..faults import get_fault_plan
from .protocol import FrameConn, FrameServer, Session, error_response, \
    payload_array
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
    admitted ``(request, req_id, timeout)`` once its ticket resolves."""
    if type(item) is dict:
        return item, None
    req, req_id, timeout = item
    try:
        y = req.ticket.result(None if timeout is None else timeout + 1.0)
    except Exception as exc:
        return exception_response(req_id, exc), None
    return {"id": req_id, "ok": True}, y


class _ServerSession(Session):
    """Hold what a burst brings; admit it as one group; answer in request
    order."""

    def __init__(self, conn: FrameConn, service: FFTService):
        super().__init__(conn)
        self.service = service
        self.health, self.stats = service.health, service.stats
        # read and not yet admitted, in request order: a finished reply
        # header (a dict), or an fft's ``(request, req_id, timeout)``
        self._held: list = []
        self._held_rows = 0
        # replies the drain writes in request order: the same slots, each
        # fft's admitted, its ticket's result waited for
        self._pending: queue.Queue = queue.Queue()
        self._drainer = threading.Thread(target=self._drain, daemon=True)
        self._drainer.start()

    def reply(self, item) -> None:
        """Hold ``item`` in its request's slot until the held group is
        admitted: a finished reply header, or an fft's ``(request, req_id,
        timeout)``."""
        if not self._held:
            self.conn.before_block(self._admit_held)
        self._held.append(item)

    def dispatch(self, msg: dict, payload: Optional[memoryview],
                 line: bytes) -> None:
        fp = get_fault_plan()
        if fp.enabled and fp.fired("net.conn_reset"):
            # chaos: hard-reset the connection mid-conversation; clients
            # must reconnect and resend (FFT is idempotent)
            self.conn.abort()
            raise ConnectionAbortedError("injected fault: connection reset")
        Session.dispatch(self, msg, payload, line)

    def fft(self, req_id, msg: dict, payload: memoryview, line: bytes) -> None:
        """Hold one request in its slot; admit the held group now if it
        reached ``queue_limit`` rows (else before the next blocking read)."""
        fp = get_fault_plan()
        if fp.enabled and fp.fired("net.poison_payload"):
            # chaos: this payload is "poisoned" — it must surface as a
            # typed, retryable error, never as a silently wrong answer
            self.reply(error_response(req_id, "internal",
                                      "injected fault: poisoned payload"))
            return
        service = self.service
        timeout = msg.get("timeout", service.config.default_timeout_s)
        try:
            req = service.request(
                payload_array(msg, payload),
                threads=msg.get("threads"),
                mu=msg.get("mu"),
                strategy=msg.get("strategy"),
                timeout=timeout,
                no_batch=bool(msg.get("no_batch", False)),
            )
        except Exception as exc:
            self.reply(exception_response(req_id, exc))
            return
        self.reply((req, req_id, timeout))
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
        reqs = [slot[0] for slot in held if type(slot) is not dict]
        if reqs:
            try:
                self.service.admit(reqs, idle)
            except Exception as exc:  # a server bug: each request's failure
                for req in reqs:
                    req.ticket = FFTTicket.failed(exc)
        # nothing owed: the drain marks a reply done only once written, and
        # this thread is the only one that queues replies
        direct = not self._pending.unfinished_tasks
        send, put, last = self.conn.send, self._pending.put, len(held) - 1
        for i, slot in enumerate(held):
            if direct and (type(slot) is dict or slot[0].ticket.done()):
                send(*_answer(slot), i == last)
                continue
            if direct and i:  # what was written here leaves before the drain
                self.conn.flush()
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
