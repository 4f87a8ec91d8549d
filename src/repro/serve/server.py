"""The TCP front end: ``repro serve`` wraps an :class:`FFTService`.

A :class:`FFTServer` is a threading TCP server — one handler thread per
connection speaking the framed protocol of :mod:`repro.serve.protocol`.
Connections are **pipelined**: the read loop submits every incoming
request to the service immediately (it never blocks on a result), and a
per-connection drain thread writes responses back in request order as
their tickets resolve.  A client may therefore keep many requests in
flight on one connection — which is how the service's batching window
fills even from a single client, and how per-request socket and thread
wake-up costs amortize across a burst.  Admission control still applies
at ``submit``: an over-full queue turns into an ``overloaded`` response
in the normal response stream.
"""

from __future__ import annotations

import queue
import socket
import socketserver
import struct
import sys
import threading
from typing import Optional

from ..faults import get_fault_plan
from ..trace import get_tracer
from .protocol import dump_line, error_response, read_frame, write_frame
from .service import DeadlineExceeded, FFTService, Overloaded, ServiceClosed

_SENTINEL = object()

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


def _error_response(req_id, exc: BaseException) -> dict:
    """The wire error for ``exc`` (``overloaded`` carries ``retry_after``)."""
    code = next((c for tp, c in _ERROR_TABLE if isinstance(exc, tp)),
                "internal")
    retry = exc.retry_after if isinstance(exc, Overloaded) else None
    return error_response(req_id, code, str(exc), retry_after=retry)


class _Handler(socketserver.StreamRequestHandler):
    # buffer response writes (header + binary payload leave as one segment,
    # avoiding a Nagle/delayed-ACK stall) and flush once per response
    wbufsize = -1
    disable_nagle_algorithm = True

    def handle(self) -> None:
        tr = get_tracer()
        service: FFTService = self.server.service  # type: ignore[attr-defined]
        # responses in request order: a finished response header (a dict), or
        # a ``(ticket, req_id, timeout)`` whose result the drain waits for
        pending: queue.Queue = queue.Queue()
        reply = pending.put
        drain = threading.Thread(
            target=self._drain, args=(pending,), daemon=True
        )
        drain.start()
        try:
            while True:
                try:
                    frame = read_frame(self.rfile)
                except ValueError as exc:
                    reply(error_response(None, "bad-json", str(exc)))
                    continue
                except OSError:
                    break
                if frame is None:
                    break
                msg, arr = frame
                req_id = msg.get("id")
                op = msg.get("op", "fft")
                tr.count("serve.net_requests", 1, op=op)
                fp = get_fault_plan()
                if fp.enabled and fp.fired("net.conn_reset"):
                    # chaos: hard-reset the connection mid-conversation;
                    # clients must reconnect and resend (FFT is idempotent)
                    self._reset_connection()
                    break
                if op == "ping":
                    reply({"id": req_id, "ok": True, "pong": True})
                elif op == "stats":
                    reply({"id": req_id, "ok": True,
                           "stats": service.stats()})
                elif op == "health":
                    reply({"id": req_id, "ok": True,
                           "health": service.health()})
                elif op == "prewarm":
                    reply(self._prewarm(service, req_id, msg))
                elif op == "fft":
                    reply(self._submit_fft(service, req_id, msg, arr))
                else:
                    reply(error_response(req_id, "bad-request",
                                         f"unknown op {op!r}"))
        finally:
            pending.put(_SENTINEL)
            drain.join(timeout=60)

    @staticmethod
    def _prewarm(service: FFTService, req_id, msg: dict) -> dict:
        """Build one plan ahead of traffic (the shard tier's warm-up op)."""
        try:
            n = int(msg["n"])
        except (KeyError, TypeError, ValueError):
            return error_response(req_id, "bad-request",
                                  "prewarm needs an integer 'n'")
        try:
            built = service.prewarm(
                n,
                threads=msg.get("threads"),
                mu=msg.get("mu"),
                strategy=msg.get("strategy"),
            )
        except Exception as exc:
            return _error_response(req_id, exc)
        return {"id": req_id, "ok": True, "plan": built}

    def _reset_connection(self) -> None:
        """Abort the TCP connection (RST, not FIN) — the chaos reset."""
        try:
            self.connection.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        except OSError:
            pass
        try:
            self.connection.close()
        except OSError:
            pass

    @staticmethod
    def _submit_fft(service: FFTService, req_id, msg: dict, arr):
        """Admit one fft request: an error header, or the ticket to drain."""
        fp = get_fault_plan()
        if fp.enabled and fp.fired("net.poison_payload"):
            # chaos: this payload is "poisoned" — it must surface as a
            # typed, retryable error, never as a silently wrong answer
            return error_response(req_id, "internal",
                                  "injected fault: poisoned payload")
        if arr is None:
            return error_response(
                req_id, "bad-request",
                "fft needs a binary payload ('shape' + 'nbytes' header)")
        timeout = msg.get("timeout", service.config.default_timeout_s)
        try:
            ticket = service.submit(
                arr,
                threads=msg.get("threads"),
                mu=msg.get("mu"),
                strategy=msg.get("strategy"),
                timeout=timeout,
                no_batch=bool(msg.get("no_batch", False)),
            )
        except Exception as exc:
            return _error_response(req_id, exc)
        return ticket, req_id, timeout

    def _drain(self, pending: queue.Queue) -> None:
        """Write responses in request order as results become available.

        The flush is deferred while more work is already queued, so the
        responses to a pipelined burst leave in one flush (one syscall,
        one TCP segment train) instead of one flush per response.
        """
        while True:
            item = pending.get()
            if item is _SENTINEL:
                return
            try:
                if isinstance(item, dict):
                    self.wfile.write(dump_line(item))
                else:
                    ticket, req_id, timeout = item
                    wait = None if timeout is None else timeout + 1.0
                    try:
                        y = ticket.result(wait)
                    except Exception as exc:
                        self.wfile.write(
                            dump_line(_error_response(req_id, exc))
                        )
                    else:
                        write_frame(self.wfile, {"id": req_id, "ok": True}, y)
                if pending.empty():
                    self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError, OSError):
                return


class FFTServer(socketserver.ThreadingTCPServer):
    """Threading TCP server bound to one shared :class:`FFTService`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: FFTService):
        # Many small runnable threads (handlers, drains, the dispatcher)
        # share the GIL; the default 5 ms switch interval lets one of them
        # hold it for a full request's worth of wall time while the rest
        # starve.  Set it here so every embedder of the server benefits,
        # not just the CLI.
        sys.setswitchinterval(0.0005)
        super().__init__(address, _Handler)
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]

    def serve_background(self) -> threading.Thread:
        """Start ``serve_forever`` on a daemon thread (tests, loadgen)."""
        t = threading.Thread(
            target=self.serve_forever, name="fft-serve-tcp", daemon=True
        )
        t.start()
        return t


def serve(
    host: str = "127.0.0.1",
    port: int = 7373,
    service: Optional[FFTService] = None,
) -> FFTServer:
    """Bind an :class:`FFTServer`; caller runs ``serve_forever()``."""
    return FFTServer((host, port), service or FFTService())


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
