"""The hop: frame format, framed connection and endpoint, each once.

The only module under ``src/repro`` that touches a socket.  :class:`FrameConn`
is what :class:`~repro.serve.client.ServeClient`, the router's upstreams
and every accepted connection hold; :class:`FrameServer`'s one request
loop hands each well-formed frame to a :class:`Session`, the one op ladder,
and ``FFTServer`` / ``ShardRouter`` only say which session a connection
gets (``docs/serving.md`` §4).

Every endpoint listens on TCP and, on Linux, on a Unix socket in the
abstract namespace named after its bound TCP address (:func:`local_name`;
no file to clean up).  A dial tries its resolved addresses in order, and
for a loopback one first connects to that address's name, so a same-host
frame never crosses the TCP stack and not one byte is sent to learn
where to go.  An abstract name carries no permission, so the dial keeps
a Unix connection only when the listener's process runs as this
process's user (``SO_PEERCRED``); an endpoint bound to the wildcard
address takes its loopback address's name.  A name nobody listens on (an
older server, a raw socket, another host behind a forwarded port) or one
another user holds means TCP, and the other user's process is sent
nothing.  An endpoint that cannot bind its name does not start, as one
whose port is taken does not.  A connection's timeout is the kernel's
(``SO_RCVTIMEO`` / ``SO_SNDTIMEO`` on a blocking socket), not a ``poll``
before every call.

Every message is one JSON header line.  An array payload travels in one
of two forms.  The **binary frame**: the header carries ``"shape"`` and
``"nbytes"`` and exactly ``nbytes`` of raw little-endian ``complex128``
bytes follow the newline (no base64 expansion, no JSON string escaping).
The **segment frame**, same host only: a client whose peer is on this host
(a Unix socket or a loopback address) offers the connection one
shared-memory segment (``attach``), and
an ``fft`` payload of :data:`BY_REFERENCE_BYTES` or more is written into
it; the header carries ``"shape"`` and ``"shm": [in, out]`` (byte offsets
of the request's region and of the one its reply is written into) and no
payload follows — nor does one follow the reply.  An endpoint that maps
no segment (the router) refuses ``attach``, and its clients keep sending
binary frames.  An ``fft`` request with neither is a ``bad-request``.

Request ops::

    {"op": "fft", "id": 1, "shape": [b, n], "nbytes": 16384,
     "threads": 2, "mu": 4, "timeout": 1.0, "no_batch": false}\\n<raw bytes>
    {"op": "stats", "id": 2}
    {"op": "ping", "id": 3}
    {"op": "health", "id": 4}
    {"op": "prewarm", "id": 5, "n": 4096, "threads": 2, "mu": 4}
    {"op": "attach", "id": 6, "name": "repro-wire-...", "size": 2097152}
    {"op": "fft", "id": 7, "shape": [4, 16384], "shm": [0, 1048576]}

Responses echo ``id`` and carry ``ok``; failures carry ``error`` (a stable
code from :data:`ERROR_CODES`) plus a human ``detail``, and ``overloaded``
adds ``retry_after`` seconds.  ``deadline`` is *typed*: a request whose
deadline passes while queued fails with it at expiry time.  ``internal``
marks transient server-side trouble (a broken worker pool, an injected
fault) and is safe to retry; ``bad-request``/``deadline``/``closed`` are
not.  The ``health`` op returns the service's liveness snapshot — queue
depth, per-pool status, degradation and fault counters.

A malformed frame gets one typed reply, never an exception out of the
loop.  ``bad-json`` — the line is not a JSON object, or ``nbytes`` is not
an integer in ``[0, MAX_PAYLOAD_BYTES]`` — means the stream is out of
step: the connection closes after the reply.  ``bad-request`` under the
request's own ``id`` — ``shape`` does not describe ``nbytes``, a segment
region the attached segment does not hold, an ``attach`` refused — means
the frame was consumed and the next frame is served.

Flush policy: a send flushes unless its caller knows another follows at
once — ``fft_pipeline`` flushes after a burst's last request, and the
server flushes a held group's replies once, after the last (and before
it waits on an unresolved one); every other send flushes.  A binary
payload is never copied in user space: see :data:`BY_REFERENCE_BYTES`
and :func:`_read_frame_raw`.  A segment payload crosses no socket: the
client copies it in and the result out, and the shard computes the
result into the reply's region (a lone request's whole-plan call stores
it there; a request batched with others gets its rows copied in).  A
relay encodes nothing: it sends the header line and payload buffer
``recv()`` returned (:func:`frame_buffers`).
"""

from __future__ import annotations

import functools
import io
import ipaddress
import json
import os
import select
import socket
import socketserver
import struct
import sys
import threading
from typing import Optional

import numpy as np

from ..trace import get_tracer

#: wire dtype for array payloads, and its size in bytes
WIRE_DTYPE = "<c16"
_WIRE, _ITEM_BYTES = np.dtype(WIRE_DTYPE), 16

#: every stable error code a response can carry; ``RETRYABLE_CODES`` are
#: the ones a client may safely resend after backing off
ERROR_CODES = (
    "overloaded", "deadline", "closed", "bad-request", "bad-json", "internal",
)
RETRYABLE_CODES = ("overloaded", "internal")

#: refuse binary payloads beyond this (corrupt header / abuse guard)
MAX_PAYLOAD_BYTES = 1 << 28

#: one socket buffer's worth: a payload at least this large leaves by
#: reference in one ``sendmsg``, anything smaller is coalesced by copy (1.3 µs
#: of list handling per small frame is 5 % of a routed n=64 request), and a
#: deferred flush stops deferring once this much is owed
BY_REFERENCE_BYTES = 1 << 16

#: the name prefix of a connection's shared segment: a shard attaches no
#: other name
WIRE_PREFIX = "repro-wire"

#: the abstract socket namespace is Linux's: elsewhere every hop is TCP
_ABSTRACT = sys.platform.startswith("linux")


def local_name(address: tuple) -> str:
    """The abstract Unix name of the endpoint bound to the TCP ``address``
    (an IP address and a port), without the leading NUL."""
    return f"repro-local-{address[0]}-{address[1]}"


def _dial_local(sockaddr: tuple, limit: Optional[float]
                ) -> Optional[socket.socket]:
    """A Unix connection to the listener under ``sockaddr``'s
    :func:`local_name`, when one listens there and its process runs as
    this process's user; None otherwise (nothing was sent)."""
    unix = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        unix.settimeout(limit)
        unix.connect("\0" + local_name(sockaddr))
        _, uid, _ = struct.unpack("3i", unix.getsockopt(
            socket.SOL_SOCKET, socket.SO_PEERCRED, struct.calcsize("3i")))
        if uid == os.geteuid():
            return unix
    except OSError:
        pass
    unix.close()
    return None


def _connect(address: tuple, limit: Optional[float]) -> socket.socket:
    """``socket.create_connection(address, limit)``, except that a
    loopback address is first tried on its endpoint's Unix listener
    (:func:`_dial_local`).  The host is resolved once."""
    error: Optional[OSError] = None
    for family, kind, proto, _, sockaddr in socket.getaddrinfo(
            address[0], address[1], type=socket.SOCK_STREAM):
        if _ABSTRACT and ipaddress.ip_address(sockaddr[0]).is_loopback:
            unix = _dial_local(sockaddr, limit)
            if unix is not None:
                return unix
        sock = socket.socket(family, kind, proto)
        try:
            sock.settimeout(limit)
            sock.connect(sockaddr)
            return sock
        except OSError as exc:
            sock.close()
            error = exc
    raise error or OSError(f"{address[0]!r} resolves to no address")


def error_response(req_id, code: str, detail: str,
                   retry_after: Optional[float] = None) -> dict:
    resp = {"id": req_id, "ok": False, "error": code, "detail": detail}
    if retry_after is not None:
        resp["retry_after"] = retry_after
    return resp


class FrameError(ValueError):
    """A malformed frame, carrying the typed reply it earns.  ``fatal``
    (every ``bad-json``): the stream is out of step — answer, then close.
    Otherwise the frame was consumed whole and the connection reads on."""

    def __init__(self, code: str, detail: str, req_id=None):
        super().__init__(detail)
        self.response = error_response(req_id, code, detail)
        self.fatal = code == "bad-json"


def _line_chunks(c_make_encoder):
    """``msg, level -> chunks`` that join to ``json.dumps(msg, separators=
    (",", ":"))``, its encoder built once, here.  ``JSONEncoder.encode``
    builds a C encoder and a float closure on every call (2.6 µs a header
    line against 1.6).  No ``markers`` dict: one shared by every thread would
    not be thread-safe, and a wire message is never circular.  Without the
    C accelerator (``c_make_encoder is None``) it is ``encode`` itself."""
    compact = json.JSONEncoder(separators=(",", ":"))
    if c_make_encoder is None:
        return lambda msg, _level: (compact.encode(msg),)
    return c_make_encoder(
        None, compact.default, json.encoder.encode_basestring_ascii, None,
        compact.key_separator, compact.item_separator, compact.sort_keys,
        compact.skipkeys, compact.allow_nan)


_chunks = _line_chunks(json.encoder.c_make_encoder)
#: the one header parser: ``raw_decode`` skips the two whitespace regex
#: scans ``json.loads`` wraps around the C scanner (2.5 µs against 1.5)
_raw_decode = json.JSONDecoder().raw_decode


def dump_line(msg: dict) -> bytes:
    """One wire line: compact JSON plus the newline terminator."""
    return "".join(_chunks(msg, 0)).encode("utf-8") + b"\n"


def frame_buffers(msg, arr=None) -> list:
    """One message as what goes on the wire, uncopied: the header line, then
    the payload if there is one.  An array ``arr`` travels as raw
    :data:`WIRE_DTYPE` bytes, the header gaining the ``shape`` / ``nbytes``
    that describe it (a view of a C-contiguous ``complex128`` array;
    anything else pays its one conversion).  A relay passes what it
    received: ``msg`` as the ``bytes`` header line and ``arr`` as the
    ``memoryview`` payload it describes; both go out untouched."""
    if arr is None or type(arr) is memoryview:
        line = msg if type(msg) is bytes else dump_line(msg)
        return [line] if arr is None else [line, arr]
    arr = np.ascontiguousarray(arr, dtype=_WIRE)
    head = dict(msg)
    head["shape"] = list(arr.shape)
    head["nbytes"] = arr.nbytes
    return [dump_line(head), memoryview(arr)]


def write_frame(wfile, msg: dict, arr=None) -> None:
    """Write one message (see :func:`frame_buffers`) to any file object."""
    for buf in frame_buffers(msg, arr):
        wfile.write(buf)


def _read_frame_raw(rfile) -> Optional[
        tuple[dict, Optional[memoryview], bytes]]:
    """Read and validate one message: ``(header, payload-buffer-or-None,
    header line)``, the line exactly as read — all a relay needs to forward
    the frame without encoding it again.  The payload is read straight into
    a writable buffer of its own (per frame, not per connection: a pipeline
    has many alive and the router keeps them for replay).  ``None`` is a
    closed connection (EOF, also in the middle of a declared payload); a
    malformed frame raises :class:`FrameError`."""
    while True:
        line = rfile.readline()
        if not line:
            return None
        head = line.strip()
        if head:
            break
    try:
        text = head.decode("utf-8")
        msg, end = _raw_decode(text)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise FrameError("bad-json", f"header is not JSON: {exc}") from None
    if end != len(text):  # something follows the value on the line
        raise FrameError("bad-json", f"header is not JSON: extra data at "
                                     f"char {end}")
    if type(msg) is not dict:
        raise FrameError("bad-json", "wire messages must be JSON objects")
    nbytes = msg.get("nbytes")
    if nbytes is None:
        return msg, None, line
    if type(nbytes) is not int or not 0 <= nbytes <= MAX_PAYLOAD_BYTES:
        raise FrameError("bad-json", f"unreasonable payload size {nbytes!r}",
                         msg.get("id"))
    buf = memoryview(np.empty(nbytes, np.uint8))
    if rfile.readinto(buf) != nbytes:
        return None
    shape = msg.get("shape")
    if described_bytes(shape) != nbytes:
        raise FrameError(
            "bad-request",
            f"shape {shape!r} does not describe {nbytes} payload bytes",
            msg.get("id"),
        )
    return msg, buf, line


def described_bytes(shape) -> int:
    """The payload bytes ``shape`` describes; -1 when it describes none
    (not a non-empty list of non-negative integers)."""
    if type(shape) is not list or not shape:
        return -1
    described = _ITEM_BYTES
    for dim in shape:
        if type(dim) is not int or dim < 0:
            return -1
        described *= dim
    return described


def payload_array(msg: dict, buf: memoryview) -> np.ndarray:
    """A validated frame's payload, viewed in place (and writable) as the
    array its header names."""
    # <c16 is complex128 on little-endian hosts, so this is usually a view
    return np.ndarray(msg["shape"], _WIRE, buf).astype(np.complex128,
                                                       copy=False)


def read_frame(rfile) -> Optional[tuple[dict, Optional[np.ndarray]]]:
    """Read one message, the payload viewed as a complex array."""
    frame = _read_frame_raw(rfile)
    if frame is None:
        return None
    msg, buf, _ = frame
    return msg, None if buf is None else payload_array(msg, buf)


def _timeval(seconds: float) -> bytes:
    """``seconds`` as the ``struct timeval`` ``SO_RCVTIMEO`` takes, at
    least a microsecond (zero would mean no timeout)."""
    usec = max(1, round(seconds * 1e6))
    return struct.pack("ll", *divmod(usec, 1_000_000))


class _SocketReader(io.RawIOBase):
    """What a connection's buffered reader fills from: ``recv_into`` the
    socket, as ``socket.makefile("rb")``'s raw stream does (a read timeout
    — the kernel's ``EAGAIN`` or Python's own — raises ``TimeoutError``
    and leaves the stream out of step, so every later read raises),
    except that while ``held`` is set a fill returns "nothing yet" instead
    of blocking, and that a fill about to wait on an empty socket first
    calls ``before_block`` (once: it is cleared as it is called)."""

    def __init__(self, sock):
        super().__init__()
        self._sock = sock
        self._timed_out = False
        self._poll = None  # the socket's poll object, made on first use
        self.held = False
        self.before_block = None

    def readable(self) -> bool:
        return True

    def waiting(self) -> bool:
        """Bytes (or a hang-up) are readable on the socket now."""
        if self._poll is None:
            self._poll = select.poll()
            self._poll.register(self._sock, select.POLLIN)
        return bool(self._poll.poll(0))

    def readinto(self, b):
        if self.held:
            return None
        if self._timed_out:
            raise OSError("cannot read from timed out object")
        hook = self.before_block
        if hook is not None and not self.waiting():
            self.before_block = None
            hook()
        try:
            return self._sock.recv_into(b)
        except (TimeoutError, BlockingIOError):
            self._timed_out = True
            raise TimeoutError("timed out") from None


class FrameConn:
    """One framed connection, TCP or Unix: the only owner of a socket.

    ``recv()`` is :func:`_read_frame_raw` on the connection, and raises
    :class:`OSError` when it breaks.  ``send`` may be called from several
    threads; on a connection closed under it, it raises :class:`OSError`
    or :class:`ValueError`.
    """

    def __init__(self, sock: socket.socket):
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # a Unix socket: there is no Nagle to turn off
            pass
        self._sock = sock
        self._raw = _SocketReader(sock)
        self._rfile = io.BufferedReader(self._raw)
        # headers, small payloads and whatever a deferred flush still owes
        self._out = bytearray()
        self._wlock = threading.Lock()
        self.recv = functools.partial(_read_frame_raw, self._rfile)
        #: ``waiting()``: bytes (or a hang-up) wait on the socket now
        self.waiting = self._raw.waiting

    @classmethod
    def dial(cls, address: tuple[str, int], timeout: Optional[float] = None,
             connect_timeout: Optional[float] = None) -> "FrameConn":
        """Connect: to the endpoint's Unix listener when ``address`` is on
        this host and it has one that runs as this user (:func:`_connect`),
        else over TCP.  ``timeout`` bounds every later read and each send
        system call (``None`` blocks: an idle peer is not a dead one),
        enforced by the kernel on a blocking socket — so a send times out
        after ``timeout`` without progress, and a peer that keeps draining
        keeps a large send going past it; ``connect_timeout`` bounds only
        the connect and defaults to ``timeout``."""
        limit = timeout if connect_timeout is None else connect_timeout
        sock = _connect(address, limit)
        sock.settimeout(None)
        if timeout is not None:
            tv = _timeval(timeout)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, tv)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, tv)
        return cls(sock)

    def send_room(self) -> int:
        """What sends may leave with while the peer reads nothing, without
        waiting on it: half the socket's send buffer (the kernel charges
        its own bookkeeping to the buffer, and a TCP one only grows)."""
        return self._sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF) // 2

    def loopback(self) -> bool:
        """The peer is on this host — a Unix socket, or a loopback
        address — so a shared segment can carry what would otherwise
        cross the socket."""
        if self._sock.family == socket.AF_UNIX:
            return True
        try:
            host = self._sock.getpeername()[0]
            return ipaddress.ip_address(host).is_loopback
        except (OSError, ValueError):
            return False

    def send(self, msg, payload=None, flush: bool = True) -> None:
        """Write one frame (see :func:`frame_buffers`): coalesced by copy
        into the out-buffer, which leaves on ``flush`` — or by reference,
        in one ``sendmsg`` with everything owed before it."""
        bufs = frame_buffers(msg, payload)
        with self._wlock:
            out, sock = self._out, self._sock
            out += bufs[0]
            try:
                if payload is not None:
                    body = bufs[1]  # in the array's own items: nbytes
                    if body.nbytes >= BY_REFERENCE_BYTES:
                        owed = len(out)
                        sent = sock.sendmsg((out, body))
                        if sent < owed:  # a short write: finish each part
                            sock.sendall(out[sent:])
                            sent = owed
                        if sent < owed + body.nbytes:
                            rest = np.frombuffer(body, np.uint8)[sent - owed:]
                            sock.sendall(rest)
                        out.clear()
                        return
                    out += body
                if flush or len(out) >= BY_REFERENCE_BYTES:
                    sock.sendall(out)
                    out.clear()
            except BlockingIOError:  # the kernel's send timeout
                raise TimeoutError("timed out") from None

    def idle(self) -> bool:
        """True when nothing has arrived that ``recv()`` has not returned:
        the reader holds no bytes and none wait on the socket.  Never
        blocks; a hang-up reads as not idle (``recv()`` reports it).  Call
        it from the thread that calls ``recv()``."""
        self._raw.held = True  # a fill asked for now means the reader is empty
        try:
            if self._rfile.peek(1):
                return False
        finally:
            self._raw.held = False
        return not self._raw.waiting()

    def before_block(self, hook) -> None:
        """Have ``recv()`` call ``hook()`` once, when it is next about to
        wait on the socket with everything received already returned or
        part of the frame it is reading (``None`` cancels).  Set and run
        on the thread that calls ``recv()``; ``hook`` must not read."""
        self._raw.before_block = hook

    def flush(self) -> None:
        """Send what deferred flushes still owe."""
        with self._wlock:
            if self._out:
                try:
                    self._sock.sendall(self._out)
                except BlockingIOError:  # the kernel's send timeout
                    raise TimeoutError("timed out") from None
                self._out.clear()

    def sever(self) -> None:
        """Stop both directions now, sending nothing more: a thread
        blocked in ``recv()`` reads EOF and one blocked in ``send`` fails
        at once.  :meth:`close` still releases the socket."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def abort(self) -> None:
        """Make the coming :meth:`close` a hard reset (RST, not FIN): the
        ``net.conn_reset`` chaos point."""
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                              struct.pack("ii", 1, 0))

    def close(self) -> None:
        # a thread blocked in recv() holds the reader's lock, so closing
        # the reader would wait for the peer to speak: wake it (EOF) first
        wake = functools.partial(self._sock.shutdown, socket.SHUT_RD)
        for step in (self.flush, wake, self._rfile.close, self._sock.close):
            try:
                step()
            except OSError:
                pass


class Session:
    """What an accepted connection does with its frames: the op ladder.
    An endpoint's subclass adds what differs there — how a reply reaches
    the client (``reply``), what ``fft``, ``prewarm``, ``health`` and
    ``stats`` mean, whether it maps a shared segment (``attach``), and
    what ``close`` releases."""

    #: what ``ping`` reports beside ``pong``
    ping_extra: dict = {}
    #: trace counter bumped once per request, labelled with its op
    counter = "serve.net_requests"
    #: the connection's attached shared segment; an ``fft`` frame may name
    #: its payload by region (``shm``) only once one is
    segment = None

    def __init__(self, conn: FrameConn):
        self.conn = conn
        self._tracer = get_tracer()

    def dispatch(self, msg: dict, payload: Optional[memoryview],
                 line: bytes) -> None:
        """Answer, or start answering, one well-formed frame (``recv()``'s
        three parts; ``fft`` gets the header line a relay forwards)."""
        op = msg.get("op", "fft")
        req_id = msg.get("id")
        if self._tracer.enabled:
            self._tracer.count(self.counter, 1, op=op)
        if op == "fft":
            if payload is not None or (self.segment is not None
                                       and "shm" in msg):
                self.fft(req_id, msg, payload, line)
            elif "shm" in msg:
                self.reply(error_response(
                    req_id, "bad-request",
                    "an 'shm' frame needs an attached segment"))
            else:
                self.reply(error_response(
                    req_id, "bad-request",
                    "fft needs a binary payload ('shape' + 'nbytes' header)"))
        elif op == "attach":
            self.attach(req_id, msg)
        elif op == "ping":
            self.reply({"id": req_id, "ok": True, "pong": True,
                        **self.ping_extra})
        elif op == "health":
            self.reply({"id": req_id, "ok": True, "health": self.health()})
        elif op == "stats":
            self.reply({"id": req_id, "ok": True, "stats": self.stats()})
        elif op == "prewarm":
            if type(msg.get("n")) is int:
                self.prewarm(req_id, msg)
            else:
                self.reply(error_response(req_id, "bad-request",
                                          "prewarm needs an integer 'n'"))
        else:
            self.reply(error_response(req_id, "bad-request",
                                      f"unknown op {op!r}"))

    def attach(self, req_id, msg: dict) -> None:
        """Map the client's shared segment.  Here: refused — an endpoint
        that relays frames keeps them as bytes."""
        self.reply(error_response(req_id, "bad-request",
                                  "this endpoint maps no shared segment"))


class _FrameHandler(socketserver.BaseRequestHandler):
    """The one request loop: recv → typed reply or ``session.dispatch``."""

    def handle(self) -> None:
        conn = FrameConn(self.request)
        session = self.server.session(conn)
        recv, dispatch = conn.recv, session.dispatch
        try:
            while True:
                try:
                    frame = recv()
                except FrameError as exc:
                    session.reply(exc.response)
                    if exc.fatal:
                        break
                    continue
                if frame is None:
                    break
                try:
                    dispatch(*frame)
                except OSError:
                    raise
                except Exception as exc:  # a server bug is one request's
                    # typed failure, not a dead connection
                    session.reply(error_response(
                        frame[0].get("id"), "internal", repr(exc)))
        except OSError:
            pass  # the peer reset, or the connection was aborted under us
        finally:
            session.close()
            conn.close()


class FrameServer(socketserver.ThreadingTCPServer):
    """A threading endpoint: one thread per accepted connection runs the
    one request loop on the :class:`Session` a subclass's
    ``session(conn)`` returns.  It listens on TCP and, on Linux, on a
    Unix socket under :attr:`local_name` in the abstract namespace; one
    accept loop serves both (:meth:`fileno` is an epoll set of the two).
    A name already taken raises ``OSError``, as a taken port does."""

    allow_reuse_address = True
    daemon_threads = True
    #: the Unix listener's abstract name (None: TCP only), the listener,
    #: and the epoll set of both listeners
    local_name: Optional[str] = None
    _unix = _ready = None

    def __init__(self, address: tuple[str, int]):
        super().__init__(address, _FrameHandler)
        if _ABSTRACT:
            try:
                self._listen_local()
            except BaseException:
                self.server_close()
                raise

    def _listen_local(self) -> None:
        """Bind the Unix listener under the bound TCP address's name (a
        wildcard's under 127.0.0.1's, the name a same-host dial tries)."""
        host, port = self.server_address
        if ipaddress.ip_address(host).is_unspecified:
            host = "127.0.0.1"
        name = local_name((host, port))
        self._unix = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._unix.bind("\0" + name)
        self._unix.listen(self.request_queue_size)
        self._ready = select.epoll()
        self._ready.register(self.socket, select.EPOLLIN)
        self._ready.register(self._unix, select.EPOLLIN)
        self.local_name = name

    @property
    def port(self) -> int:
        return self.server_address[1]

    def fileno(self) -> int:
        """What the accept loop waits on: the epoll set of both listeners
        (readable when either is), or the TCP one alone."""
        if self._ready is None:
            return self.socket.fileno()
        return self._ready.fileno()

    def get_request(self):
        """Accept on a listener that is ready (``OSError`` when none is:
        the accept loop waits again)."""
        if self._ready is None:
            return self.socket.accept()
        for fd, _ in self._ready.poll(0, 1):
            unix = fd == self._unix.fileno()
            return (self._unix if unix else self.socket).accept()
        raise BlockingIOError("no listener is ready")

    def server_close(self) -> None:
        super().server_close()
        for listener in (self._ready, self._unix):
            if listener is not None:
                listener.close()

    def serve_forever(self, poll_interval: float = 0.05) -> None:
        """``shutdown()`` returns at the loop's next poll: 50 ms here, not
        the stdlib's 0.5 s a fleet's SIGTERM then paid per endpoint."""
        super().serve_forever(poll_interval)

    def serve_background(self) -> threading.Thread:
        """Start ``serve_forever`` on a daemon thread (tests, loadgen)."""
        t = threading.Thread(
            target=self.serve_forever, name=f"{type(self).__name__}-tcp",
            daemon=True,
        )
        t.start()
        return t
