"""The bytes on the wire, and who is allowed to put them there.

``golden_wire.json`` was recorded at the commit before the hop moved into
one module (``serve/protocol.py``): what :class:`ServeClient` sends for an
``fft`` with hints, a ``prewarm`` and a ``ping``, and the header line
:class:`FFTServer` answers each with.  Well-formed traffic must stay
byte-identical across that move, and a :class:`ShardRouter` relays an
``fft`` and its reply byte for byte, encoding nothing.  The import check
pins the move itself: one module under ``serve`` + ``shard`` owns sockets.
"""

import ast
import json
import socket
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro
from repro.serve import FFTServer, FFTService, ServeClient, ServeConfig
from repro.serve import protocol
from repro.shard import ShardRouter

GOLDEN = Path(__file__).with_name("golden_wire.json")

X = np.arange(8) * (1.0 + 0.5j)

#: what the scripted peer answers, in order: fft, prewarm, ping
_REPLIES = (
    b'{"id":1,"ok":true,"shape":[8],"nbytes":128}\n' + bytes(128),
    b'{"id":2,"ok":true,"plan":{}}\n',
    b'{"id":3,"ok":true,"pong":true}\n',
)


def _read_message(rfile) -> bytes:
    """One header line plus the payload it declares, as raw bytes."""
    line = rfile.readline()
    return line + rfile.read(json.loads(line).get("nbytes", 0))


def _peer(lsock, replies, got: list) -> threading.Thread:
    """A scripted peer on ``lsock``: on the one connection it accepts, read
    a message into ``got`` and answer with the next of ``replies``; then
    wait for the other side to hang up first."""

    def run() -> None:
        conn, _ = lsock.accept()
        with conn, conn.makefile("rb") as rfile:
            for reply in replies:
                got.append(_read_message(rfile))
                conn.sendall(reply)
            rfile.read()

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t


class _OnePeer:
    """As much of a fleet as a router relaying ``fft`` uses: every key
    is owned by one scripted peer."""

    config = ServeConfig()

    def __init__(self, address):
        self._address = address

    def route_key_for(self, n, threads=None, mu=None, strategy=None):
        return str(n)

    def owner(self, key):
        return "peer"

    def address(self, shard_id):
        return self._address


def _client_requests() -> list[bytes]:
    """Drive a ServeClient against a scripted peer; what the peer read."""
    got: list[bytes] = []
    with socket.create_server(("127.0.0.1", 0)) as lsock:
        t = _peer(lsock, _REPLIES, got)
        with ServeClient(*lsock.getsockname()) as client:
            client.fft(X, threads=2, timeout=1.0)
            client.prewarm(64)
            client.ping()
        t.join(5)
    return got


def _server_headers(requests: list[bytes]) -> list[bytes]:
    """Replay raw request bytes at a real FFTServer; its header lines."""
    service = FFTService(ServeConfig())
    srv = FFTServer(("127.0.0.1", 0), service)
    srv.serve_background()
    try:
        with socket.create_connection(("127.0.0.1", srv.port)) as sock, \
                sock.makefile("rb") as rfile:
            heads = []
            for req in requests:
                sock.sendall(req)
                msg = _read_message(rfile)
                heads.append(msg[:msg.index(b"\n") + 1])
            return heads
    finally:
        srv.shutdown()
        srv.server_close()
        service.close()


def capture() -> dict:
    requests = _client_requests()
    return {
        "requests": [r.hex() for r in requests],
        "responses": [h.decode() for h in _server_headers(requests)],
    }


def test_wire_bytes_match_the_golden():
    golden = json.loads(GOLDEN.read_text())
    got = capture()
    assert [bytes.fromhex(r) for r in got["requests"]] == \
        [bytes.fromhex(r) for r in golden["requests"]]
    assert got["responses"] == golden["responses"]


@contextmanager
def _routed(replies, got: list):
    """A ShardRouter in front of a scripted peer answering ``replies``."""
    with socket.create_server(("127.0.0.1", 0)) as lsock:
        peer = _peer(lsock, replies, got)
        router = ShardRouter(("127.0.0.1", 0), _OnePeer(lsock.getsockname()),
                             prewarm=False)
        router.serve_background()
        try:
            yield router
        finally:
            router.close()
            peer.join(5)


def test_the_router_relays_the_golden_fft_byte_for_byte():
    """The golden ``fft`` a ServeClient sends reaches the shard as sent,
    and the shard's reply reaches the client as the shard wrote it."""
    golden = bytes.fromhex(json.loads(GOLDEN.read_text())["requests"][0])
    got: list[bytes] = []
    reply = _REPLIES[0][:-128] + (2 * X).astype("<c16").tobytes()
    with _routed([reply], got) as router, \
            ServeClient("127.0.0.1", router.port) as client:
        y = client.fft(X, threads=2, timeout=1.0)
    assert got == [golden]
    np.testing.assert_array_equal(y, 2 * X)


def test_the_router_relays_lines_as_read_and_encodes_nothing(monkeypatch):
    """A header with non-canonical spacing is relayed exactly as sent, both
    ways, and no line is encoded while an ``fft`` and its reply pass."""
    payload = X.astype("<c16").tobytes()
    request = (b'{ "op": "fft",  "id": 7, "shape": [8], "nbytes": 128 }\r\n'
               + payload)
    reply = b'{"id": 7,  "ok": true, "shape": [8], "nbytes": 128}\n' + payload
    encoded: list = []
    dump_line = protocol.dump_line
    monkeypatch.setattr(protocol, "dump_line",
                        lambda msg: (encoded.append(msg), dump_line(msg))[1])
    got: list[bytes] = []
    with _routed([reply], got) as router, \
            socket.create_connection(("127.0.0.1", router.port)) as sock, \
            sock.makefile("rb") as rfile:
        sock.settimeout(10)
        sock.sendall(request)
        assert _read_message(rfile) == reply
    assert got == [request]
    assert encoded == []


def test_one_module_owns_the_sockets():
    """Exactly one module under serve + shard imports socket(server)."""
    root = Path(repro.__file__).parent
    owners = set()
    for path in [*root.glob("serve/*.py"), *root.glob("shard/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if {n.split(".")[0] for n in names} & {"socket", "socketserver"}:
                owners.add(path.relative_to(root).as_posix())
    assert owners == {"serve/protocol.py"}
