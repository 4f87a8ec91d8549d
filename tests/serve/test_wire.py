"""The bytes on the wire, and who is allowed to put them there.

``golden_wire.json`` was recorded at the commit before the hop moved into
one module (``serve/protocol.py``): what :class:`ServeClient` sends for an
``fft`` with hints, a ``prewarm`` and a ``ping``, and the header line
:class:`FFTServer` answers each with.  Well-formed traffic must stay
byte-identical across that move.  The import check pins the move itself:
one module under ``serve`` + ``shard`` owns sockets.
"""

import ast
import json
import socket
import threading
from pathlib import Path

import numpy as np

import repro
from repro.serve import FFTServer, FFTService, ServeClient, ServeConfig

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


def _client_requests() -> list[bytes]:
    """Drive a ServeClient against a scripted peer; what the peer read."""
    got: list[bytes] = []

    def peer() -> None:
        conn, _ = lsock.accept()
        with conn, conn.makefile("rb") as rfile:
            for reply in _REPLIES:
                got.append(_read_message(rfile))
                conn.sendall(reply)

    with socket.create_server(("127.0.0.1", 0)) as lsock:
        t = threading.Thread(target=peer, daemon=True)
        t.start()
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
