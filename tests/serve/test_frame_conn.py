"""``FrameConn``'s send half: short writes, interleaving, close.

A large payload leaves by reference in one ``sendmsg`` with whatever is
owed before it; a kernel that takes only part of it must not cost a byte
or reorder one.  The double below scripts how much ``sendmsg`` accepts;
the rest run over loopback.
"""

import io
import socket
import sys
import threading

import numpy as np
import pytest

from repro.serve.protocol import (
    BY_REFERENCE_BYTES,
    FrameConn,
    dump_line,
    payload_array,
    write_frame,
)

X = (np.arange(BY_REFERENCE_BYTES // 16 * 2) * (1.0 - 0.5j)).reshape(2, -1)
SMALL = np.arange(8) * (1.0 + 0.5j)


class _ScriptedSocket:
    """A socket whose ``sendmsg`` accepts a scripted number of bytes (then
    everything); what was put on the wire is ``wire``."""

    def __init__(self, accepts):
        self.accepts = list(accepts)
        self.wire = bytearray()
        self.sendmsg_calls = 0

    def setsockopt(self, *args):
        pass

    def makefile(self, mode):
        return io.BytesIO()

    def sendmsg(self, buffers):
        self.sendmsg_calls += 1
        data = b"".join(bytes(b) for b in buffers)
        n = self.accepts.pop(0) if self.accepts else len(data)
        self.wire += data[:n]
        return min(n, len(data))

    def sendall(self, data):
        self.wire += bytes(data)


def _expected(*frames) -> bytes:
    out = io.BytesIO()
    for msg, arr in frames:
        write_frame(out, msg, arr)
    return out.getvalue()


HEAD = len(_expected(({"id": 2, "ok": True}, X))) - X.nbytes
OWED = len(_expected(({"id": 1, "ok": True}, SMALL)))


@pytest.mark.parametrize("accepted", [
    0, 5, OWED, OWED + 3, OWED + HEAD, OWED + HEAD + 1000,
    OWED + HEAD + X.nbytes - 1, OWED + HEAD + X.nbytes,
], ids=["nothing", "mid-owed", "owed|header", "mid-header",
        "header|payload", "mid-payload", "all-but-a-byte", "everything"])
def test_a_short_sendmsg_loses_and_reorders_nothing(accepted):
    sock = _ScriptedSocket([accepted])
    conn = FrameConn(sock)
    conn.send({"id": 1, "ok": True}, SMALL, flush=False)  # owed, coalesced
    assert sock.wire == b""
    conn.send({"id": 2, "ok": True}, X, flush=False)
    assert sock.sendmsg_calls == 1
    assert bytes(sock.wire) == _expected(
        ({"id": 1, "ok": True}, SMALL), ({"id": 2, "ok": True}, X))
    conn.send({"op": "ping", "id": 3})  # nothing is sent twice
    assert bytes(sock.wire).endswith(
        X.tobytes() + dump_line({"op": "ping", "id": 3}))


def test_small_frames_are_coalesced_until_flushed_or_a_buffer_is_owed():
    sock = _ScriptedSocket([])
    conn = FrameConn(sock)
    frames = [({"id": i, "ok": True}, SMALL) for i in range(4)]
    for msg, arr in frames:
        conn.send(msg, arr, flush=False)
    assert sock.wire == b""
    conn.flush()
    assert bytes(sock.wire) == _expected(*frames)
    conn.flush()  # nothing owed: nothing sent
    assert bytes(sock.wire) == _expected(*frames)
    # deferral is bounded: a socket buffer's worth owed leaves unasked
    just_under = X[0, :X.shape[1] - 64]
    assert just_under.nbytes < BY_REFERENCE_BYTES
    del sock.wire[:]
    conn.send({"id": 5}, just_under, flush=False)
    assert sock.wire == b""
    conn.send({"id": 6}, just_under, flush=False)
    assert bytes(sock.wire) == _expected(({"id": 5}, just_under),
                                         ({"id": 6}, just_under))
    assert sock.sendmsg_calls == 0


@pytest.fixture()
def pair():
    """Two ``FrameConn``s joined over loopback."""
    with socket.create_server(("127.0.0.1", 0)) as lsock:
        near = FrameConn.dial(lsock.getsockname(), 30.0)
        sock, _ = lsock.accept()
    sock.settimeout(30.0)
    far = FrameConn(sock)
    yield near, far
    near.close()
    far.close()


def test_concurrent_senders_never_interleave_frames(pair):
    near, far = pair
    per_thread, errors = 40, []

    def sender(base):
        try:
            for i in range(per_thread):
                ident = base + i
                # alternate the by-reference and the coalesced path
                arr = X if i % 2 else SMALL
                near.send({"id": ident}, arr + ident, flush=i % 3 != 0)
            near.flush()
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sender, args=(base,), daemon=True)
                   for base in (1000, 2000, 3000)]
        for t in threads:
            t.start()
        seen = {}
        for _ in range(len(threads) * per_thread):
            msg, buf, _ = far.recv()
            ident = msg["id"]
            arr = X if (ident % 1000) % 2 else SMALL
            np.testing.assert_array_equal(payload_array(msg, buf),
                                          arr + ident)
            seen.setdefault(ident // 1000, []).append(ident)
        for t in threads:
            t.join(30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    # each sender's frames arrived whole and in its own order
    assert all(ids == sorted(ids) and len(ids) == per_thread
               for ids in seen.values()) and len(seen) == 3


def test_close_delivers_what_a_deferred_flush_owes(pair):
    near, far = pair
    near.send({"id": 1, "ok": True}, SMALL, flush=False)
    near.send({"id": 2, "ok": False, "error": "bad-json"}, flush=False)
    near.close()
    msg, buf, _ = far.recv()
    np.testing.assert_array_equal(payload_array(msg, buf), SMALL)
    assert far.recv()[:2] == ({"id": 2, "ok": False, "error": "bad-json"}, None)
    assert far.recv() is None


@pytest.mark.parametrize("payload", [None, SMALL, X],
                         ids=["header", "coalesced", "by-reference"])
def test_send_on_a_closed_connection_raises_what_the_drain_catches(
        pair, payload):
    near, _ = pair
    near.close()
    with pytest.raises((OSError, ValueError)):
        near.send({"id": 1, "ok": True}, payload)


def test_eof_inside_a_declared_payload_is_a_closed_connection():
    frame = _expected(({"id": 1, "ok": True}, X))
    with socket.create_server(("127.0.0.1", 0)) as lsock:
        conn = FrameConn.dial(lsock.getsockname(), 30.0)
        peer, _ = lsock.accept()
    with peer:
        peer.sendall(frame[:-100])
    try:
        assert conn.recv() is None
    finally:
        conn.close()
