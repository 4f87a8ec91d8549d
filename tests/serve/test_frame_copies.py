"""The copy budget of a hop, counted not timed.

A payload byte is copied once per side of a hop, by the kernel: ``send``
puts the caller's array on the socket by reference, ``recv`` reads into
the one buffer the frame owns, and every array view downstream is of that
buffer.  ``tracemalloc`` sees NumPy's data allocations as well as
``bytes``, so "no user-space copy" is an allocation bound: a send may
allocate a header's worth, a receive one payload's worth.
"""

import socket
import threading
import tracemalloc

import numpy as np
import pytest

from repro.serve import FFTServer, FFTService, ServeClient, ServeConfig
from repro.serve.protocol import FrameConn, dump_line, payload_array

SLACK = 64 * 1024  # headers, frames, the interpreter's own small objects
RNG = np.random.default_rng(7)
#: one (4, 16384) stack: 1 MiB on the wire, the bulk workload's request
BIG = RNG.standard_normal((4, 16384)) + 1j * RNG.standard_normal((4, 16384))
assert BIG.nbytes == 1 << 20


def _readonly(x):
    x = x.copy()
    x.flags.writeable = False
    return x


#: name -> (what is sent, how many conversion copies sending it may make)
INPUTS = {
    "contiguous": (BIG, 0),
    "read-only": (_readonly(BIG), 0),
    "non-contiguous": (np.concatenate([BIG, BIG])[::2], 1),
    "float64": (BIG.real.copy(), 1),
    "fortran-order": (np.asfortranarray(BIG), 1),
}


@pytest.fixture()
def pair():
    """``(FrameConn, raw peer socket)`` over loopback."""
    with socket.create_server(("127.0.0.1", 0)) as lsock:
        conn = FrameConn.dial(lsock.getsockname(), 30.0)
        peer, _ = lsock.accept()
    peer.settimeout(30.0)
    yield conn, peer
    conn.close()
    peer.close()


def _peak_during(fn) -> tuple[int, object]:
    """Peak bytes allocated above the starting level while ``fn`` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_send_copies_a_payload_at_most_to_convert_it(pair, name):
    conn, peer = pair
    x, conversions = INPUTS[name]
    wire = np.asarray(x, dtype=np.complex128).astype("<c16").tobytes()
    head = dump_line({"op": "fft", "id": 1, "shape": list(x.shape),
                      "nbytes": len(wire)})
    got = bytearray(len(head) + len(wire))

    def drain():  # allocation-free: the budget below is the sender's alone
        view, n = memoryview(got), 0
        while n < len(got):
            n += peer.recv_into(view[n:])

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    peak, _ = _peak_during(lambda: conn.send({"op": "fft", "id": 1}, x))
    reader.join(30)
    assert not reader.is_alive()
    assert bytes(got) == head + wire
    assert peak < conversions * len(wire) + SLACK, (name, peak)


def test_recv_allocates_one_payload_and_the_array_is_a_view_of_it(pair):
    conn, peer = pair
    wire = BIG.tobytes()
    head = dump_line({"id": 1, "ok": True, "shape": list(BIG.shape),
                      "nbytes": len(wire)})
    writer = threading.Thread(target=peer.sendall, args=(head + wire,),
                              daemon=True)
    writer.start()
    peak, (msg, buf, _) = _peak_during(conn.recv)
    writer.join(30)
    assert len(wire) <= peak < len(wire) + SLACK
    peak, y = _peak_during(lambda: payload_array(msg, buf))
    assert peak < SLACK
    assert np.shares_memory(y, np.frombuffer(buf, dtype=np.uint8))
    assert y.flags.writeable
    np.testing.assert_array_equal(y, BIG)


def test_empty_stack_is_a_frame_like_any_other(pair):
    conn, peer = pair
    x = np.empty((0, 64), dtype=np.complex128)
    conn.send({"id": 1, "ok": True}, x)
    head = dump_line({"id": 1, "ok": True, "shape": [0, 64], "nbytes": 0})
    assert peer.recv(1 << 16) == head
    peer.sendall(head + dump_line({"op": "ping", "id": 2}))
    msg, buf, _ = conn.recv()
    assert payload_array(msg, buf).shape == (0, 64)
    assert conn.recv()[:2] == ({"op": "ping", "id": 2}, None)


def test_client_result_is_a_writable_array_over_no_bytes_object():
    service = FFTService(ServeConfig())
    srv = FFTServer(("127.0.0.1", 0), service)
    srv.serve_background()
    try:
        with ServeClient("127.0.0.1", srv.port) as client:
            x = BIG[:, :256]  # a non-contiguous request, for good measure
            y = client.fft(x)
    finally:
        srv.shutdown()
        srv.server_close()
        service.close()
    np.testing.assert_allclose(y, np.fft.fft(x, axis=-1), atol=1e-8)
    y[0, 0] = 0  # the caller owns it
    base = y
    while base is not None:
        assert not isinstance(base, bytes)
        base = getattr(base, "base", getattr(base, "obj", None))
