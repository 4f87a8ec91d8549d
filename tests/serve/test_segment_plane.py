"""The segment plane: a same-host payload crosses no socket.

A :class:`ServeClient` whose peer is a loopback address offers its
connection one shared segment (``attach``); an ``fft`` payload of
``BY_REFERENCE_BYTES`` or more is then written into a region of it and
the shard writes the result into the region beside it.  Everything else —
a smaller payload, a peer that is not a loopback address, a refused
``attach`` (the router refuses it) — travels as bytes, exactly as before.
Every test here ends with no ``repro-wire`` segment left anywhere.
"""

import multiprocessing
import os
import select
import signal
import socket
import threading

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.mp import arena
from repro.serve import FFTServer, FFTService, RemoteError, ServeClient, \
    ServeConfig
from repro.serve import protocol
from repro.serve import server as server_module
from repro.serve.protocol import BY_REFERENCE_BYTES, WIRE_PREFIX, \
    FrameConn, dump_line
from repro.shard import ShardFleet, ShardRouter

RNG = np.random.default_rng(36)


def _x(shape) -> np.ndarray:
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def _wire_files() -> list:
    return sorted(n for n in os.listdir("/dev/shm")
                  if n.startswith(WIRE_PREFIX + "-"))


@pytest.fixture(autouse=True)
def nothing_left_behind():
    yield
    assert arena.segment_stats()["leaked_at_exit"] == 0
    assert [n for n in arena.live_segment_names()
            if n.startswith(WIRE_PREFIX)] == []
    assert _wire_files() == []


@pytest.fixture(scope="module")
def served():
    """One idle shard, in process; yields ``(port, sessions)``."""
    service = FFTService(ServeConfig(window_s=0.0))
    srv = FFTServer(("127.0.0.1", 0), service)
    sessions: list = []
    make = srv.session
    srv.session = lambda conn: sessions.append(make(conn)) or sessions[-1]
    srv.serve_background()
    yield srv.port, sessions
    srv.shutdown()
    srv.server_close()
    service.close()


@pytest.fixture()
def attaches(monkeypatch) -> list:
    """Every ``attach`` any session answers, as ``(session, msg)``."""
    seen: list = []
    for cls in (protocol.Session, server_module._ServerSession):
        def spy(self, req_id, msg, _attach=cls.attach):
            seen.append((self, msg))
            _attach(self, req_id, msg)
        monkeypatch.setattr(cls, "attach", spy)
    return seen


def _byte_client(port, monkeypatch) -> ServeClient:
    """A client whose connection never offers a segment."""
    with monkeypatch.context() as m:
        m.setattr(FrameConn, "loopback", lambda self: False)
        return ServeClient("127.0.0.1", port)


SHAPES = [(1 << k,) for k in range(12, 17)] + [(4, 1 << k)
                                               for k in range(12, 17)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_results_are_bit_identical_to_the_byte_path(served, monkeypatch,
                                                    shape):
    port, sessions = served
    x = _x(shape)
    with _byte_client(port, monkeypatch) as plain:
        want = plain.fft(x)
        assert plain._segment is None
    with ServeClient("127.0.0.1", port) as client:
        got = client.fft(x)
        assert client._segment is not None  # it rode the segment
        assert sessions[-1].segment is not None
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got.flags.writeable and got.base is None  # the caller's own
    np.testing.assert_allclose(got, np.fft.fft(x, axis=-1), atol=1e-8)


def test_a_pipelined_mix_of_byte_and_segment_frames_is_answered_in_order(
        served, attaches):
    port, _ = served
    sizes = [64, 4096, 256, 16384, 1024, 4096, 8192, 128]
    xs = [_x(n) for n in sizes]
    with ServeClient("127.0.0.1", port) as client:
        client.fft(_x((4, 16384)))  # attach room for both bursts now
        order: list = []
        read = client._read_response

        def recording():
            resp, buf = read()
            order.append((resp["id"], buf is None))
            return resp, buf

        client._read_response = recording
        for _ in range(2):
            order.clear()
            triples = client.fft_pipeline(xs)
            ids = [rid for rid, _ in order]
            assert ids == sorted(ids)  # slot order: the order they were sent
            # big ones answered by a header alone, small ones with bytes
            assert [bare for _, bare in order] == [
                16 * n >= BY_REFERENCE_BYTES for n in sizes]
            for x, (y, latency, err) in zip(xs, triples):
                assert err is None and latency > 0
                np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-8)
    assert len(attaches) == 1


def test_the_segment_grows_across_calls(served, attaches):
    port, sessions = served
    with ServeClient("127.0.0.1", port) as client:
        x = _x(4096)
        np.testing.assert_allclose(client.fft(x), np.fft.fft(x), atol=1e-8)
        first = client._segment.name, client._segment.nbytes
        assert first[1] == 2 * 16 * 4096
        big = _x((4, 16384))
        np.testing.assert_allclose(client.fft(big), np.fft.fft(big),
                                   atol=1e-8)
        grown = client._segment.name, client._segment.nbytes
        assert grown[0] != first[0] and grown[1] == 2 << 20
        assert sessions[-1].segment.nbytes == grown[1]
        np.testing.assert_allclose(client.fft(x), np.fft.fft(x), atol=1e-8)
        assert client._segment.name == grown[0]  # room enough: kept
    assert [msg["size"] for _, msg in attaches] == [first[1], grown[1]]


@pytest.fixture(scope="module")
def router():
    with ShardFleet(1, ServeConfig(window_s=0.0)) as fleet:
        rt = ShardRouter(("127.0.0.1", 0), fleet)
        rt.serve_background()
        try:
            yield rt
        finally:
            rt.close()


def test_a_routed_client_falls_back_to_bytes(router, attaches):
    with ServeClient("127.0.0.1", router.port) as client:
        for shape in [(4, 16384), (8192,), (4, 16384)]:
            x = _x(shape)
            np.testing.assert_allclose(client.fft(x), np.fft.fft(x, axis=-1),
                                       atol=1e-8)
        assert client._segment is None
        triples = client.fft_pipeline([_x(4096), _x(64)])
        assert all(err is None for _, _, err in triples)
    assert len(attaches) == 1  # refused once, never offered again
    assert router.counters()["routed"] >= 5


def test_a_non_loopback_peer_never_sends_attach(served, attaches,
                                                monkeypatch):
    port, _ = served
    x = _x((4, 16384))
    with _byte_client(port, monkeypatch) as client:
        np.testing.assert_allclose(client.fft(x), np.fft.fft(x, axis=-1),
                                   atol=1e-8)
        client.fft_pipeline([x, x])
        assert client._segment is None
    assert attaches == []


def test_a_frame_below_the_threshold_is_byte_identical_to_today():
    """A frame one element under 64 KiB leaves exactly as it always has,
    and no ``attach`` goes before it."""
    x = _x(BY_REFERENCE_BYTES // 16 - 1)
    wire = x.astype("<c16").tobytes()
    want = dump_line({"op": "fft", "id": 1, "shape": [x.size],
                      "nbytes": len(wire)}) + wire
    with socket.create_server(("127.0.0.1", 0)) as lsock:
        client = ServeClient("127.0.0.1", lsock.getsockname()[1], timeout=10)
        peer, _ = lsock.accept()
        result: list = []
        caller = threading.Thread(target=lambda: result.append(client.fft(x)))
        with client, peer, peer.makefile("rb") as rfile:
            peer.settimeout(10)
            caller.start()
            assert rfile.read(len(want)) == want
            assert select.select([peer], [], [], 0.2)[0] == []  # nothing more
            peer.sendall(dump_line({"id": 1, "ok": True, "shape": [x.size],
                                    "nbytes": len(wire)}) + wire)
            caller.join(10)
    np.testing.assert_array_equal(result[0], x)


# -- chaos and hygiene --------------------------------------------------------


def test_poison_on_a_segment_frame_is_a_typed_internal(served):
    port, _ = served
    x = _x((4, 16384))
    with ServeClient("127.0.0.1", port) as client:
        client.fft(x)  # attached
        with fault_plan(FaultPlan([FaultSpec("net.poison_payload",
                                             max_fires=1)])):
            with pytest.raises(RemoteError) as err:
                client.fft(x)
            assert err.value.code == "internal"
            np.testing.assert_allclose(client.fft_retry(x),
                                       np.fft.fft(x, axis=-1), atol=1e-8)


def test_a_reset_mid_call_reconnects_and_attaches_a_fresh_segment(
        served, attaches):
    port, _ = served
    x = _x((4, 16384))
    with ServeClient("127.0.0.1", port) as client:
        client.fft(x)
        first = client._segment.name
        with fault_plan(FaultPlan([FaultSpec("net.conn_reset",
                                             max_fires=1)])):
            y = client.fft_retry(x)
        np.testing.assert_allclose(y, np.fft.fft(x, axis=-1), atol=1e-8)
        assert client.reconnects_total == 1
        fresh = client._segment.name
    assert fresh != first
    assert [msg["name"] for _, msg in attaches] == [first, fresh]


def _attach_then_wait(port: int, ready) -> None:
    client = ServeClient("127.0.0.1", port)
    client.fft(_x((4, 16384)))
    ready.send(client._segment.name)
    signal.pause()


def test_a_client_killed_after_attach_leaves_no_segment(served):
    port, _ = served
    ctx = multiprocessing.get_context("spawn")  # this process has threads
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=_attach_then_wait, args=(port, theirs))
    child.start()
    try:
        assert ours.poll(60), "the child never attached"
        assert ours.recv().startswith(WIRE_PREFIX + "-")
    finally:
        os.kill(child.pid, signal.SIGKILL)
        child.join(10)
    assert child.exitcode == -signal.SIGKILL
    assert _wire_files() == []
