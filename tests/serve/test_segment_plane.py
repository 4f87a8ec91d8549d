"""The segment plane: a same-host payload crosses no socket.

A :class:`ServeClient` whose peer is a loopback address offers its
connection one shared segment (``attach``); an ``fft`` payload of
``BY_REFERENCE_BYTES`` or more is then written into a region of it and
the shard computes the result into an ``out`` region — a lone request's
whole-plan call stores ``Y`` there itself, a request batched with others
gets its rows copied in — and the array the client returns is that
region, which it owns until its last view dies.  Everything else — a
smaller payload, a peer that is not a loopback address, a refused
``attach`` (the router refuses it) — travels as bytes, exactly as
before.  Every test here ends with no ``repro-wire`` segment left
anywhere.
"""

import contextlib
import dataclasses
import json
import multiprocessing
import os
import select
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.codegen.compiled_backend import compile_plan, compiled_available
from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.mp import SharedArena, arena
from repro.serve import FFTServer, FFTService, RemoteError, ServeClient, \
    ServeConfig
from repro.serve import protocol
from repro.serve import server as server_module
from repro.serve.protocol import BY_REFERENCE_BYTES, WIRE_PREFIX, \
    FrameConn, dump_line
from repro.shard import ShardFleet, ShardRouter

from . import queue_every_group

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
    service = FFTService(ServeConfig())
    srv = FFTServer(("127.0.0.1", 0), service)
    sessions: list = []
    make = srv.session
    srv.session = lambda conn: sessions.append(make(conn)) or sessions[-1]
    srv.serve_background()
    yield srv.port, sessions
    srv.shutdown()
    srv.server_close()
    service.close()


@pytest.fixture(scope="module")
def compiled_served():
    """One idle shard on the compiled ν = 4 backend, in process; yields
    ``(port, service, sessions)``."""
    if not compiled_available():
        pytest.skip("no usable C compiler on this host")
    service = FFTService(ServeConfig(backend="compiled", nu=4))
    srv = FFTServer(("127.0.0.1", 0), service)
    sessions: list = []
    make = srv.session
    srv.session = lambda conn: sessions.append(make(conn)) or sessions[-1]
    srv.serve_background()
    yield srv.port, service, sessions
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


def _owner(y: np.ndarray) -> np.ndarray:
    """The one array a segment result and its views collapse to: an
    ``np.frombuffer`` view of the result's region, no ndarray above it."""
    owner = y.base
    assert isinstance(owner, np.ndarray) and owner.ndim == 1
    assert isinstance(owner.base, memoryview)
    return owner


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
        # the result is its out region, and owns it
        owner = _owner(got)
        assert np.shares_memory(got, client._segment._shared.array)
        assert not np.shares_memory(got, client.fft(x))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # after close too
    assert got.flags.writeable and _owner(got) is owner
    np.testing.assert_allclose(got, np.fft.fft(x, axis=-1), atol=1e-8)


class _Watch:
    """What the shard does with a segment request's result, counted: every
    ``out`` region a session views, every output address its plan's chain
    is handed, and every ``np.copyto`` into the newest session's
    segment."""

    def __init__(self, monkeypatch, service, sessions, n):
        self.outs, self.chain, self.copies = [], [], []
        regions = server_module._Segment.regions

        def viewed(segment, msg):
            x, out = regions(segment, msg)
            self.outs.append(out.ctypes.data)
            return x, out

        monkeypatch.setattr(server_module._Segment, "regions", viewed)
        cached = service.plans.get(service.config.plan_key(n))
        compiled = compile_plan(cached.program)

        def chain(b, x, y):
            self.chain.append(y)
            return compiled._chain(b, x, y)

        monkeypatch.setattr(cached, "stages", dataclasses.replace(
            compiled, _chain=chain).plan_stages())
        copyto = np.copyto

        def counted(dst, src, **kw):
            segment = sessions[-1].segment
            if (segment is not None and segment._map is not None
                    and np.shares_memory(dst, segment._map.array)):
                self.copies.append(dst.shape)
            return copyto(dst, src, **kw)

        monkeypatch.setattr(np, "copyto", counted)


LONE_SHAPES = [(4, 1 << k) for k in range(12, 17)] + [(1 << 14,)]


@pytest.mark.parametrize("shape", LONE_SHAPES, ids=str)
def test_a_lone_segment_request_is_computed_in_its_out_region(
        compiled_served, monkeypatch, shape):
    """The chain's own stores write the result: the one C call is handed
    the frame's ``out`` region, and the shard copies no result at all."""
    port, service, sessions = compiled_served
    x = _x(shape)
    with _byte_client(port, monkeypatch) as plain:
        want = plain.fft(x)
    watch = _Watch(monkeypatch, service, sessions, shape[-1])
    with ServeClient("127.0.0.1", port) as client:
        got = client.fft(x)
        assert client._segment is not None  # it rode the segment
    assert got.tobytes() == want.tobytes()
    assert len(watch.outs) == 1 and watch.outs[0] % 64 == 0
    assert watch.chain == watch.outs
    assert watch.copies == []


def test_a_burst_of_segment_requests_is_one_batch_copied_into_each_out(
        compiled_served, monkeypatch):
    """Several same-key segment requests batch as one stack (one
    ``np.concatenate``, one chain call), and each request's rows are
    copied into its own ``out`` region once; the replies are bit-identical
    to the byte path and leave in slot order."""
    port, service, sessions = compiled_served
    n = 4096
    xs = [_x((4, n)) for _ in range(5)]
    with _byte_client(port, monkeypatch) as plain:
        want = [plain.fft(x) for x in xs]
    batches: list = []
    run = FFTService._execute_batch

    def recorded(svc, key, batch):
        batches.append(len(batch))
        return run(svc, key, batch)

    monkeypatch.setattr(FFTService, "_execute_batch", recorded)
    with ServeClient("127.0.0.1", port) as client:
        client.fft(np.concatenate(xs))  # attached, room for the burst
        watch = _Watch(monkeypatch, service, sessions, n)
        batches.clear()
        order: list = []
        read = client._read_response

        def recording():
            resp, buf = read()
            order.append(resp["id"])
            return resp, buf

        client._read_response = recording
        triples = client.fft_pipeline(xs)
    assert order == sorted(order) and len(order) == len(xs)
    for (y, _, err), w in zip(triples, want):
        assert err is None and y.tobytes() == w.tobytes()
    assert sum(batches) == len(xs) and max(batches) > 1
    assert len(watch.chain) == len(batches)
    assert not set(watch.chain) & set(watch.outs)
    assert len(watch.copies) == len(xs) - batches.count(1)


def _reply(rfile) -> dict:
    reply = json.loads(rfile.readline())
    assert "nbytes" not in reply  # a segment frame's reply is a header
    return reply


def test_a_failed_segment_request_writes_no_region(served):
    """A poisoned request, and a request whose deadline passed while it
    sat in a batch with live ones, get their typed replies; of the whole
    segment, only the live requests' ``out`` regions change — one of them
    16 bytes past its line, filled through the one fallback copy."""
    n = 4096
    region = 16 * n
    with SharedArena(WIRE_PREFIX) as wire:
        seg = wire.allocate(8 * region + 64, np.uint8)
        buf = seg.array
        buf[:] = np.random.default_rng(37).integers(0, 256, buf.size)
        xs = [_x(n) for _ in range(4)]
        for i, x in enumerate(xs):
            buf[i * region:(i + 1) * region].view("<c16")[:] = x
        before = buf.copy()

        def frame(req_id, i, out, **fields):
            return dump_line({"op": "fft", "id": req_id, "shape": [n],
                              "shm": [i * region, out], **fields})

        outs = {10: 4 * region, 12: 6 * region + 16}
        with socket.create_connection(("127.0.0.1", served[0])) as sock, \
                sock.makefile("rb") as rfile:
            sock.settimeout(10)
            sock.sendall(dump_line({"op": "attach", "id": 1,
                                    "name": seg.name, "size": buf.size}))
            assert _reply(rfile) == {"id": 1, "ok": True}
            with fault_plan(FaultPlan([FaultSpec("net.poison_payload",
                                                 max_fires=1)])):
                sock.sendall(frame(2, 3, 7 * region + 64))
                assert _reply(rfile)["error"] == "internal"
            assert (buf == before).all()
            # one burst: a live request, an expired one, a live one
            sock.sendall(frame(10, 0, outs[10])
                         + frame(11, 1, 5 * region, timeout=-1.0)
                         + frame(12, 2, outs[12]))
            assert _reply(rfile) == {"id": 10, "ok": True}
            assert _reply(rfile)["error"] == "deadline"
            assert _reply(rfile) == {"id": 12, "ok": True}
        written = np.zeros(buf.size, bool)
        for req_id, at in outs.items():
            y = buf[at:at + region].view("<c16")
            np.testing.assert_allclose(y, np.fft.fft(xs[req_id - 10]),
                                       atol=1e-8)
            written[at:at + region] = True
        assert (buf[~written] == before[~written]).all()
        del y


@contextlib.contextmanager
def _slow_shard(monkeypatch):
    """An in-process shard whose every request queues (no group runs on
    the thread that admits it); each batch first sleeps ``delay[0]`` s.
    Yields ``(port, delay, finished)``: ``finished`` is set as a batch's
    run returns."""
    service = FFTService(ServeConfig())
    queue_every_group(monkeypatch, service)
    srv = FFTServer(("127.0.0.1", 0), service)
    srv.serve_background()
    delay, finished = [0.0], threading.Event()
    fallback = service._fallback

    class _Slow:
        def run(self, plan, X, out=None):
            time.sleep(delay[0])
            try:
                return fallback.run(plan, X, out)
            finally:
                finished.set()

    monkeypatch.setattr(service, "_runtime_for", lambda threads: _Slow())
    try:
        yield srv.port, delay, finished
    finally:
        srv.shutdown()
        srv.server_close()
        service.close()


def test_a_timed_out_segment_request_is_answered_after_its_batch(
        monkeypatch):
    """A request whose batch outlasts ``timeout + 1`` s gets ``deadline``
    only once the batch is done with its ``out`` region: the client's next
    call on the connection reuses that region for its input, which a late
    store of the old result would corrupt."""
    n = 4096
    x1, x2, warm = _x(n), _x((2, n)), _x((2, n))
    with _slow_shard(monkeypatch) as (port, delay, finished), \
            ServeClient("127.0.0.1", port) as client:
        client.fft(warm)  # sizes the segment for x2: in 0, out 2n
        delay[0] = 1.5
        finished.clear()
        with pytest.raises(RemoteError) as err:
            # x1's out region is x2's second input row
            client.fft(x1, timeout=0.1)
        assert err.value.code == "deadline"
        assert finished.is_set()
        delay[0] = 0.0
        got = client.fft(x2)
        assert client._segment is not None
    np.testing.assert_allclose(got, np.fft.fft(x2, axis=-1), atol=1e-8)


def test_a_segment_let_go_mid_batch_stays_mapped_for_the_batch(
        monkeypatch):
    """A session lets go of a segment without unmapping it: here the
    client attaches a second segment while a batch is still reading its
    request's region in the first and storing into its ``out``.  The
    batch finishes into the first segment's ``out`` and the shard serves
    on."""
    n = 4096
    x = _x(n)
    with _slow_shard(monkeypatch) as (port, delay, finished), \
            SharedArena(WIRE_PREFIX) as wire:
        first, second = (wire.allocate(32 * n, np.uint8) for _ in range(2))
        first.array[:16 * n].view("<c16")[:] = x
        with socket.create_connection(("127.0.0.1", port)) as sock, \
                sock.makefile("rb") as rfile:
            sock.settimeout(10)
            sock.sendall(dump_line({"op": "attach", "id": 1,
                                    "name": first.name, "size": 32 * n}))
            assert _reply(rfile) == {"id": 1, "ok": True}
            delay[0] = 0.5
            finished.clear()
            sock.sendall(dump_line({"op": "fft", "id": 2, "shape": [n],
                                    "shm": [0, 16 * n]})
                         + dump_line({"op": "attach", "id": 3,
                                      "name": second.name, "size": 32 * n}))
            assert _reply(rfile) == {"id": 2, "ok": True}
            assert _reply(rfile) == {"id": 3, "ok": True}
        assert finished.is_set()
        np.testing.assert_allclose(first.array[16 * n:].view("<c16"),
                                   np.fft.fft(x), atol=1e-8)
        delay[0] = 0.0
        with ServeClient("127.0.0.1", port) as client:
            np.testing.assert_allclose(client.fft(x), np.fft.fft(x),
                                       atol=1e-8)

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


# -- a result owns its region ------------------------------------------------


MIXED = [(4096,), (2, 4096), (16384,), (4, 8192), (4, 16384), (256,),
         (65536,)]


def test_held_results_keep_their_bits_through_later_calls_and_close(
        served):
    """32 held ``(4, 2^14)`` results: 200 later calls of mixed shapes (the
    segment grows under them) and the client's close change no bit."""
    port, _ = served
    with ServeClient("127.0.0.1", port) as client:
        held = [client.fft(_x((4, 1 << 14))) for _ in range(32)]
        kept = [y.copy() for y in held]
        for i in range(200):
            x = _x(MIXED[i % len(MIXED)])
            np.testing.assert_allclose(client.fft(x), np.fft.fft(x, axis=-1),
                                       atol=1e-8)
        assert all(y.tobytes() == k.tobytes() for y, k in zip(held, kept))
    assert all(y.tobytes() == k.tobytes() for y, k in zip(held, kept))
    regions = sorted((y.ctypes.data, y.nbytes) for y in held)
    assert all(a + n <= b for (a, n), (b, _) in zip(regions, regions[1:]))


def test_a_slice_or_reshape_keeps_its_region_after_the_parent_goes(
        served, attaches):
    port, _ = served
    x = _x((4, 16384))
    want = np.fft.fft(x, axis=-1)
    with ServeClient("127.0.0.1", port) as client:
        y = client.fft(x)
        first = client._segment
        row, flat = y[2], y.reshape(-1)
        owner = _owner(y)
        del y
        assert row.base is owner and flat.base is owner
        del owner
        for _ in range(4):  # each would take a freed region first
            client.fft(x)
        np.testing.assert_allclose(row, want[2], atol=1e-8)
        np.testing.assert_allclose(flat, want.reshape(-1), atol=1e-8)
        assert first._freed == []
        del row, flat
        # the last view handed the region back
        assert first._freed == [at for at, _ in first._used]
    # the views' region left the first segment no room: one growth
    assert len(attaches) == 2


def test_a_loop_that_drops_each_result_runs_on_one_attach(served, attaches):
    port, _ = served
    x = _x(4096)  # 64 KiB: the smallest payload the segment carries
    want = np.fft.fft(x)
    with ServeClient("127.0.0.1", port) as client:
        for _ in range(1000):
            assert np.abs(client.fft(x) - want).max() < 1e-8
        assert client._segment.nbytes == 2 * 16 * 4096
    assert len(attaches) == 1


@pytest.mark.parametrize("fault", ["poison", "deadline"])
def test_an_error_reply_frees_its_out_region_at_once(served, attaches,
                                                     fault):
    """The segment has room for one call exactly; the call after a failed
    one fits in it again."""
    port, _ = served
    x = _x((4, 16384))
    with ServeClient("127.0.0.1", port) as client:
        client.fft(x)  # a 2 MiB segment: one in and one out region
        with pytest.raises(RemoteError) as err:
            if fault == "poison":
                with fault_plan(FaultPlan([FaultSpec("net.poison_payload",
                                                     max_fires=1)])):
                    client.fft(x)
            else:
                client.fft(x, timeout=-1.0)
        assert err.value.code == ("internal" if fault == "poison"
                                  else "deadline")
        assert client._segment._used == []
        np.testing.assert_allclose(client.fft(x), np.fft.fft(x, axis=-1),
                                   atol=1e-8)
    assert len(attaches) == 1


@pytest.mark.parametrize("cut", ["timeout", "reset"])
def test_a_call_cut_off_mid_flight_never_has_its_segment_reused(
        monkeypatch, cut):
    """A call whose reply never came may still be stored into, late: the
    client's later results live in a fresh segment, and stay intact while
    the late store lands in the old one."""
    n = 4096
    x1, x2 = _x((2, n)), _x((2, n))
    with _slow_shard(monkeypatch) as (port, delay, finished), \
            ServeClient("127.0.0.1", port, timeout=0.5) as client:
        client.fft(x1)  # attached
        old = client._segment
        mapping = old._shared.array  # kept mapped to watch the late store
        if cut == "timeout":
            delay[0] = 1.5
            with pytest.raises(TimeoutError):
                client.fft(x1)
        else:
            with fault_plan(FaultPlan([FaultSpec("net.conn_reset",
                                                 max_fires=1)])):
                with pytest.raises(OSError):
                    client.fft(x1)
        assert client._segment is None
        (_, end), = old._used[1:]  # the cut-off call's out region
        delay[0] = 0.0
        client._timeout = 10.0  # the later call may queue behind the late one
        client.reconnect()
        later = client.fft(x2)
        assert client._segment is not old
        assert not np.shares_memory(later, mapping)
        if cut == "timeout":
            late = mapping[end - 32 * n:end].view(np.complex128)
            for _ in range(100):  # the shard's late store lands there
                if np.abs(late - np.fft.fft(x1, axis=-1).reshape(-1)
                          ).max() < 1e-8:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("the late store never landed")
        np.testing.assert_allclose(later, np.fft.fft(x2, axis=-1), atol=1e-8)


def test_a_burst_leaves_the_results_of_the_last_one_alone(served):
    port, _ = served
    sizes = [4096, 16384, 64, 8192, 4096]
    with ServeClient("127.0.0.1", port) as client:
        first = [y for y, _, _ in client.fft_pipeline([_x(n) for n in sizes])]
        kept = [y.copy() for y in first]
        xs = [_x(n) for n in sizes]
        second = [y for y, _, _ in client.fft_pipeline(xs)]
        for y, x in zip(second, xs):
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-8)
    assert all(y.tobytes() == k.tobytes() for y, k in zip(first, kept))
    assert not any(np.shares_memory(a, b) for a in first for b in second)


def test_a_result_shares_no_memory_with_the_next(served):
    port, _ = served
    x = _x((4, 16384))
    with ServeClient("127.0.0.1", port) as client:
        y = client.fft(x)
        nxt = client.fft(x)
        assert not np.shares_memory(y, nxt)
        assert y.tobytes() == nxt.tobytes()


@pytest.fixture(scope="module")
def router():
    with ShardFleet(1, ServeConfig()) as fleet:
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
