"""Malformed frames, one battery, both endpoints.

Every frame here is something a real socket can deliver and a correct
client never sends.  The contract (``docs/serving.md`` §4): exactly one
typed reply per frame, under the request's ``id`` whenever the header
parsed; ``bad-request`` leaves the connection in step and serving,
``bad-json`` closes it right after the reply; nothing ever reaches
``socketserver``'s ``handle_error``, and nothing malformed is ever in
flight at the router — so a later shard death replays none of it.

The battery runs against :class:`FFTServer` directly and against a
:class:`ShardRouter` in front of one shard: one request loop, one answer.
"""

import json
import socket
import time

import numpy as np
import pytest

from repro.mp import SharedArena
from repro.serve import FFTServer, FFTService, ServeConfig
from repro.serve.protocol import MAX_PAYLOAD_BYTES, WIRE_PREFIX, dump_line
from repro.shard import ShardFleet, ShardRouter

X = np.arange(8) * (1.0 + 0.5j)
PAYLOAD = X.astype("<c16").tobytes()


class _Endpoint:
    """A served endpoint plus what the battery watches on it."""

    def __init__(self, srv, fleet=None):
        self.srv, self.fleet = srv, fleet
        self.port = srv.port
        self.escaped: list = []   # handle_error calls
        self.sessions: list = []  # every session the endpoint handed out
        srv.handle_error = lambda *a: self.escaped.append(a)
        make = srv.session

        def session(conn):
            self.sessions.append(make(conn))
            return self.sessions[-1]

        srv.session = session


@pytest.fixture(scope="module")
def direct():
    service = FFTService(ServeConfig(window_s=0.001))
    srv = FFTServer(("127.0.0.1", 0), service)
    srv.serve_background()
    yield _Endpoint(srv)
    srv.shutdown()
    srv.server_close()
    service.close()


@pytest.fixture(scope="module")
def routed():
    with ShardFleet(1, ServeConfig(window_s=0.001)) as fleet:
        router = ShardRouter(("127.0.0.1", 0), fleet)
        router.serve_background()
        try:
            yield _Endpoint(router, fleet)
        finally:
            router.close()


@pytest.fixture(params=["direct", "routed"])
def endpoint(request):
    ep = request.getfixturevalue(request.param)
    yield ep
    assert ep.escaped == [], "an exception reached socketserver.handle_error"


def _fft(req_id, **fields) -> bytes:
    """A well-framed fft request (a header override makes it malformed)."""
    head = {"op": "fft", "id": req_id, "shape": [8], "nbytes": len(PAYLOAD)}
    head.update(fields)
    return dump_line(head) + PAYLOAD


def _fft_spelled(req_id, field: bytes) -> bytes:
    """A well-framed fft request whose header ends with ``field`` exactly
    as spelled (a number ``dump_line`` cannot write, such as ``1e400``)."""
    return _fft(req_id)[:-len(PAYLOAD) - 2] + b"," + field + b"}\n" + PAYLOAD


def _in_flight(session) -> int:
    """Requests a router session has forwarded and not seen answered."""
    return sum(len(up._sent) for up in session._upstreams.values())


def _read_reply(rfile):
    """One reply header (its payload, if any, skipped); None at EOF."""
    try:
        line = rfile.readline()
    except ConnectionResetError:
        return None
    if not line:
        return None
    reply = json.loads(line)
    rfile.read(reply.get("nbytes", 0))
    return reply


#: frames that were consumed whole: (frame bytes, its id, the error code)
IN_STEP = {
    "shape-is-a-string": (_fft(1, shape="abc"), 1, "bad-request"),
    "shape-is-not-the-bytes": (_fft(2, shape=[7]), 2, "bad-request"),
    "negative-dimension": (_fft(3, shape=[-8]), 3, "bad-request"),
    "inferred-dimension": (_fft(4, shape=[2, -1]), 4, "bad-request"),
    "float-dimension": (_fft(5, shape=[8.0]), 5, "bad-request"),
    "bool-dimension": (_fft(6, shape=[8, True]), 6, "bad-request"),
    "no-shape": (dump_line({"op": "fft", "id": 7, "nbytes": 128}) + PAYLOAD,
                 7, "bad-request"),
    "nbytes-not-whole-elements": (
        dump_line({"op": "fft", "id": 8, "shape": [6], "nbytes": 100})
        + bytes(100), 8, "bad-request"),
    "unknown-op": (dump_line({"op": "frobnicate", "id": 9}), 9,
                   "bad-request"),
    "fft-without-payload": (dump_line({"op": "fft", "id": 10}), 10,
                            "bad-request"),
    "fft-shape-without-payload": (
        dump_line({"op": "fft", "id": 11, "shape": [64]}), 11, "bad-request"),
    "threads-is-a-string": (_fft(12, threads="two"), 12, "bad-request"),
    "threads-is-a-float": (_fft(13, threads=2.5), 13, "bad-request"),
    "timeout-is-a-string": (_fft(14, timeout="soon"), 14, "bad-request"),
    # a deadline no wait can honour: not retryable, and not taken as 1 s
    "timeout-is-nan": (_fft(16, timeout=float("nan")), 16, "bad-request"),
    "timeout-is-infinity": (_fft(17, timeout=float("inf")), 17,
                            "bad-request"),
    "timeout-is-1e400": (_fft_spelled(18, b'"timeout":1e400'), 18,
                         "bad-request"),
    "timeout-is-a-bool": (_fft(19, timeout=True), 19, "bad-request"),
    "prewarm-n-is-a-string": (
        dump_line({"op": "prewarm", "id": 15, "n": "64"}), 15, "bad-request"),
    # the segment plane: nothing is attached on a fresh connection, and
    # neither endpoint opens a name it did not make or that is not there
    "shm-frame-before-attach": (
        dump_line({"op": "fft", "id": 40, "shape": [8], "shm": [0, 128]}),
        40, "bad-request"),
    "attach-without-the-prefix": (
        dump_line({"op": "attach", "id": 41, "name": "repro-mp-1-0badc0de",
                   "size": 4096}), 41, "bad-request"),
    "attach-of-a-missing-name": (
        dump_line({"op": "attach", "id": 42,
                   "name": f"{WIRE_PREFIX}-1-0badc0de", "size": 4096}),
        42, "bad-request"),
}

#: frames after which the stream cannot be trusted: (bytes, id)
OUT_OF_STEP = {
    "not-json": (b"this is not json\n", None),
    "not-utf8": (b'\xff\xfe{"op":"ping"}\n', None),
    "json-array": (b"[1, 2]\n", None),
    "nbytes-is-a-list": (_fft(21, nbytes=[128]), 21),
    "nbytes-is-a-string": (_fft(22, nbytes="128"), 22),
    "nbytes-is-a-float": (_fft(23, nbytes=128.0), 23),
    "nbytes-is-a-bool": (_fft(24, nbytes=True), 24),
    "nbytes-oversize": (
        dump_line({"id": 25, "nbytes": MAX_PAYLOAD_BYTES + 1}), 25),
    # the bytes after a lying length must never be executed as a request
    "nbytes-negative": (
        dump_line({"id": 26, "nbytes": -1})
        + b"garbage\n" + dump_line({"op": "ping", "id": 7}), 26),
}


@pytest.mark.parametrize("case", sorted(IN_STEP))
def test_consumed_frame_gets_one_typed_reply_and_the_connection_serves_on(
        endpoint, case):
    frame, req_id, code = IN_STEP[case]
    with socket.create_connection(("127.0.0.1", endpoint.port)) as sock, \
            sock.makefile("rb") as rfile:
        sock.settimeout(10)
        sock.sendall(frame + dump_line({"op": "ping", "id": 99}))
        # the router answers as shards answer: match by id, not by order
        replies = [_read_reply(rfile), _read_reply(rfile)]
        pong = next(r for r in replies if r["id"] == 99)
        reply = next(r for r in replies if r["id"] != 99)
        assert pong["ok"] is True and pong["pong"] is True
        assert reply["id"] == req_id and reply["ok"] is False
        assert reply["error"] == code
        if endpoint.fleet is not None:
            assert _in_flight(endpoint.sessions[-1]) == 0
        # exactly one reply per frame: the next one is the next answer,
        # and it is served correctly
        sock.sendall(_fft(100))
        answer = json.loads(rfile.readline())
        assert answer == {"id": 100, "ok": True, "shape": [8],
                          "nbytes": 128}
        got = np.frombuffer(rfile.read(128), dtype="<c16")
        np.testing.assert_allclose(got, np.fft.fft(X), atol=1e-9)


#: segment frames on a connection with a 4 KiB segment attached: (header
#: fields, id).  A region of 8 points is 128 bytes.
SEGMENT_BYTES = 4096
SEGMENT_FRAMES = {
    "region-past-the-end": ({"shape": [8], "shm": [0, SEGMENT_BYTES - 64]},
                            50),
    "region-offset-not-16-byte-aligned": ({"shape": [8], "shm": [8, 256]},
                                          51),
    "shape-and-region-disagree": ({"shape": [8, -2], "shm": [0, 256]}, 52),
    "in-and-out-overlap": ({"shape": [8], "shm": [0, 64]}, 53),
    "shm-is-not-two-offsets": ({"shape": [8], "shm": [0]}, 54),
    "attach-of-another-size": ({"op": "attach", "size": 2 * SEGMENT_BYTES},
                               55),
}


@pytest.fixture()
def wire_segment():
    """A client's 4 KiB segment, made as ``ServeClient`` makes it."""
    with SharedArena(WIRE_PREFIX) as arena:
        yield arena.allocate(SEGMENT_BYTES, np.uint8)


@pytest.mark.parametrize("case", sorted(SEGMENT_FRAMES))
def test_a_malformed_segment_frame_gets_a_typed_reply_and_reads_on(
        direct, wire_segment, case):
    """Each bad segment frame is a ``bad-request`` under its own id, the
    connection serves on, and the shard never writes outside the one
    ``out`` region a good frame names."""
    fields, req_id = SEGMENT_FRAMES[case]
    seg = wire_segment.array
    seg[:] = np.random.default_rng(req_id).integers(0, 256, SEGMENT_BYTES)
    x = seg[:128].view("<c16").copy()
    before = seg.copy()
    with socket.create_connection(("127.0.0.1", direct.port)) as sock, \
            sock.makefile("rb") as rfile:
        sock.settimeout(10)
        sock.sendall(dump_line({"op": "attach", "id": 1,
                                "name": wire_segment.name,
                                "size": SEGMENT_BYTES}))
        assert _read_reply(rfile) == {"id": 1, "ok": True}
        head = {"op": "fft", "id": req_id, **fields}
        if head["op"] == "attach":
            head["name"] = wire_segment.name
        sock.sendall(dump_line(head) + dump_line({"op": "ping", "id": 99}))
        reply = _read_reply(rfile)
        assert reply["id"] == req_id and reply["ok"] is False
        assert reply["error"] == "bad-request"
        assert _read_reply(rfile)["pong"] is True
        assert (seg == before).all()  # a refused frame wrote nothing
        # the segment attached first still serves a good frame
        sock.sendall(dump_line({"op": "fft", "id": 2, "shape": [8],
                                "shm": [0, 1024]}))
        assert _read_reply(rfile) == {"id": 2, "ok": True}
    out = seg[1024:1152].view("<c16")
    np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-9)
    assert (seg[:1024] == before[:1024]).all()
    assert (seg[1152:] == before[1152:]).all()
    assert direct.escaped == []


@pytest.mark.parametrize("case", sorted(OUT_OF_STEP))
def test_untrustworthy_frame_gets_one_reply_then_the_connection_closes(
        endpoint, case):
    frame, req_id = OUT_OF_STEP[case]
    with socket.create_connection(("127.0.0.1", endpoint.port)) as sock, \
            sock.makefile("rb") as rfile:
        sock.settimeout(10)
        sock.sendall(frame)
        reply = _read_reply(rfile)
        assert reply["ok"] is False and reply["error"] == "bad-json"
        assert reply["id"] == req_id
        assert _read_reply(rfile) is None  # closed: no second reply


@pytest.mark.parametrize("req_id", [[16], {"k": [1, 2]}, None],
                         ids=["array", "object", "null"])
def test_any_json_id_is_served_and_echoed(endpoint, req_id):
    """The server echoes any JSON value as the id, and so does the router:
    it pairs a shard's reply with the oldest request on that upstream, so
    an id it could not key a table by is served like any other."""
    with socket.create_connection(("127.0.0.1", endpoint.port)) as sock, \
            sock.makefile("rb") as rfile:
        sock.settimeout(10)
        sock.sendall(_fft(req_id) + dump_line({"op": "ping", "id": 99}))
        replies = {json.dumps(r["id"]): r for r in (_read_reply(rfile),
                                                     _read_reply(rfile))}
        assert replies["99"]["pong"] is True
        assert replies[json.dumps(req_id)] == {
            "id": req_id, "ok": True, "shape": [8], "nbytes": 128}
        if endpoint.fleet is not None:
            assert _in_flight(endpoint.sessions[-1]) == 0


def test_payload_truncated_by_eof_is_a_closed_connection(endpoint):
    with socket.create_connection(("127.0.0.1", endpoint.port)) as sock, \
            sock.makefile("rb") as rfile:
        sock.settimeout(10)
        sock.sendall(_fft(31)[:-64])
        sock.shutdown(socket.SHUT_WR)
        assert _read_reply(rfile) is None


def test_killing_the_shard_replays_nothing_malformed(routed):
    """Malformed frames sent on a connection with a live upstream leave
    no orphan behind for the failover path to replay."""
    fleet, router = routed.fleet, routed.srv
    with socket.create_connection(("127.0.0.1", routed.port)) as sock, \
            sock.makefile("rb") as rfile:
        sock.settimeout(10)
        sock.sendall(_fft(1))  # dials the upstream the kill will break
        assert _read_reply(rfile)["ok"] is True
        frames = [IN_STEP[c][0] for c in sorted(IN_STEP)]
        sock.sendall(b"".join(frames))
        replies = [_read_reply(rfile) for _ in frames]
        assert all(r["ok"] is False for r in replies)
        session = routed.sessions[-1]
        assert _in_flight(session) == 0
        ejections = fleet.counters()["ejections"]
        fleet.kill_shard()
        deadline = time.monotonic() + 10
        while fleet.counters()["ejections"] == ejections:
            assert time.monotonic() < deadline, "the kill was never seen"
            time.sleep(0.02)
        time.sleep(0.2)  # room for a (wrong) replay to be counted
        assert router.counters()["replays"] == 0
        assert _in_flight(session) == 0
    assert routed.escaped == []
