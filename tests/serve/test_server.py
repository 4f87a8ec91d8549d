"""TCP front end + client + loadgen, on an ephemeral port."""

import io
import json
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.loadgen import (
    LoadgenConfig,
    ShardLoadgenConfig,
    TuneLoadgenConfig,
    run_loadgen,
    run_shard_loadgen,
    run_tune_loadgen,
)
from repro.serve import (
    FFTService,
    RemoteError,
    ServeClient,
    ServeConfig,
)
from repro.serve.protocol import (
    MAX_PAYLOAD_BYTES,
    FrameConn,
    FrameError,
    _read_frame_raw,
    dump_line,
    frame_buffers,
    payload_array,
    read_frame,
    write_frame,
)
from repro.serve.server import FFTServer
from repro.serve.service import FFTTicket

from . import ResolvedByHand


@pytest.fixture()
def server():
    service = FFTService(ServeConfig(max_batch=16))
    srv = FFTServer(("127.0.0.1", 0), service)
    srv.serve_background()
    yield srv
    srv.shutdown()
    srv.server_close()
    service.close()


def _vec(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestProtocol:
    """One frame reader: ``read_frame`` is what ``FrameConn.recv`` runs
    (``_read_frame_raw``, which also returns the header line as read)
    plus the array view."""

    @pytest.mark.parametrize("reader", [read_frame, _read_frame_raw],
                             ids=["read_frame", "read_frame_raw"])
    def test_frame_reader_contract(self, reader):
        X = _vec(16).reshape(2, 8)
        fft, ping = io.BytesIO(), dump_line({"op": "ping", "id": 2})
        write_frame(fft, {"op": "fft", "id": 1}, X)
        # blank lines between messages are skipped
        rfile = io.BytesIO(b"\n  \n" + fft.getvalue() + ping)
        frame = reader(rfile)
        head, payload = frame[:2]
        assert head["shape"] == [2, 8] and head["nbytes"] == X.nbytes
        if reader is read_frame:
            np.testing.assert_array_equal(payload, X)
        else:
            assert payload == X.astype("<c16").tobytes()
            assert frame[2] == fft.getvalue()[:-X.nbytes]
        frame = reader(rfile)
        assert frame[:2] == ({"op": "ping", "id": 2}, None)
        if reader is _read_frame_raw:
            assert frame[2] == ping
        assert reader(rfile) is None  # EOF

        # a short read of a declared payload is a closed connection
        assert reader(io.BytesIO(fft.getvalue()[:-8])) is None
        with pytest.raises(ValueError, match="unreasonable payload"):
            reader(io.BytesIO(dump_line({"nbytes": MAX_PAYLOAD_BYTES + 1})))
        with pytest.raises(ValueError):
            reader(io.BytesIO(b"[1, 2]\n"))  # not a JSON object

    def test_write_frame_relays_bytes_untouched(self):
        """An array and the line and bytes a relay read of it are one
        frame; a header line goes out exactly as it was read."""
        X = _vec(16).reshape(2, 8)
        direct, relayed = io.BytesIO(), io.BytesIO()
        write_frame(direct, {"id": 1, "ok": True}, X)
        _, payload, line = _read_frame_raw(io.BytesIO(direct.getvalue()))
        write_frame(relayed, line, payload)
        assert relayed.getvalue() == direct.getvalue()
        spaced = b'{ "id": 2,  "ok": true }\r\n'
        _, payload, line = _read_frame_raw(io.BytesIO(spaced))
        assert frame_buffers(line, payload) == [spaced]

    def test_malformed_frames_are_typed(self):
        """``bad-json`` is fatal; ``bad-request`` keeps its id, the payload
        is consumed and the stream stays in step."""
        with pytest.raises(FrameError) as exc:
            read_frame(io.BytesIO(dump_line({"id": 3, "nbytes": "16"})))
        assert exc.value.fatal
        assert exc.value.response["error"] == "bad-json"
        assert exc.value.response["id"] == 3
        rfile = io.BytesIO(
            dump_line({"id": 4, "shape": [7], "nbytes": 128}) + bytes(128)
            + dump_line({"op": "ping", "id": 5})
        )
        with pytest.raises(FrameError) as exc:
            read_frame(rfile)
        assert not exc.value.fatal
        assert exc.value.response["error"] == "bad-request"
        assert exc.value.response["id"] == 4
        assert read_frame(rfile) == ({"op": "ping", "id": 5}, None)


class TestServer:
    def test_fft_roundtrip(self, server):
        with ServeClient("127.0.0.1", server.port) as client:
            assert client.ping()
            x = _vec(64)
            y = client.fft(x)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)

    def test_stacked_fft_and_stats(self, server):
        with ServeClient("127.0.0.1", server.port) as client:
            X = np.stack([_vec(64, s) for s in range(3)])
            Y = client.fft(X)
            np.testing.assert_allclose(Y, np.fft.fft(X, axis=-1), atol=1e-6)
            stats = client.stats()
            assert stats["vectors"] >= 3
            assert stats["plan_cache"]["plans_built"] >= 1

    def test_bad_json_line_reports_error(self, server):
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(b"this is not json\n")
            resp = json.loads(sock.makefile("rb").readline())
            assert resp["ok"] is False
            assert resp["error"] == "bad-json"

    def test_unknown_op_reports_error(self, server):
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(dump_line({"op": "frobnicate", "id": 9}))
            resp = json.loads(sock.makefile("rb").readline())
            assert resp["ok"] is False and resp["id"] == 9
            assert resp["error"] == "bad-request"

    def test_payloadless_fft_rejected_connection_usable(self, server):
        """``fft`` has one wire form; a header alone is a typed error."""
        with ServeClient("127.0.0.1", server.port) as client:
            for fields in ({}, {"shape": [64]},
                           {"data": [[1.0, 0.0], [0.0, 0.0]]}):
                with pytest.raises(RemoteError) as exc_info:
                    client.request("fft", **fields)
                assert exc_info.value.code == "bad-request"
            x = _vec(64)
            np.testing.assert_allclose(client.fft(x), np.fft.fft(x),
                                       atol=1e-6)

    def test_remote_error_surfaces_in_client(self, server):
        with ServeClient("127.0.0.1", server.port) as client:
            with pytest.raises(RemoteError) as exc_info:
                client.request("fft", data="nope")
            assert exc_info.value.code == "bad-request"


class _GatedService(ResolvedByHand):
    """As much of a service as a session uses; tickets resolve only when
    the test says so."""

    config = ServeConfig()
    health = stats = staticmethod(dict)

    def __init__(self):
        self.tickets: list = []
        self.admitted = threading.Semaphore(0)

    def request(self, x, **hints):
        return SimpleNamespace(x=x, rows=1, ticket=None,
                               arrival=time.monotonic())

    def admit(self, reqs, here=False):
        for req in reqs:
            req.ticket = FFTTicket(True, self)
            self.tickets.append((req.ticket, req.x))
            self.admitted.release()


def test_a_finished_response_does_not_wait_for_the_next_requests_compute():
    """A held group's replies share one flush — but before the handler
    waits on an unresolved ticket it must send what it holds (the n=64
    reply used to arrive with the big one behind it)."""
    service = _GatedService()
    srv = FFTServer(("127.0.0.1", 0), service)
    srv.serve_background()
    try:
        conn = FrameConn.dial(("127.0.0.1", srv.port), 10.0)
        conn.send({"op": "fft", "id": 1}, _vec(8), flush=False)
        conn.send({"op": "fft", "id": 2}, _vec(8))
        for _ in range(2):  # both admitted: the second is queued
            assert service.admitted.acquire(timeout=10)
        (first, x1), (second, x2) = service.tickets
        first._resolve(result=2 * x1)
        # readable now, with the second ticket still unresolved
        msg, buf, _ = conn.recv()
        assert msg["id"] == 1 and not second.done()
        np.testing.assert_array_equal(payload_array(msg, buf), 2 * x1)
        second._resolve(result=3 * x2)
        assert conn.recv()[0]["id"] == 2
        conn.close()
    finally:
        srv.shutdown()
        srv.server_close()


class TestLoadgen:
    def test_mini_loadgen_run(self, server, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        cfg = LoadgenConfig(
            host="127.0.0.1",
            port=server.port,
            sizes=[64, 128],
            clients=3,
            requests=6,
            baseline_requests=4,
            output=str(out),
        )
        report = run_loadgen(cfg)
        assert report["measured"]["requests"] == 18
        assert report["measured"]["throughput_rps"] > 0
        assert report["baseline_unbatched"]["requests"] == 4
        assert report["single_flight"]["ok"], report["single_flight"]
        lat = report["measured"]["latency"]
        assert lat["p50_ms"] <= lat["p99_ms"] <= lat["max_ms"] + 1e-9
        saved = json.loads(out.read_text())
        assert saved["single_flight"]["plans_built"] == 2

    @pytest.mark.parametrize("lane", ["server", "shards", "tune"])
    def test_every_lane_reports_the_shared_phase_keys(self, request, lane):
        """One driver, one phase dict: the same keys whatever the lane."""
        traffic = dict(sizes=[64], clients=2, pipeline=2)
        if lane == "server":
            port = request.getfixturevalue("server").port
            report = run_loadgen(LoadgenConfig(
                port=port, requests=4, baseline_requests=2, **traffic
            ))
            phases = [report["measured"], report["baseline_unbatched"]]
        elif lane == "shards":
            report = run_shard_loadgen(ShardLoadgenConfig(
                shards=1, requests=4, **traffic
            ))
            phases = [report["measured"]]
        else:
            report = run_tune_loadgen(TuneLoadgenConfig(
                windows=1, window_duration_s=0.2, swap_window=-1, **traffic
            ))
            phases = [report["measured"]]
        assert report["host"]["cpu_count"] >= 1
        for phase in phases:
            assert {
                "requests", "completed", "lost", "corrupt", "wall_s",
                "throughput_rps", "latency", "overload_retries",
                "reconnects",
            } <= set(phase)
            assert phase["lost"] == 0 and phase["corrupt"] == 0
            assert phase["completed"] == phase["requests"] > 0
            assert phase["throughput_rps"] == pytest.approx(
                phase["completed"] / phase["wall_s"]
            )
