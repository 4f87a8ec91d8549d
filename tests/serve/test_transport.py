"""Which socket a frame crosses, and how long a connection waits.

Every endpoint also listens on a Unix socket in the abstract namespace,
named after its TCP address (``protocol.local_name``), and a dial to a
loopback address connects there when someone listens: a same-host client
and a router's upstream to a same-host shard never cross the TCP stack.
A name nobody listens on, or one another user holds, means TCP, with not
one byte sent to find out.
A connection's timeout is the kernel's (``SO_RCVTIMEO`` / ``SO_SNDTIMEO``
on a blocking socket): a silent peer is a ``TimeoutError`` within about
the timeout, and a timed-out stream refuses every later read.
"""

import os
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.serve import FFTServer, FFTService, RetryPolicy, ServeClient, \
    ServeConfig
from repro.serve import protocol
from repro.serve.protocol import FrameConn, FrameServer, Session, \
    local_name
from repro.shard import ShardFleet, ShardRouter

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="the abstract namespace is Linux's")


def _vec(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _family(conn: FrameConn) -> socket.AddressFamily:
    return conn._sock.family


class _Recording(FFTServer):
    """An FFT endpoint that remembers each accepted connection's family."""

    families: list

    def session(self, conn):
        self.families.append(_family(conn))
        return super().session(conn)


class _TcpOnly(_Recording):
    """An endpoint as it was before the Unix listener: TCP alone."""

    def _listen_local(self) -> None:
        pass


@pytest.fixture()
def service():
    svc = FFTService(ServeConfig())
    yield svc
    svc.close()


def _serve(cls, service):
    srv = cls(("127.0.0.1", 0), service)
    srv.families = []
    srv.serve_background()
    return srv


def _stop(srv) -> None:
    srv.shutdown()
    srv.server_close()


def _closed_port() -> int:
    """A TCP port nobody is bound to now (it was a moment ago)."""
    with socket.create_server(("127.0.0.1", 0)) as probe:
        return probe.getsockname()[1]


# -- which socket -------------------------------------------------------------


def test_a_loopback_client_is_on_the_unix_listener(service):
    srv = _serve(_Recording, service)
    try:
        assert srv.local_name == local_name(("127.0.0.1", srv.port))
        x = _vec(64)
        with ServeClient("127.0.0.1", srv.port) as client:
            assert _family(client._conn) == socket.AF_UNIX
            assert client._conn.loopback()
            np.testing.assert_allclose(client.fft(x), np.fft.fft(x),
                                       atol=1e-9)
            assert client.ping()
        with ServeClient("localhost", srv.port) as client:
            assert _family(client._conn) == socket.AF_UNIX
            assert client.ping()
        assert srv.families == [socket.AF_UNIX, socket.AF_UNIX]
    finally:
        _stop(srv)


def test_a_router_and_its_upstreams_are_on_unix_sockets():
    """Client → router and router → shard: both hops are Unix sockets,
    and the routed answers are right."""
    sessions: list = []

    class Router(ShardRouter):
        def session(self, conn):
            s = super().session(conn)
            sessions.append(s)
            return s

    with ShardFleet(1, ServeConfig()) as fleet:
        router = Router(("127.0.0.1", 0), fleet, prewarm=False)
        router.serve_background()
        try:
            with ServeClient("127.0.0.1", router.port) as client:
                assert _family(client._conn) == socket.AF_UNIX
                for seed, n in enumerate((64, 256)):
                    x = _vec(n, seed)
                    np.testing.assert_allclose(client.fft(x), np.fft.fft(x),
                                               atol=1e-9)
                (session,) = sessions
                assert _family(session.conn) == socket.AF_UNIX
                (up,) = session._upstreams.values()
                assert _family(up._conn) == socket.AF_UNIX
        finally:
            router.close()


def test_an_endpoint_without_the_listener_is_dialled_over_tcp(service):
    """An older endpoint has no Unix listener: the dial falls back to TCP
    and the connection answers as before."""
    srv = _serve(_TcpOnly, service)
    try:
        assert srv.local_name is None
        x = _vec(128, 3)
        with ServeClient("127.0.0.1", srv.port) as client:
            assert _family(client._conn) == socket.AF_INET
            assert client._conn.loopback()
            np.testing.assert_allclose(client.fft(x), np.fft.fft(x),
                                       atol=1e-9)
        assert srv.families == [socket.AF_INET]
    finally:
        _stop(srv)


def test_a_name_that_does_not_connect_keeps_tcp():
    """A name bound by a socket that does not listen refuses the connect;
    the dial keeps TCP and sends nothing over either socket."""
    with socket.create_server(("127.0.0.1", 0)) as lsock, \
            socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as squat:
        squat.bind("\0" + local_name(lsock.getsockname()))
        conn = FrameConn.dial(lsock.getsockname(), 5.0)
        peer, _ = lsock.accept()
        try:
            assert _family(conn) == socket.AF_INET
            peer.settimeout(0.2)
            with pytest.raises(TimeoutError):
                peer.recv(1)  # not a byte was sent to learn where to go
        finally:
            peer.close()
            conn.close()


#: a listener under a name, in a process of its own: as another user when
#: this one is root; it prints its pid, then the connections it accepted
#: and how many bytes they sent it
_SQUATTER = """
import os, socket, sys
if os.geteuid() == 0:
    os.setuid(65534)
with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as lsock:
    lsock.bind(b"\\0" + sys.argv[1].encode())
    lsock.listen(8)
    lsock.settimeout(2.0)
    print(os.getpid(), flush=True)
    conns = got = 0
    try:
        while True:
            peer, _ = lsock.accept()
            conns += 1
            with peer:
                peer.settimeout(1.0)
                while chunk := peer.recv(1 << 16):
                    got += len(chunk)
    except OSError:
        print(conns, got, flush=True)
"""


@pytest.mark.parametrize("case", ["wildcard", "ipv6-first"])
def test_a_name_another_user_holds_is_sent_nothing(service, monkeypatch,
                                                   case):
    """Abstract names carry no permission, so any user can bind the name
    of an address the endpoint does not hold.  An endpoint on the
    wildcard address holds its loopback address's name, so there a
    squatter cannot bind it and the client lands on the endpoint's own
    Unix listener.  When ``localhost`` resolves to ``::1`` first, the dial
    connects to that name, sees another user's process, sends it nothing
    and goes on to the endpoint's own name."""
    srv = _serve(_Recording, service)
    port = srv.port
    if case == "wildcard":
        _stop(srv)
        srv = _Recording(("0.0.0.0", port), service)
        srv.families = []
        srv.serve_background()
        assert srv.local_name == local_name(("127.0.0.1", port))
    squatted = ("::1" if case == "ipv6-first" else "127.0.0.1", port)
    squatter = subprocess.Popen(
        [sys.executable, "-c", _SQUATTER, local_name(squatted)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        listening = squatter.stdout.readline()  # nothing: its bind failed
        assert bool(listening) == (case == "ipv6-first")
        root = os.geteuid() == 0
        if case == "ipv6-first":
            if not root:  # one user here: every listener reads as another's
                me = os.geteuid()
                monkeypatch.setattr(protocol.os, "geteuid", lambda: me + 1)
            stream = (socket.SOCK_STREAM, 6, "")
            monkeypatch.setattr(protocol.socket, "getaddrinfo",
                                lambda *_, **__: [
                                    (socket.AF_INET6, *stream,
                                     ("::1", port, 0, 0)),
                                    (socket.AF_INET, *stream,
                                     ("127.0.0.1", port))])
        own = case == "wildcard" or root
        with ServeClient("localhost", port, timeout=5.0) as client:
            family = socket.AF_UNIX if own else socket.AF_INET
            assert _family(client._conn) == family
            x = _vec(1 << 13, 4)  # 128 KiB: offered as a segment on a
            np.testing.assert_allclose(client.fft(x), np.fft.fft(x),
                                       atol=1e-8)  # trusted connection
        monkeypatch.undo()
        assert srv.families == [family]
        sent = ["1", "0"] if case == "ipv6-first" else []
        assert squatter.communicate(timeout=10)[0].split() == sent
    finally:
        squatter.kill()
        squatter.wait()
        _stop(srv)


def test_an_endpoint_of_this_user_looks_foreign_keeps_tcp(service,
                                                          monkeypatch):
    """The peer check is what decides: an endpoint's own listener, read as
    another user's, is not used."""
    srv = _serve(_Recording, service)
    me = os.geteuid()
    monkeypatch.setattr(protocol.os, "geteuid", lambda: me + 1)
    try:
        with ServeClient("127.0.0.1", srv.port) as client:
            assert _family(client._conn) == socket.AF_INET
            assert client.ping()
        assert srv.families == [socket.AF_UNIX, socket.AF_INET]
    finally:
        _stop(srv)


def test_a_taken_name_stops_the_endpoint_like_a_taken_port(service):
    """An endpoint whose name is taken does not start, as one whose port
    is taken does not, and lets go of its port."""
    port = _closed_port()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as squat:
        squat.bind("\0" + local_name(("127.0.0.1", port)))
        with pytest.raises(OSError):
            FFTServer(("127.0.0.1", port), service)
    with socket.create_server(("127.0.0.1", port)):
        pass  # the port was let go


def test_a_closed_endpoint_leaves_its_name_free(service):
    srv = _serve(_Recording, service)
    name = srv.local_name
    _stop(srv)
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
        with pytest.raises(ConnectionRefusedError):
            probe.connect("\0" + name)
        probe.bind("\0" + name)  # free to take again


# -- faults over a Unix socket ------------------------------------------------


def test_resets_over_unix_lose_no_request(service):
    srv = _serve(_Recording, service)
    plan = FaultPlan([FaultSpec("net.conn_reset", rate=0.3, max_fires=6)],
                     seed=5)
    policy = RetryPolicy(attempts=8, base_s=0.001, seed=11)
    try:
        with ServeClient("127.0.0.1", srv.port) as client, fault_plan(plan):
            for seed in range(40):
                x = _vec(64 << (seed % 3), seed)
                np.testing.assert_allclose(client.fft_retry(x, policy=policy),
                                           np.fft.fft(x), atol=1e-9)
            assert _family(client._conn) == socket.AF_UNIX
            assert client.reconnects_total == plan.fires("net.conn_reset")
        assert plan.fires("net.conn_reset") >= 1
        assert set(srv.families) == {socket.AF_UNIX}
    finally:
        _stop(srv)


def test_a_shard_killed_mid_run_over_unix_loses_no_request():
    with ShardFleet(2, ServeConfig(max_batch=16),
                    supervise_interval_s=0.05) as fleet:
        router = ShardRouter(("127.0.0.1", 0), fleet)
        router.serve_background()
        try:
            client = ServeClient("127.0.0.1", router.port)
            sizes = (64, 128, 256, 512)
            for n in sizes:  # every plan warm on its owner
                client.fft(_vec(n))
            xs = [_vec(sizes[i % 4], seed=i) for i in range(48)]
            killer = threading.Timer(0.02, fleet.kill_shard)
            killer.start()
            outs = client.fft_pipeline(xs)
            killer.join()
            retry = RetryPolicy(attempts=8, seed=7)
            for x, (y, _, err) in zip(xs, outs):
                if err is not None:  # typed and retryable, never lost
                    assert err.code in ("internal", "overloaded"), err
                    y = client.fft_retry(x, policy=retry)
                np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)
            assert fleet.counters()["ejections"] >= 1
            assert _family(client._conn) == socket.AF_UNIX
            client.close()
        finally:
            router.close()


def test_a_byte_burst_past_every_socket_buffer_completes(service,
                                                         monkeypatch):
    """Eight 1 MiB requests pipelined as bytes over a Unix socket (whose
    send buffer holds a fraction of one): the client reads while it sends,
    so the server answering the first never waits on it forever."""
    srv = _serve(_Recording, service)
    xs = [_vec(1 << 16, seed) for seed in range(8)]
    try:
        with monkeypatch.context() as m:  # no segment: every byte is sent
            m.setattr(FrameConn, "loopback", lambda self: False)
            client = ServeClient("127.0.0.1", srv.port, timeout=30.0)
        with client:
            assert _family(client._conn) == socket.AF_UNIX
            for x, (y, _, err) in zip(xs, client.fft_pipeline(xs)):
                assert err is None
                np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-8)
            assert client._segment is None
    finally:
        _stop(srv)


@pytest.mark.parametrize("unix", [True, False], ids=["unix", "tcp"])
def test_a_burst_within_the_send_room_leaves_while_the_peer_reads_nothing(
        unix):
    """What ``fft_pipeline`` sends inline: frames coalesced as its burst
    coalesces them, ``send_room()`` bytes in all, leave without the peer
    reading one — so an inline burst never waits on its server."""
    with socket.create_server(("127.0.0.1", 0)) as lsock, \
            socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as ulsock:
        if unix:
            ulsock.bind("\0" + local_name(lsock.getsockname()))
            ulsock.listen(1)
        conn = FrameConn.dial(lsock.getsockname(), 0.5)
        try:
            assert (_family(conn) == socket.AF_UNIX) is unix
            room = conn.send_room()
            x = np.zeros(1024, np.complex128)  # 16 KiB a frame
            frame = sum(len(b) if type(b) is bytes else b.nbytes
                        for b in protocol.frame_buffers({"op": "fft"}, x))
            count = room // frame
            assert count >= 4
            for i in range(count):
                conn.send({"op": "fft"}, x, i == count - 1)
        finally:
            conn.close()


# -- nothing left behind ------------------------------------------------------


def _fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _settled(count, limit, within=10.0) -> int:
    deadline = time.monotonic() + within
    while count() > limit and time.monotonic() < deadline:
        time.sleep(0.02)
    return count()


def test_connect_close_cycles_leave_no_fd_or_thread(service):
    srv = _serve(_Recording, service)
    try:
        threads, fds = threading.active_count(), _fds()
        for _ in range(200):
            with ServeClient("127.0.0.1", srv.port) as client:
                assert client.ping()
        assert _settled(threading.active_count, threads) <= threads
        assert _settled(_fds, fds) <= fds
        assert srv.families == [socket.AF_UNIX] * 200
    finally:
        _stop(srv)


# -- timeouts -----------------------------------------------------------------


class _Silent(Session):
    """Answers everything but ``fft``, which it never answers."""

    def reply(self, msg) -> None:
        self.conn.send(msg)

    def fft(self, req_id, msg, payload, line) -> None:
        pass

    def close(self) -> None:
        pass


class _SilentServer(FrameServer):
    def session(self, conn):
        return _Silent(conn)


class _SilentTcpServer(_SilentServer):
    def _listen_local(self) -> None:
        pass


@pytest.mark.parametrize("server, family", [
    (_SilentServer, socket.AF_UNIX), (_SilentTcpServer, socket.AF_INET),
], ids=["unix", "tcp"])
def test_a_silent_server_times_out_and_the_stream_is_refused(server, family):
    srv = server(("127.0.0.1", 0))
    srv.serve_background()
    timeout = 0.3
    try:
        with ServeClient("127.0.0.1", srv.port, timeout=timeout) as client:
            sock = client._conn._sock
            assert sock.family == family
            # the kernel's timeout on a blocking socket: no poll per call
            assert sock.gettimeout() is None
            tv = sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, 16)
            assert struct.unpack("ll", tv) == (0, 300_000)
            assert client.request("ping")["pong"]
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                client.fft(_vec(64))
            waited = time.monotonic() - t0
            assert 0.8 * timeout <= waited < timeout + 2.0, waited
            # out of step: a later read is refused, though a reply waits
            with pytest.raises(OSError, match="timed out object"):
                client.request("ping")
    finally:
        _stop(srv)


@pytest.mark.parametrize("unix", [True, False], ids=["unix", "tcp"])
def test_a_peer_that_never_reads_times_a_send_out(unix):
    """A send into a full socket buffer is a ``TimeoutError`` within about
    the timeout, not a wait forever."""
    with socket.create_server(("127.0.0.1", 0)) as lsock, \
            socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as ulsock:
        if unix:  # a listener under the TCP address's name, never read
            ulsock.bind("\0" + local_name(lsock.getsockname()))
            ulsock.listen(1)
        conn = FrameConn.dial(lsock.getsockname(), 0.2)
        try:
            assert (_family(conn) == socket.AF_UNIX) is unix
            block = np.zeros(1 << 14, np.complex128)  # 256 KiB a frame
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                for _ in range(4096):  # 1 GiB: far past any socket buffer
                    conn.send({"op": "ping"}, block)
            assert time.monotonic() - t0 < 30.0
        finally:
            conn.close()


@pytest.mark.parametrize("unix", [True, False], ids=["unix", "tcp"])
def test_a_burst_into_a_peer_that_stops_reading_fails_within_the_timeout(
        unix, monkeypatch):
    """A peer that reads the start of a byte burst and then neither reads
    nor answers: the read times out, the send is severed rather than left
    to wait out a timeout of its own, and ``fft_pipeline`` raises within
    about one timeout."""
    timeout = 1.0
    with socket.create_server(("127.0.0.1", 0)) as lsock, \
            socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as ulsock:
        if unix:
            ulsock.bind("\0" + local_name(lsock.getsockname()))
            ulsock.listen(1)
        with monkeypatch.context() as m:  # no segment: every byte is sent
            m.setattr(FrameConn, "loopback", lambda self: False)
            client = ServeClient("127.0.0.1", lsock.getsockname()[1],
                                 timeout=timeout)
        peer, _ = (ulsock if unix else lsock).accept()
        try:
            assert (_family(client._conn) == socket.AF_UNIX) is unix
            # the start of the burst, then nothing
            start = threading.Thread(target=peer.recv, args=(1 << 16,))
            start.start()
            xs = [np.zeros(1 << 16, np.complex128)] * 24  # 24 MiB
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                client.fft_pipeline(xs)
            waited = time.monotonic() - t0
            start.join()
            assert 0.8 * timeout <= waited < 1.6 * timeout, waited
        finally:
            client.close()
            peer.close()


def test_a_send_to_a_peer_that_keeps_draining_outlasts_the_timeout():
    """A send's timeout is the kernel's, per system call: a peer that
    drains a little inside every timeout is alive, and a send larger than
    the socket buffers completes after several timeouts' worth of time."""
    timeout = 0.2
    with socket.create_server(("127.0.0.1", 0)) as lsock, \
            socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as ulsock:
        ulsock.bind("\0" + local_name(lsock.getsockname()))
        ulsock.listen(1)
        conn = FrameConn.dial(lsock.getsockname(), timeout)
        peer, _ = ulsock.accept()
        drained = []

        def drain() -> None:  # 32 KiB every 50 ms until EOF
            with peer:
                while chunk := peer.recv(1 << 15):
                    drained.append(len(chunk))
                    time.sleep(0.05)

        reader = threading.Thread(target=drain)
        reader.start()
        try:
            block = np.zeros(1 << 16, np.complex128)  # 1 MiB
            t0 = time.monotonic()
            conn.send({"op": "ping"}, block)
            assert time.monotonic() - t0 > 2 * timeout
        finally:
            conn.close()
            reader.join()
        assert sum(drained) > block.nbytes
