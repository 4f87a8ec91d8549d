"""Work runs on a thread that waits for it; a service starts none.

A server session holds what a burst brings and admits it to the service as
one group just before its read would block.  Nothing queued or executing
in the service, nothing further read from the connection: the handler
thread runs the group — a lone request is a group of one — as one batch
per plan key and writes the replies itself, in one flush.  Anything
else — a busy service, an in-process ``submit`` burst — queues, and
whoever waits for a queued ticket runs the queue while the baton is free:
a ``result()`` caller, ``drain`` / ``close``, or a handler about to block
with replies owed.  Each handler writes only its own
socket, in request order, so a client that stops reading stalls no other.
"""

import dataclasses
import json
import os
import select
import socket
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve import (
    FFTServer,
    FFTService,
    ServeClient,
    ServeConfig,
    graceful_shutdown,
)
from repro.serve.protocol import (
    FrameConn,
    dump_line,
    frame_buffers,
    payload_array,
)
from repro.serve import server as server_module
from repro.serve.service import FFTTicket
from repro.smp.runtime import SequentialRuntime

from . import ResolvedByHand, queue_every_group


def _vec(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _until(pred, within=10.0) -> None:
    t0 = time.monotonic()
    while not pred():
        assert time.monotonic() - t0 < within
        time.sleep(0.001)


def _record_threads(svc: FFTService, n: int) -> list:
    """Swap the cached plan for one whose stages record the thread that
    runs them; returns the list they append to."""
    seen: list = []
    key = svc.config.plan_key(n)
    plan = svc.plans.get(key)

    def wrap(work):
        def recorded(proc, src, dst):
            seen.append(threading.get_ident())
            return work(proc, src, dst)
        return recorded

    assert svc.plans.swap(key, dataclasses.replace(plan, stages=[
        dataclasses.replace(st, work=wrap(st.work)) for st in plan.stages]))
    return seen


#: a recording session by its handler thread's ident
_SESSIONS: dict = {}


@pytest.fixture(autouse=True)
def _record_waits(monkeypatch):
    """Each recording session's ``queued``: the reply slots its handler
    reached before their tickets resolved, and so waited for.  A slot run
    on the handler thread (or resolved by then) never reaches the wait."""
    answer = server_module._answer

    def waited(item, interrupt=None):
        s = _SESSIONS.get(threading.get_ident())
        if (s is not None and type(item) is not dict
                and not item[0].ticket.done()
                and not any(q is item for q in s.queued)):
            s.queued.append(item)
        return answer(item, interrupt)

    monkeypatch.setattr(server_module, "_answer", waited)


class _RecordingServer(FFTServer):
    """Remembers each session, its handler thread, and the replies it
    waited for (``queued``)."""

    def __init__(self, address, service):
        super().__init__(address, service)
        self.sessions: list = []

    def session(self, conn):
        s = super().session(conn)
        s.handler = threading.get_ident()
        s.queued = []
        _SESSIONS[s.handler] = s
        self.sessions.append(s)
        return s


@pytest.fixture()
def served():
    svc = FFTService(ServeConfig())
    srv = _RecordingServer(("127.0.0.1", 0), svc)
    srv.serve_background()
    yield svc, srv
    srv.shutdown()
    srv.server_close()
    svc.close()


def test_an_idle_request_runs_on_its_handler_thread_without_the_drain(served):
    """No ticket is waited for: the handler runs the request and writes."""
    svc, srv = served
    seen = _record_threads(svc, 64)
    with ServeClient("127.0.0.1", srv.port) as client:
        for seed in range(3):
            x = _vec(64, seed)
            np.testing.assert_allclose(client.fft(x), np.fft.fft(x),
                                       atol=1e-6)
        (session,) = srv.sessions
        assert set(seen) == {session.handler}
        assert session.queued == []  # no reply was waited for
    stats = svc.stats()
    assert stats["requests"] == stats["batches"] == 3
    assert stats["max_queue_depth"] == 1


class _CountingLock:
    """A lock that counts its acquisitions: one per lock round."""

    def __init__(self, lock):
        self._lock, self.rounds = lock, 0

    def acquire(self, *args):
        self.rounds += 1
        return self._lock.acquire(*args)

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()

    def __getattr__(self, name):  # a Condition's wait and notify_all
        return getattr(self._lock, name)


def _count_built(monkeypatch, module, *names) -> list:
    """Replace each class ``module.<name>`` by a subclass that records every
    instance built; returns the list they are recorded in."""
    made: list = []

    def counted(base):
        class Counted(base):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)
        return Counted

    for name in names:
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    return made


def test_no_request_makes_an_event_and_an_inline_one_costs_one_counter_round(
        served, monkeypatch):
    """The per-request budget as counts: no request builds a
    ``threading.Event`` — run on the thread that submitted it, through
    ``transform`` or a server session, or queued through ``submit`` (its
    ticket is a latch on a ``_thread`` lock).  An inline request counts
    everything in one lock round; a queued one its admission and its
    batch one round each."""
    svc, srv = served
    x = _vec(64)
    with ServeClient("127.0.0.1", srv.port) as client:
        client.fft(x)  # plan built, handler running, max_queue_depth at 1
        rounds = _CountingLock(svc.counters._lock)
        monkeypatch.setattr(svc.counters, "_lock", rounds)
        made = _count_built(monkeypatch, threading, "Event")
        np.testing.assert_allclose(svc.transform(x), np.fft.fft(x),
                                   atol=1e-6)
        assert (made, rounds.rounds) == ([], 1)
        np.testing.assert_allclose(client.fft(x), np.fft.fft(x), atol=1e-6)
        assert (made, rounds.rounds) == ([], 2)
        assert srv.sessions[0].queued == []  # both ran inline
        ticket = svc.submit(x)
        assert not ticket.done()  # queued, not run here
        np.testing.assert_allclose(ticket.result(5.0), np.fft.fft(x),
                                   atol=1e-6)
        assert made == []
        assert svc.drain(5.0)
        assert rounds.rounds == 4
    stats = svc.stats()
    assert stats["requests"] == stats["batches"] == 4
    assert stats["max_queue_depth"] == 1


class _HandlerCalls:
    """A ``threading.setprofile`` function counting the profiled calls —
    Python functions (``call``) and built-ins (``c_call``), as ``cProfile``
    counts them — that one handler thread makes over whole request cycles.

    A cycle runs from one ``recv_into`` of the handler's socket (where it
    waits for the next frame) to the next.  Armed for ``cycles``, it counts
    from the first of those it sees to the ``cycles + 1``-th: exact, however
    the client's thread and the handler's interleave, as long as the
    client sends one request more than it counts."""

    def __init__(self):
        self.handler, self.left, self.counting = None, 0, False
        self.calls = {"call": 0, "c_call": 0}
        self.done = threading.Event()

    def arm(self, handler, cycles) -> None:
        self.handler, self.left = handler, cycles + 1

    def __call__(self, frame, event, arg):
        if self.left <= 0 or threading.get_ident() != self.handler:
            return
        if event == "c_call" and getattr(arg, "__name__", "") == "recv_into":
            self.left -= 1
            if not self.left:
                self.done.set()
                return
            self.counting = True
        if self.counting and event in self.calls:
            self.calls[event] += 1


#: what one lone n = 64 request (NumPy backend) costs its handler thread,
#: in profiled calls of both kinds and in Python calls alone (136 and 66
#: before the lone path was trimmed; 109 and 47 while a frame read the
#: fault plan twice and five absent hints, and the session answered a
#: ticket it had just resolved through ``done`` and ``result``)
LONE_CALLS = 101
LONE_PYTHON_CALLS = 43
#: lock rounds per lone request on ``_cond``, the service's counters and
#: the plan cache: claim and release the baton, one cache hit, one
#: ``add_many`` (5 before: the cache counted its hit in a round of its own)
LONE_LOCK_ROUNDS = 4


def test_a_lone_request_is_pinned_as_counts(served, monkeypatch):
    """The lone path's budget as counts, on the handler thread of an
    in-process server.  Per lone n = 64 request: at most ``LONE_CALLS``
    profiled calls, ``LONE_PYTHON_CALLS`` of them Python functions;
    ``LONE_LOCK_ROUNDS`` lock rounds over ``_cond``, the service's
    ``Counters`` and the ``PlanCache`` (its hit counted under the cache's
    own lock); no ``threading.Event``; and each request run on the
    handler thread, no reply waited for."""
    svc, srv = served
    x = _vec(64)
    n_requests = 40
    calls = _HandlerCalls()
    threading.setprofile(calls)
    try:
        with ServeClient("127.0.0.1", srv.port) as client:
            client.fft(x)  # plan built, handler running, depth mark at 1
            (session,) = srv.sessions
            calls.arm(session.handler, n_requests)
            for _ in range(n_requests + 1):
                np.testing.assert_allclose(client.fft(x), np.fft.fft(x),
                                           atol=1e-6)
            assert calls.done.wait(10.0)

            # the same requests again, the locks wrapped to count rounds
            locks = {}
            for label, owner, name in (
                    ("_cond", svc, "_cond"),
                    ("counters", svc.counters, "_lock"),
                    ("plan_cache", svc.plans, "_lock"),
                    ("plan_cache.stats", svc.plans.stats, "_lock")):
                locks[label] = _CountingLock(getattr(owner, name))
                monkeypatch.setattr(owner, name, locks[label])
            made = _count_built(monkeypatch, threading, "Event")
            for _ in range(n_requests):
                client.fft(x)
    finally:
        threading.setprofile(None)
    per_request = {k: v / n_requests for k, v in calls.calls.items()}
    assert per_request["call"] <= LONE_PYTHON_CALLS, per_request
    assert sum(per_request.values()) <= LONE_CALLS, per_request
    rounds = {label: lock.rounds / n_requests
              for label, lock in locks.items()}
    assert sum(rounds.values()) <= LONE_LOCK_ROUNDS, rounds
    assert rounds["plan_cache.stats"] == 0  # the hit: the cache's round
    assert made == []
    assert session.queued == []  # every one ran on the handler thread
    assert svc.stats()["batches"] == 2 * n_requests + 2


@pytest.mark.parametrize("plane", ["bytes", "segment"])
def test_a_lone_request_loses_no_accounting(served, plane):
    """What the trimmed lone path still counts, through a server session:
    after N lone requests run on the handler thread, each is one request,
    one vector and one batch of one, its latency sampled under its plan
    and its wall time summed; one whose deadline has passed is a typed
    ``deadline`` (counted as a miss, run as no batch); and a chaos
    ``serve.queue_burst`` is ``overloaded`` in the request's own slot.  A
    segment request (its result computed into its ``out`` region) alike."""
    from repro.faults import FaultPlan, FaultSpec, fault_plan
    from repro.serve import RemoteError
    from repro.serve.protocol import BY_REFERENCE_BYTES, WIRE_PREFIX

    svc, srv = served
    n = 64 if plane == "bytes" else BY_REFERENCE_BYTES // 16
    count = 5
    xs = [_vec(n, seed) for seed in range(count)]
    with ServeClient("127.0.0.1", srv.port) as client:
        for x in xs:
            np.testing.assert_allclose(client.fft(x), np.fft.fft(x),
                                       atol=1e-9 * n)
        assert (client._segment is not None) == (plane == "segment")
        (session,) = srv.sessions
        assert session.queued == []  # each ran on the handler thread
        stats = svc.stats()
        assert (stats["requests"], stats["vectors"], stats["batches"],
                stats["batched_vectors"]) == (count,) * 4
        label = svc.config.plan_key(n).label()
        assert stats["per_plan_latency"][label]["requests"] == count
        assert stats["request_wall_s"] > 0

        with pytest.raises(RemoteError) as late:
            client.fft(xs[0], timeout=-1.0)  # its deadline passed already
        assert late.value.code == "deadline"
        with fault_plan(FaultPlan([FaultSpec("serve.queue_burst")])):
            with pytest.raises(RemoteError) as burst:
                client.fft(xs[0])
        assert burst.value.code == "overloaded"
        assert burst.value.retry_after > 0
        assert client.ping()  # the connection stayed in step
        stats = svc.stats()
        assert (stats["requests"], stats["batches"],
                stats["deadline_misses"], stats["rejected"]) == (
                    count + 1, count, 1, 1)
        assert stats["per_plan_latency"][label]["requests"] == count
    assert not [name for name in os.listdir("/dev/shm")
                if name.startswith(WIRE_PREFIX + "-")]


def _count_encoders(monkeypatch) -> list:
    """Record every ``JSONEncoder`` and C encoder built from now on."""
    encoders = _count_built(monkeypatch, json, "JSONEncoder")
    c_make = json.encoder.c_make_encoder
    if c_make is not None:
        monkeypatch.setattr(
            json.encoder, "c_make_encoder",
            lambda *args: (encoders.append(args), c_make(*args))[1])
    return encoders


def test_a_pipelined_burst_builds_no_event_condition_or_encoder(
        served, monkeypatch):
    """A burst of 16 through the server — held, admitted as one group and
    batched on the handler thread — builds no ``threading.Event`` or
    ``Condition`` on the way; every header line either side writes comes
    from the one encoder ``dump_line`` built at import, not a
    ``JSONEncoder`` (or a C encoder) per line."""
    svc, srv = served
    xs = [_vec(64, seed) for seed in range(16)]
    with ServeClient("127.0.0.1", srv.port) as client:
        client.fft(xs[0])  # plan built, the session running
        made = _count_built(monkeypatch, threading, "Event", "Condition")
        encoders = _count_encoders(monkeypatch)
        replies = client.fft_pipeline(xs)
        assert (made, encoders) == ([], [])
    for x, (y, _, err) in zip(xs, replies):
        assert err is None
        np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
    stats = svc.stats()
    assert stats["requests"] == 17
    assert stats["avg_batch_occupancy"] > 1  # the burst batched


def test_an_idle_pipelined_burst_is_one_admission_on_its_handler_thread(
        served, monkeypatch):
    """The per-burst budget as counts: a 16-frame burst on an idle service
    takes one ``_cond`` round to admit (and one to hand the baton back,
    waking nobody), runs every batch on the connection's handler thread,
    waits for no reply, counts everything in one counter lock round, and
    builds no ``Event``, ``Condition`` or encoder."""
    svc, srv = served
    seen = _record_threads(svc, 64)
    xs = [_vec(64, seed) for seed in range(16)]
    with ServeClient("127.0.0.1", srv.port) as client:
        client.fft(np.stack(xs))  # plan built, max_queue_depth at 16
        (session,) = srv.sessions
        seen.clear()
        cond = _CountingLock(svc._cond)
        monkeypatch.setattr(svc, "_cond", cond)
        notified = []
        monkeypatch.setattr(cond, "notify_all",
                            lambda: notified.append(threading.get_ident()),
                            raising=False)
        rounds = _CountingLock(svc.counters._lock)
        monkeypatch.setattr(svc.counters, "_lock", rounds)
        made = _count_built(monkeypatch, threading, "Event", "Condition")
        encoders = _count_encoders(monkeypatch)
        replies = client.fft_pipeline(xs)
        assert (cond.rounds, notified) == (2, [])
        assert rounds.rounds == 1
        assert (made, encoders) == ([], [])
        assert seen and set(seen) == {session.handler}
        assert session.queued == []  # no reply was waited for
    for x, (y, _, err) in zip(xs, replies):
        assert err is None
        np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
    stats = svc.stats()
    assert stats["requests"] == 17 and stats["batches"] == 2
    assert stats["batched_vectors"] == 32


def test_a_pipelined_burst_still_batches(served):
    """A burst read off one connection is held and admitted as one group,
    so it coalesces with no wait."""
    svc, srv = served
    svc.prewarm(64)
    xs = [_vec(64, seed) for seed in range(16)]
    with ServeClient("127.0.0.1", srv.port) as client:
        for x, (y, _, err) in zip(xs, client.fft_pipeline(xs)):
            assert err is None
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
    stats = svc.stats()
    assert stats["batched_vectors"] == 16
    assert stats["avg_batch_occupancy"] > 1


def test_an_in_process_submit_burst_runs_on_the_dispatcher():
    """``submit`` never runs inline: the burst queues, and the first
    ``result()`` runs it on the waiting thread, as one batch; ``transform``
    runs inline when idle.  No thread is started either way."""
    before = set(threading.enumerate())
    with FFTService(ServeConfig()) as svc:
        seen = _record_threads(svc, 64)
        xs = [_vec(64, seed) for seed in range(16)]
        tickets = [svc.submit(x) for x in xs]
        assert seen == [] and not any(t.done() for t in tickets)
        for x, t in zip(xs, tickets):
            np.testing.assert_allclose(t.result(5.0), np.fft.fft(x),
                                       atol=1e-6)
        assert set(seen) == {threading.get_ident()}
        stats = svc.stats()
        assert stats["batches"] == 1 and stats["avg_batch_occupancy"] == 16
        seen.clear()
        svc.transform(xs[0])
        assert set(seen) == {threading.get_ident()}
        assert set(threading.enumerate()) <= before


def test_one_batch_at_a_time_under_contention():
    """More threads than cores contend for the baton, inline and as the
    waiters that run the queue: never two batches at once, every answer
    right, every vector counted once."""
    lock, running, peak = threading.Lock(), [0], [0]

    class _Counting:
        def run(self, plan, X, out=None):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                return SequentialRuntime().run(plan, X, out)
            finally:
                with lock:
                    running[0] -= 1

    errors: list = []

    def client(seed):
        try:
            for i in range(40):
                x = _vec(64, seed * 100 + i)
                y = (svc.submit(x).result(10.0) if i % 4 == 0
                     else svc.transform(x))
                np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with FFTService(ServeConfig()) as svc:
            rt = _Counting()
            svc._runtime_for = lambda threads: rt
            clients = [threading.Thread(target=client, args=(s,), daemon=True)
                       for s in range(8)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(60)
                assert not t.is_alive()
            stats = svc.stats()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert peak[0] == 1
    assert stats["requests"] == stats["vectors"] == 320
    assert stats["batched_vectors"] == 320


class _StubService(ResolvedByHand):
    """As much of a service as a session uses.  Each admitted request
    either leaves its ticket for the test to resolve, or — when the session
    says nothing follows — resolves it at once, as a run here would."""

    config = ServeConfig()
    health = stats = staticmethod(dict)

    def __init__(self, plan):
        self.plan = list(plan)  # "gate" | "inline", one per request
        self.tickets: list = []
        self.admitted = threading.Semaphore(0)

    def request(self, x, **hints):
        return SimpleNamespace(x=x, rows=1, ticket=None,
                               arrival=time.monotonic())

    def admit(self, reqs, here=False):
        for req in reqs:
            req.ticket = FFTTicket(True, self)
            if self.plan.pop(0) == "inline" and here:
                req.ticket._resolve(result=2 * req.x)
            self.tickets.append((req.ticket, req.x))
            self.admitted.release()


def test_replies_stay_in_request_order_across_inline_and_drained():
    """A resolved result is written only when nothing earlier is owed:
    behind an unresolved reply of its burst it waits its turn while the
    handler waits for that one; with nothing owed it is written at once."""
    service = _StubService(["gate", "inline", "inline"])
    srv = _RecordingServer(("127.0.0.1", 0), service)
    srv.serve_background()
    try:
        conn = FrameConn.dial(("127.0.0.1", srv.port), 10.0)
        xs = [_vec(8, seed) for seed in range(3)]
        conn._sock.sendall(_frame({"op": "fft", "id": 1}, xs[0])
                           + _frame({"op": "fft", "id": 2}, xs[1]))
        for _ in range(2):  # one burst, one group
            assert service.admitted.acquire(timeout=10)
        (first, _), (second, _) = service.tickets
        assert second.done() and not first.done()
        (session,) = srv.sessions
        _until(lambda: len(session.queued) == 1)  # waiting on the first
        assert not select.select([conn._sock], [], [], 0.05)[0]
        first._resolve(result=2 * xs[0])
        for i in (0, 1):
            msg, buf, _ = conn.recv()
            assert msg["id"] == i + 1
            np.testing.assert_array_equal(payload_array(msg, buf), 2 * xs[i])
        conn.send({"op": "fft", "id": 3}, xs[2])
        msg, buf, _ = conn.recv()
        assert msg["id"] == 3
        np.testing.assert_array_equal(payload_array(msg, buf), 2 * xs[2])
        assert len(session.queued) == 1  # nothing owed: written at once
        conn.close()
    finally:
        srv.shutdown()
        srv.server_close()


def _frame(msg: dict, x=None) -> bytes:
    """One frame's bytes, as a client puts them on the wire."""
    return b"".join(bytes(b) for b in frame_buffers(msg, x))


class TestHeldFrames:
    """A session holds what a burst brings and admits it as one group; no
    held frame waits on the client, and every reply keeps its slot."""

    @staticmethod
    def _dial(srv) -> FrameConn:
        return FrameConn.dial(("127.0.0.1", srv.port), 10.0)

    @staticmethod
    def _fft_reply(conn, req_id, x) -> None:
        msg, buf, _ = conn.recv()
        assert (msg["id"], msg["ok"]) == (req_id, True), msg
        np.testing.assert_allclose(payload_array(msg, buf),
                                   np.fft.fft(x, axis=-1), atol=1e-6)

    @pytest.mark.parametrize("cut", [10, 700], ids=["header", "payload"])
    def test_a_held_frame_is_answered_before_the_handler_blocks(
            self, served, cut):
        """One whole frame and part of the next, then silence: the first
        is answered while the handler waits for the rest of the second."""
        _, srv = served
        x1, x2 = _vec(64, 1), _vec(64, 2)
        second = _frame({"op": "fft", "id": 2}, x2)
        conn = self._dial(srv)
        try:
            conn._sock.sendall(_frame({"op": "fft", "id": 1}, x1)
                               + second[:cut])
            self._fft_reply(conn, 1, x1)
            conn._sock.sendall(second[cut:])
            self._fft_reply(conn, 2, x2)
        finally:
            conn.close()

    def test_a_burst_then_a_half_close_gets_every_reply_in_order(
            self, served):
        _, srv = served
        xs = [_vec(64 << (i % 3), i) for i in range(12)]
        conn = self._dial(srv)
        try:
            conn._sock.sendall(b"".join(
                _frame({"op": "fft", "id": i}, x) for i, x in enumerate(xs)))
            conn._sock.shutdown(socket.SHUT_WR)
            for i, x in enumerate(xs):
                self._fft_reply(conn, i, x)
            assert conn.recv() is None  # and then the server hangs up
        finally:
            conn.close()

    def test_every_op_in_a_burst_is_answered_in_its_slot(self, served):
        _, srv = served
        xs = [_vec(64, i) for i in range(4)]
        conn = self._dial(srv)
        try:
            conn._sock.sendall(b"".join([
                _frame({"op": "fft", "id": 0}, xs[0]),
                _frame({"op": "ping", "id": 1}),
                _frame({"op": "fft", "id": 2}, xs[1]),
                _frame({"op": "stats", "id": 3}),
                _frame({"op": "health", "id": 4}),
                _frame({"op": "fft", "id": 5}),  # no payload
                dump_line({"op": "fft", "id": 6, "shape": [7],
                           "nbytes": 128}) + bytes(128),  # malformed
                _frame({"op": "fft", "id": 7}, xs[2]),
                _frame({"op": "fft", "id": 8, "threads": "two"}, xs[3]),
                _frame({"op": "fft", "id": 9}, xs[3]),
            ]))
            self._fft_reply(conn, 0, xs[0])
            assert conn.recv()[0] == {"id": 1, "ok": True, "pong": True}
            self._fft_reply(conn, 2, xs[1])
            assert conn.recv()[0]["stats"]["requests"] >= 0
            assert conn.recv()[0]["health"]["status"] == "ok"
            for req_id in (5, 6):
                msg = conn.recv()[0]
                assert (msg["id"], msg["error"]) == (req_id, "bad-request")
            self._fft_reply(conn, 7, xs[2])
            msg = conn.recv()[0]
            assert (msg["id"], msg["error"]) == (8, "bad-request")
            self._fft_reply(conn, 9, xs[3])
        finally:
            conn.close()

    def test_a_no_batch_request_in_a_burst_runs_as_its_own_batch(
            self, served):
        svc, srv = served
        svc.prewarm(64)
        batches: list = []
        execute = svc._execute_batch
        svc._execute_batch = lambda key, batch: (
            batches.append([r.no_batch for r in batch]),
            execute(key, batch))[1]
        xs = [_vec(64, i) for i in range(5)]
        conn = self._dial(srv)
        try:
            conn._sock.sendall(b"".join(
                _frame({"op": "fft", "id": i, "no_batch": i == 2}, x)
                for i, x in enumerate(xs)))
            for i, x in enumerate(xs):
                self._fft_reply(conn, i, x)
        finally:
            conn.close()
        assert sum(map(len, batches)) == 5
        assert [True] in batches
        assert all(b == [True] or True not in b for b in batches)

    def test_a_burst_past_queue_limit_is_admitted_as_it_is_read(self):
        """A session holds at most ``queue_limit`` rows: a longer burst is
        admitted in groups while it is read, and every reply — a result or
        an ``overloaded`` — keeps its slot."""
        svc = FFTService(ServeConfig(queue_limit=4))
        srv = FFTServer(("127.0.0.1", 0), svc)
        srv.serve_background()
        xs = [_vec(64, i) for i in range(12)]
        conn = self._dial(srv)
        try:
            conn._sock.sendall(b"".join(
                _frame({"op": "fft", "id": i}, x) for i, x in enumerate(xs)))
            for i, x in enumerate(xs):
                msg, buf, _ = conn.recv()
                assert msg["id"] == i
                if i < 4 or msg["ok"]:  # the first group always fits
                    np.testing.assert_allclose(payload_array(msg, buf),
                                               np.fft.fft(x), atol=1e-6)
                else:
                    assert msg["error"] == "overloaded"
        finally:
            conn.close()
            srv.shutdown()
            srv.server_close()
            svc.close()

    def test_a_mid_burst_overload_is_answered_in_its_slot(self):
        """Rows 1, 1, 2, 1 against a queue of 3: the third request does
        not fit and is ``overloaded``; the fourth still does."""
        svc = FFTService(ServeConfig(queue_limit=3))
        srv = FFTServer(("127.0.0.1", 0), svc)
        srv.serve_background()
        xs = [_vec(64, 0), _vec(64, 1), np.stack([_vec(64, 2), _vec(64, 3)]),
              _vec(64, 4)]
        conn = self._dial(srv)
        try:
            conn._sock.sendall(b"".join(
                _frame({"op": "fft", "id": i}, x) for i, x in enumerate(xs)))
            for i, x in enumerate(xs):
                if i != 2:
                    self._fft_reply(conn, i, x)
                    continue
                msg = conn.recv()[0]
                assert (msg["id"], msg["error"]) == (2, "overloaded")
                assert msg["retry_after"] > 0
            assert svc.stats()["rejected"] == 1
        finally:
            conn.close()
            srv.shutdown()
            srv.server_close()
            svc.close()


class TestIdleNeverBlocks:
    """``FrameConn.idle`` on a blocking (server-side) and a timed socket."""

    @pytest.fixture(params=[None, 30.0], ids=["blocking", "timed"])
    def pair(self, request):
        with socket.create_server(("127.0.0.1", 0)) as lsock:
            near = FrameConn.dial(lsock.getsockname(), 30.0)
            sock, _ = lsock.accept()
        sock.settimeout(request.param)
        far = FrameConn(sock)
        yield near, far
        near.close()
        far.close()

    @staticmethod
    def _idle(conn) -> bool:
        out: list = []
        t = threading.Thread(target=lambda: out.append(conn.idle()),
                             daemon=True)
        t.start()
        t.join(5.0)
        assert out, "idle() blocked"
        return out[0]

    @staticmethod
    def _arrived(conn) -> None:
        assert select.select([conn._sock], [], [], 5.0)[0]

    def test_each_state(self, pair):
        near, far = pair
        ping1, ping2 = (dump_line({"op": "ping", "id": i}) for i in (1, 2))
        assert self._idle(far)  # nothing received

        near._sock.sendall(ping1[:5])  # a partial frame, on the socket
        self._arrived(far)
        assert not self._idle(far)

        near._sock.sendall(ping1[5:] + ping2)
        time.sleep(0.05)  # both frames in, so one fill reads both
        assert far.recv()[:2] == ({"op": "ping", "id": 1}, None)
        assert not self._idle(far)  # the second frame, in the reader
        assert far.recv()[:2] == ({"op": "ping", "id": 2}, None)
        assert self._idle(far)

        near.send({"op": "ping", "id": 3})  # a frame readable on the socket
        self._arrived(far)
        assert not self._idle(far)
        assert far.recv()[:2] == ({"op": "ping", "id": 3}, None)
        assert self._idle(far)

        near.close()  # a hang-up is for recv() to report
        self._arrived(far)
        assert not self._idle(far)
        assert far.recv() is None


class _SlowRuntime:
    """Runs the plan sequentially after a pause, saying when it started
    and finished."""

    def __init__(self):
        self.started, self.finished = threading.Event(), threading.Event()

    def run(self, plan, X, out=None):
        self.started.set()
        time.sleep(0.2)
        result = SequentialRuntime().run(plan, X, out)
        self.finished.set()
        return result


@pytest.mark.parametrize("path", ["dispatched", "inline"])
def test_drain_waits_for_the_executing_batch(path):
    with FFTService(ServeConfig()) as svc:
        rt = _SlowRuntime()
        svc._runtime_for = lambda threads: rt
        x = _vec(64)
        if path == "dispatched":  # queued, and run by its waiter
            ticket = svc.submit(x)
            threading.Thread(target=ticket.result, daemon=True).start()
        else:
            out: list = []
            worker = threading.Thread(
                target=lambda: out.append(svc.transform(x)))
            worker.start()
        assert rt.started.wait(5.0)
        assert svc.drain(timeout=5.0)
        assert rt.finished.is_set()
        if path == "dispatched":
            assert ticket.done()
        else:
            worker.join(5.0)
            np.testing.assert_allclose(out[0], np.fft.fft(x), atol=1e-6)


def test_graceful_shutdown_answers_a_request_running_inline():
    svc = FFTService(ServeConfig())
    rt = _SlowRuntime()
    svc._runtime_for = lambda threads: rt
    srv = _RecordingServer(("127.0.0.1", 0), svc)
    srv.serve_background()
    x, out = _vec(64), []
    with ServeClient("127.0.0.1", srv.port) as client:
        asker = threading.Thread(target=lambda: out.append(client.fft(x)))
        asker.start()
        assert rt.started.wait(5.0)
        drain = svc.drain
        drained_after_run: list = []
        svc.drain = lambda timeout: (drain(timeout),
                                     drained_after_run.append(
                                         rt.finished.is_set()))[0]
        assert graceful_shutdown(srv, svc, drain_timeout=5.0)
        asker.join(5.0)
        assert not asker.is_alive()
        assert srv.sessions[0].queued == []  # it ran on the handler thread
    assert drained_after_run == [True]
    np.testing.assert_allclose(out[0], np.fft.fft(x), atol=1e-6)


def test_two_connections_run_two_handler_threads_and_nothing_else(
        monkeypatch):
    """The thread census of a served service: the accept loop and one
    handler per connection, also when every burst queues and a waiting
    handler runs it — no dispatcher, no per-connection writer."""
    before = set(threading.enumerate())
    svc = FFTService(ServeConfig())
    queue_every_group(monkeypatch, svc)
    srv = FFTServer(("127.0.0.1", 0), svc)
    srv.serve_background()
    try:
        xs = [_vec(64, seed) for seed in range(8)]
        with ServeClient("127.0.0.1", srv.port) as a, \
                ServeClient("127.0.0.1", srv.port) as b:
            for client in (a, b):
                for x, (y, _, err) in zip(xs, client.fft_pipeline(xs)):
                    assert err is None
                    np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
            started = [t for t in threading.enumerate() if t not in before]
            assert len(started) == 3, started
            assert sum(t.name.endswith("-tcp") for t in started) == 1
        assert svc.stats()["avg_batch_occupancy"] > 1
    finally:
        srv.shutdown()
        srv.server_close()
        svc.close()


@pytest.mark.parametrize("queued", [False, True], ids=["inline", "queued"])
def test_a_client_that_never_reads_delays_no_other_connection(queued,
                                                             monkeypatch):
    """A connection pipelines ``(4, 16384)`` frames and reads nothing, so
    its handler blocks writing its own socket and the client's sends
    stall — at once when its frames run on the handler thread, and, when
    every group queues, once it has read ``queue_limit`` rows ahead of its
    replies; another connection's lone requests still run at once."""
    svc = FFTService(ServeConfig(queue_limit=32))
    if queued:
        queue_every_group(monkeypatch, svc)
    srv = FFTServer(("127.0.0.1", 0), svc)
    srv.serve_background()
    stuck = FrameConn.dial(("127.0.0.1", srv.port), 10.0)
    frame = _frame({"op": "fft", "id": 0}, np.ones((4, 16384), complex))
    sent = [0]

    def pipeline():
        try:
            for _ in range(64):
                stuck._sock.sendall(frame)
                sent[0] += 1
        except OSError:  # timed out, or closed below
            pass

    sender = threading.Thread(target=pipeline, daemon=True)
    sender.start()
    try:
        last = -1
        while last != sent[0]:  # until the stuck client's sends stall
            last = sent[0]
            time.sleep(0.5)
        assert sender.is_alive() and last < 64
        x = _vec(64)
        with ServeClient("127.0.0.1", srv.port, timeout=10.0) as other:
            other.fft(x)  # the plan built, the connection up
            t0 = time.monotonic()
            for _ in range(20):
                np.testing.assert_allclose(other.fft(x), np.fft.fft(x),
                                           atol=1e-6)
            assert time.monotonic() - t0 < 2.0
        assert sent[0] == last  # the stuck client is still stuck
    finally:
        stuck.sever()
        stuck.close()
        sender.join(10.0)
        srv.shutdown()
        srv.server_close()
        svc.close()
