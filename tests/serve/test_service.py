"""FFTService: batching, admission control, deadlines, lifecycle."""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    DeadlineExceeded,
    FFTServer,
    FFTService,
    FFTTicket,
    Overloaded,
    RemoteError,
    ServeClient,
    ServeConfig,
    ServeError,
    ServiceClosed,
)
from repro.serve.server import _answer
from repro.serve.service import MAX_RAISING_PASSES

from . import ResolvedByHand


def _vec(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestTransform:
    def test_single_vector_roundtrip(self):
        with FFTService(ServeConfig()) as svc:
            x = _vec(64)
            y = svc.transform(x)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
            assert y.shape == x.shape

    def test_stacked_request(self):
        with FFTService(ServeConfig()) as svc:
            X = np.stack([_vec(128, s) for s in range(4)])
            Y = svc.transform(X)
            np.testing.assert_allclose(Y, np.fft.fft(X, axis=-1), atol=1e-6)

    def test_out_holds_the_result_alone_or_batched(self):
        """A request's ``out`` is where its result lands, whether it runs
        as a batch of one or as rows of a batch of several; an ``out``
        that could not take it is refused by ``request`` itself."""
        with FFTService(ServeConfig()) as svc:
            x = _vec(256)
            out = np.full(256, np.nan, complex)
            y = svc.transform(x, out=out)
            assert np.shares_memory(y, out) and y.shape == (256,)
            np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-9)

            xs = [np.stack([_vec(256, s), _vec(256, s + 9)])
                  for s in range(3)]
            outs = [np.full((2, 256), np.nan, complex) for _ in xs]
            group = [svc.request(x, out=o) for x, o in zip(xs, outs)]
            svc.admit(group, here=True)
            for req, x, o in zip(group, xs, outs):
                assert req.ticket.result() is o
                np.testing.assert_allclose(o, np.fft.fft(x, axis=-1),
                                           atol=1e-9)
            assert svc.stats()["batches"] == 2  # the three ran as one

            buf = _vec(512)
            for bad in (np.empty(256, np.complex64), np.empty(255, complex),
                        np.empty(512, complex)[::2], buf[100:356]):
                with pytest.raises(ValueError, match="out"):
                    svc.request(buf[:256], out=bad)

    def test_threads_hint_respects_feasibility(self):
        # threads=4, mu=4 is infeasible for n=64 ((4*4)^2 > 64): the plan
        # key must clamp via feasible_threads instead of failing
        with FFTService(ServeConfig(threads=4, mu=4)) as svc:
            x = _vec(64)
            y = svc.transform(x)
            np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-6)
            keys = svc.plans.keys()
            assert len(keys) == 1 and keys[0].threads in (1, 2)

    def test_multicore_plan(self):
        with FFTService(ServeConfig(threads=2, mu=4)) as svc:
            x = _vec(256)
            np.testing.assert_allclose(
                svc.transform(x), np.fft.fft(x), atol=1e-6
            )
            assert svc.plans.keys()[0].threads == 2


class TestBatching:
    def test_window_coalesces_concurrent_requests(self):
        cfg = ServeConfig(max_batch=8)
        with FFTService(cfg) as svc:
            tickets = [svc.submit(_vec(64, s)) for s in range(4)]
            results = [t.result(2.0) for t in tickets]
            for s, y in enumerate(results):
                np.testing.assert_allclose(
                    y, np.fft.fft(_vec(64, s)), atol=1e-6
                )
            stats = svc.stats()
            # all four queued before anyone waited -> the first waiter
            # runs them as one batch
            assert stats["batches"] == 1
            assert stats["batched_vectors"] == 4
            assert stats["avg_batch_occupancy"] == pytest.approx(4.0)

    def test_max_batch_flushes_early(self):
        """A batch takes at most ``max_batch`` of what is queued; the rest
        is the next batch."""
        cfg = ServeConfig(max_batch=4)
        with FFTService(cfg) as svc:
            tickets = [svc.submit(_vec(64, s)) for s in range(6)]
            for s, t in enumerate(tickets):
                np.testing.assert_allclose(t.result(2.0),
                                           np.fft.fft(_vec(64, s)), atol=1e-6)
            stats = svc.stats()
            assert (stats["batches"], stats["batched_vectors"]) == (2, 6)

    def test_no_batch_skips_window(self):
        cfg = ServeConfig()
        with FFTService(cfg) as svc:
            t0 = time.perf_counter()
            y = svc.transform(_vec(64), no_batch=True)
            assert time.perf_counter() - t0 < 5.0
            np.testing.assert_allclose(y, np.fft.fft(_vec(64)), atol=1e-6)

    def test_a_queued_no_batch_request_is_a_batch_of_its_own(self):
        """The baton holder never coalesces a ``no_batch`` request with
        the same-key requests queued beside it."""
        with FFTService(ServeConfig(max_batch=8)) as svc:
            batches: list = []
            execute = svc._execute_batch
            svc._execute_batch = lambda key, batch: (
                batches.append([r.no_batch for r in batch]),
                execute(key, batch))[1]
            tickets = [svc.submit(_vec(64, s), no_batch=s == 1)
                       for s in range(3)]
            for s, t in enumerate(tickets):
                np.testing.assert_allclose(t.result(2.0),
                                           np.fft.fft(_vec(64, s)), atol=1e-6)
        assert sum(map(len, batches)) == 3
        assert [True] in batches
        assert all(b == [True] or True not in b for b in batches)

    def test_different_sizes_do_not_share_batches(self):
        cfg = ServeConfig(max_batch=8)
        with FFTService(cfg) as svc:
            ta = svc.submit(_vec(64))
            tb = svc.submit(_vec(128))
            ta.result(2.0)
            tb.result(2.0)
            stats = svc.stats()
            assert stats["batches"] == 2
            assert len(svc.plans) == 2


class TestAdmissionControl:
    def test_overload_rejects_with_retry_after(self):
        # tiny queue; a submitted ticket nobody waits on stays pending
        cfg = ServeConfig(max_batch=64, queue_limit=2)
        svc = FFTService(cfg)
        try:
            svc.submit(_vec(64, 1))
            svc.submit(_vec(64, 2))
            with pytest.raises(Overloaded) as exc_info:
                svc.submit(_vec(64, 3))
            assert exc_info.value.retry_after > 0
            assert svc.stats()["rejected"] == 1
        finally:
            svc.close()

    def test_queue_limit_counts_vectors_not_requests(self):
        cfg = ServeConfig(max_batch=64, queue_limit=4)
        svc = FFTService(cfg)
        try:
            svc.submit(np.stack([_vec(64, s) for s in range(3)]))
            with pytest.raises(Overloaded):
                svc.submit(np.stack([_vec(64, s) for s in range(2)]))
        finally:
            svc.close()

    def test_a_request_larger_than_the_queue_is_a_value_error(self):
        """No wait ever admits more rows than ``queue_limit``: that is a
        bad request, not an overload, and nothing counts it rejected."""
        with FFTService(ServeConfig(queue_limit=4)) as svc:
            X = np.stack([_vec(64, s) for s in range(5)])
            with pytest.raises(ValueError, match="queue_limit"):
                svc.submit(X)
            with pytest.raises(ValueError, match="queue_limit"):
                svc.transform(X)
            np.testing.assert_allclose(svc.transform(X[:4]),
                                       np.fft.fft(X[:4], axis=-1), atol=1e-6)
            stats = svc.stats()
            assert stats["rejected"] == 0
            assert stats["requests"] == 1

    def test_a_request_larger_than_the_queue_is_not_retried_over_tcp(self):
        """Over the wire the same request is a non-retryable
        ``bad-request``: ``fft_retry`` fails on its first attempt."""
        svc = FFTService(ServeConfig(queue_limit=4))
        srv = FFTServer(("127.0.0.1", 0), svc)
        srv.serve_background()
        try:
            with ServeClient("127.0.0.1", srv.port) as client:
                X = np.stack([_vec(64, s) for s in range(5)])
                with pytest.raises(RemoteError) as exc_info:
                    client.fft_retry(X)
                assert exc_info.value.code == "bad-request"
                assert "queue_limit" in str(exc_info.value)
                assert client.retries_total == 0
                np.testing.assert_allclose(
                    client.fft_retry(X[:4]), np.fft.fft(X[:4], axis=-1),
                    atol=1e-6)
            assert svc.stats()["rejected"] == 0
        finally:
            srv.shutdown()
            srv.server_close()
            svc.close()

    def test_deadline_exceeded_while_queued(self):
        cfg = ServeConfig(max_batch=64)
        with FFTService(cfg) as svc:
            ticket = svc.submit(_vec(64), timeout=0.01)
            time.sleep(0.05)  # queued, unwaited, past its deadline
            with pytest.raises(DeadlineExceeded):
                ticket.result(5.0)
            assert svc.stats()["deadline_misses"] == 1

    @pytest.mark.parametrize(
        "timeout", [float("nan"), float("inf"), -float("inf"), True, "soon",
                    10 ** 400, 1e300],
        ids=["nan", "inf", "-inf", "bool", "str", "huge-int", "huge-float"])
    def test_a_timeout_that_is_not_a_finite_wait_is_a_value_error(
            self, timeout):
        with FFTService(ServeConfig()) as svc:
            with pytest.raises(ValueError, match="timeout"):
                svc.submit(_vec(64), timeout=timeout)
            assert svc.stats()["requests"] == 0

    @pytest.mark.parametrize("timeout", [2, 1.5, -1, -0.5])
    def test_a_finite_timeout_is_a_deadline(self, timeout):
        with FFTService(ServeConfig()) as svc:
            ticket = svc.submit(_vec(64), timeout=timeout)
            if timeout > 0:
                np.testing.assert_allclose(ticket.result(5.0),
                                           np.fft.fft(_vec(64)), atol=1e-6)
            else:  # already past: a typed miss, not a wrong answer
                with pytest.raises(DeadlineExceeded):
                    ticket.result(5.0)


class TestTicket:
    """A queued ticket resolves once, and any number of waiters read it."""

    def test_two_waiting_threads_both_get_the_result(self):
        ticket, got = FFTTicket(True, ResolvedByHand()), []
        waiters = [threading.Thread(target=lambda: got.append(
            ticket.result(10.0))) for _ in range(2)]
        for t in waiters:
            t.start()
        time.sleep(0.05)  # both waiting
        assert not ticket.done() and got == []
        y = np.arange(4.0)
        ticket._resolve(result=y)
        for t in waiters:
            t.join(10.0)
            assert not t.is_alive()
        assert len(got) == 2 and all(r is y for r in got)
        assert ticket.done() and ticket.result() is y and ticket.result(0) is y

    def test_a_timed_out_wait_leaves_the_ticket_to_resolve(self):
        ticket = FFTTicket(True, ResolvedByHand())
        with pytest.raises(DeadlineExceeded):
            ticket.result(0.01)
        with pytest.raises(DeadlineExceeded):
            ticket.result(-5.0)  # a negative wait is no wait
        threading.Timer(0.05, ticket._resolve,
                        kwargs={"error": KeyError("late")}).start()
        with pytest.raises(KeyError, match="late"):
            ticket.result()
        with pytest.raises(KeyError, match="late"):
            ticket.result(-5.0)  # resolved: every read sees the outcome


class TestLifecycle:
    def test_close_rejects_new_requests(self):
        svc = FFTService(ServeConfig())
        svc.transform(_vec(64))
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(_vec(64))

    def test_close_is_idempotent(self):
        svc = FFTService(ServeConfig())
        svc.close()
        svc.close()

    def test_runtime_pool_reused_across_requests(self):
        with FFTService(ServeConfig(threads=2)) as svc:
            for s in range(3):
                svc.transform(_vec(256, s))
            assert len(svc._runtimes) == 1

    def test_stats_shape(self):
        with FFTService(ServeConfig()) as svc:
            svc.transform(_vec(64))
            stats = svc.stats()
            for key in (
                "requests", "vectors", "batches", "batched_vectors",
                "rejected", "deadline_misses", "max_queue_depth",
                "avg_batch_occupancy", "plan_cache", "queue_depth", "config",
            ):
                assert key in stats
            assert stats["requests"] == 1
            assert stats["plan_cache"]["plans_built"] == 1

    def test_stats_report_every_declared_count_and_process_fallbacks(self):
        with FFTService(ServeConfig()) as svc:
            svc.prewarm(64)
            stats = svc.stats()
            assert set(FFTService.COUNTERS) <= set(stats)
            assert stats["prewarms"] == 1
            assert set(stats["codegen"]) == {"backend_fallback",
                                             "compile_fallback"}
            assert set(stats["vector"]) == {"fallback", "no_simd"}


class TestRaisingPasses:
    """A batch pass that always raises: the request at the queue's head
    fails after ``MAX_RAISING_PASSES`` such passes in a row and leaves the
    queue, so every wait — also one with no timeout — ends."""

    @pytest.fixture
    def broken(self, monkeypatch):
        svc = FFTService(ServeConfig(default_timeout_s=None))

        def boom():
            raise RuntimeError("injected pass failure")

        monkeypatch.setattr(svc, "_next_batch", boom)
        yield svc
        svc.close()

    @staticmethod
    def _ends(fn):
        got = []
        t = threading.Thread(target=lambda: got.append(fn()), daemon=True)
        t.start()
        t.join(10.0)
        assert not t.is_alive(), "the wait never ended"
        return got[0]

    def test_drain_with_no_timeout_ends(self, broken):
        tickets = [broken.submit(_vec(64, s)) for s in range(3)]
        assert self._ends(lambda: broken.drain(None)) is True
        for t in tickets:
            with pytest.raises(ServeError, match="in a row raised"):
                t.result()
        stats = broken.stats()
        assert stats["pass_failures"] == 3 * MAX_RAISING_PASSES
        assert (stats["failures"], stats["queue_depth"]) == (3, 0)

    def test_close_ends(self, broken):
        tickets = [broken.submit(_vec(64, s)) for s in range(2)]
        self._ends(broken.close)
        for t in tickets:
            with pytest.raises(ServeError, match="in a row raised"):
                t.result()
        assert broken.stats()["failures"] == 2

    def test_a_waiter_with_no_timeout_ends_with_internal(self, broken):
        req = broken.request(_vec(64))
        broken.admit([req])  # queued
        header, payload = self._ends(lambda: _answer((req, 7, None, None)))
        assert (header["id"], header["error"]) == (7, "internal")
        assert payload is None
        assert broken.stats()["pass_failures"] == MAX_RAISING_PASSES

    def test_a_pass_that_raises_after_taking_fails_what_it_took(
            self, monkeypatch):
        """The batch was out of the queue when its pass raised: its
        tickets carry the pass's error, and no queued request is
        charged."""
        svc = FFTService(ServeConfig(default_timeout_s=None))

        def boom(key, batch):
            raise RuntimeError("injected bookkeeping failure")

        monkeypatch.setattr(svc, "_execute_batch", boom)
        try:
            tickets = [svc.submit(_vec(64, s)) for s in range(3)]
            assert self._ends(lambda: svc.drain(None)) is True
            for t in tickets:
                with pytest.raises(RuntimeError, match="bookkeeping"):
                    t.result(0.5)
            stats = svc.stats()
            assert (stats["pass_failures"], stats["failures"],
                    stats["queue_depth"]) == (1, 3, 0)
        finally:
            svc.close()


class TestHealthFallbacks:
    def test_default_config_is_ok_with_no_fallbacks(self):
        with FFTService(ServeConfig()) as svc:
            svc.transform(_vec(64))
            snap = svc.health()
            assert snap["status"] == "ok" and snap["fallbacks"] == []

    @pytest.mark.filterwarnings("ignore:backend 'compiled' unavailable")
    def test_numpy_serving_a_compiled_config_is_degraded(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CC", "1")
        with FFTService(ServeConfig(backend="compiled")) as svc:
            assert svc.health()["status"] == "ok"  # nothing built yet
            x = _vec(1024)
            np.testing.assert_allclose(svc.transform(x), np.fft.fft(x),
                                       atol=1e-6)
            snap = svc.health()
            assert snap["status"] == "degraded"
            assert snap["fallbacks"] == [
                "n1024:t1:mu4:balanced compiled->numpy"]
            assert svc.stats()["codegen"]["backend_fallback"] >= 1
            # derived from the cache: the reason leaves with the plan
            svc.plans.clear()
            assert svc.health()["status"] == "ok"


class TestStageFailure:
    def test_a_raising_stage_strands_no_worker(self):
        """A work exception on a threads=2 plan: the ticket carries it, the
        batch retires the broken pool (``health`` stays ``ok``), and once
        the next request has rebuilt it the process holds as many threads
        as before (the old worker used to stay parked forever, and retiring
        its pool held ``_runtime_lock`` for five seconds)."""
        def boom(proc, src, dst):
            if proc == 1:
                raise RuntimeError("kernel failed")
            time.sleep(0.02)  # the master meets the broken barrier next

        with FFTService(ServeConfig(threads=2)) as svc:
            x = _vec(256)
            key = svc.config.plan_key(256)
            np.testing.assert_allclose(svc.transform(x), np.fft.fft(x),
                                       atol=1e-6)
            good = svc.plans.get(key)
            before = threading.active_count()
            bad = dataclasses.replace(good, stages=[
                dataclasses.replace(st, work=boom) for st in good.stages])
            assert svc.plans.swap(key, bad)
            with pytest.raises(RuntimeError, match="kernel failed"):
                svc.submit(x).result(timeout=2.0)
            assert svc.plans.swap(key, good)
            assert svc.health()["status"] == "ok"
            assert svc._runtimes == {}
            np.testing.assert_allclose(svc.transform(x), np.fft.fft(x),
                                       atol=1e-6)
            assert svc.stats()["pool_rebuilds"] == 1
            assert threading.active_count() == before
            assert svc.stats()["failures"] == 1
