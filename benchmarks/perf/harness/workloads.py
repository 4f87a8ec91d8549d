"""The six workloads: set-up, the timed op, and the traced-round ladders.

Every call into the program goes through a public function of ``repro``;
each layer is measured from outside, by timing that call.
"""

from __future__ import annotations

import dataclasses
import io
import math
import multiprocessing
import os
import shutil
import statistics
import threading
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.codegen import (
    compile_plan,
    emit_plan_source,
    generate,
    resolve_backend,
)
from repro.codegen.compiled_backend import clear_compiled_memo
from repro.frontend import generate_fft, spiral_formula, vectorize_formula
from repro.mp import PlanSpec, ProcessPoolRuntime
from repro.serve.batch_exec import run_batched
from repro.serve.client import RemoteError, ServeClient
from repro.serve.plan_cache import PlanCache, PlanKey
from repro.serve.protocol import read_frame, write_frame
from repro.serve.service import FFTService, ServeConfig
from repro.shard.fleet import ShardFleet
from repro.shard.router import ShardRouter
from repro.sigma.lower import lower
from repro.smp.runtime import PThreadsRuntime, SequentialRuntime

from . import host
from .measure import (
    Block,
    Calibrator,
    Case,
    slowdown,
    timed_op,
    workload_rng,
)
from .spec import (
    MIX_DEPTH,
    MIX_POOL_ROUNDS,
    MIX_ROUNDS_PER_BLOCK,
    MIX_SIZES,
    MIX_WEIGHTS,
    MU,
    NU,
    PLAN_LADDER,
    REL_ERR_TOL,
    SERVE_CONFIG,
    Workload,
)
from .stats import percentile, tail_quantile


class SetupError(RuntimeError):
    """The host would run a different program than the workload names."""


class RunEnv:
    """Per-run scratch space and core assignment, released by ``close``."""

    def __init__(self, scratch: Path, allowed: set[int], core: int):
        self.scratch = scratch
        #: every core the process may use, and the one it is pinned to
        self.allowed = allowed
        self.core = core
        self._caches = 0
        scratch.mkdir(parents=True, exist_ok=True)
        # cc's intermediate files stay in here too
        os.environ["TMPDIR"] = str(scratch)

    def fresh_codelet_cache(self) -> Path:
        """Point the program at a new, empty codelet cache (a cold start)."""
        self._caches += 1
        path = self.scratch / f"codelets-{self._caches}"
        path.mkdir()
        os.environ["REPRO_CODELET_CACHE"] = str(path)
        clear_compiled_memo()
        return path

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _strict_compiled_stages(n: int, threads: int, nu: int):
    """Compiled stages for ``(n, threads, nu)`` or a loud failure.

    No NumPy fallback (strict resolve, ``fallback=False``) and no silent
    devectorization (every lowered loop must carry the requested ν).
    """
    gen = generate_fft(n, threads=threads, mu=MU, nu=nu)
    got = {lp.nu for st in gen.program.stages for lp in st.loops}
    if got != {nu}:
        raise SetupError(
            f"n={n} threads={threads}: requested nu={nu}, plan carries {got}"
        )
    backend = resolve_backend("compiled", strict=True)
    return gen, backend.build_stages(gen.program, fallback=False)


def _noop(proc, src, dst):
    pass


class WorkloadRun:
    """One workload in one process: ``setup``, ``run_block``..., ``close``."""

    def __init__(self, wl: Workload, seed: int, env: RunEnv):
        self.wl = wl
        self.env = env
        self.rng = workload_rng(seed, wl.name)
        self.cal = Calibrator()
        #: traced round: median wall of each ladder rung, in us on the
        #: reference core's scale
        self.rungs: dict[str, float] = {}
        self._stack = ExitStack()
        self._op_ids = 0

    def setup(self, mark: Callable[[str], None]) -> dict:
        """Cold start to first verified result; returns the plan block.

        ``mark(phase)`` is called at the end of each set-up phase.
        """
        raise NotImplementedError

    def run_block(self, store=None) -> Block:
        """``wl.ops_per_block`` closed-loop ops, each verified."""
        raise NotImplementedError

    def server_pid(self) -> Optional[int]:
        return None

    def snapshot(self) -> dict:
        """Cumulative boundary counters (deltas are taken by the runner)."""
        return {}

    def layers(self, store, ctx: dict) -> dict:
        """Traced-round ladders and counts; missing names are reported 0."""
        return {}

    def close(self) -> None:
        self._stack.close()

    def _next_op(self) -> int:
        self._op_ids += 1
        return self._op_ids

    def _timed(self, block: Block, call, check, store, span: str = "",
               refused: tuple = ()) -> None:
        timed_op(block, call, check, self.cal, self.wl.cal_per_op,
                 refused=refused, store=store, span=span,
                 op_id=self._next_op())

    def _first_op(self, block: Block) -> None:
        if block.failed or not block.ok_s:
            raise SetupError(f"{self.wl.name}: first result failed to verify")

    def _rung(self, store, name: str, call, cases: list) -> None:
        """One ladder rung: ``wl.ladder_reps`` calls of ``call(case)``, each
        under a span ``name``.

        Each call is followed by calibration and, if it returns a result,
        verified; the rung's value goes to ``self.rungs[name]``.
        """
        wl, cal = self.wl, self.cal
        durations, cal_s = [], []
        for r in range(wl.ladder_reps):
            case = cases[r % len(cases)]
            sid = store.begin(name, r)
            y = call(case)
            durations.append(store.end(sid))
            cal_s.extend(cal.sample(wl.cal_per_op))
            if y is not None and not case.rel_err(y) <= REL_ERR_TOL:
                raise SetupError(f"{wl.name}: rung {name} is wrong")
        self.rungs[name] = (statistics.median(durations) * 1e6
                            / slowdown(cal_s, wl.core_share))


# -- kernel -----------------------------------------------------------------


class KernelRun(WorkloadRun):
    """``run_batched(stages, n, x[b, n], SequentialRuntime())``, compiled ν=4."""

    SPAN = "codegen.compiled_nu4.call"

    def setup(self, mark) -> dict:
        wl = self.wl
        self.env.fresh_codelet_cache()
        self.gen, self.stages = _strict_compiled_stages(wl.n, 1, NU)
        mark("plan")
        self.rt = SequentialRuntime()
        # a pool of a few inputs so the kernel is not fed one hot buffer;
        # sized to stay near 50 MiB at the large size
        pool = max(3, min(16, (1 << 18) // (wl.n * wl.batch)))
        self.cases = [
            Case.make(self.rng, (wl.batch, wl.n)) for _ in range(pool)
        ]
        mark("inputs")
        block = Block(self.wl.core_share)
        self._op(block, self.cases[0], None)
        self._first_op(block)
        mark("first_op")
        return {
            "requested": {"backend": "compiled", "nu": NU,
                          "runtime": "sequential", "threads": 1},
            "effective": {"backend": "compiled", "nu": NU,
                          "runtime": "sequential", "threads": 1},
        }

    def _op(self, block: Block, case: Case, store) -> None:
        stages, n, rt = self.stages, self.wl.n, self.rt
        self._timed(block, lambda: run_batched(stages, n, case.x, rt)[0],
                    case.rel_err, store, self.SPAN)

    def run_block(self, store=None) -> Block:
        block = Block(self.wl.core_share)
        cases = self.cases
        for i in range(self.wl.ops_per_block):
            self._op(block, cases[i % len(cases)], store)
        return block

    def layers(self, store, ctx) -> dict:
        n, b = self.wl.n, self.wl.batch
        cases = self.cases[:1]
        flat = np.ascontiguousarray(cases[0].x).reshape(-1)
        seq = SequentialRuntime()

        def rung(name: str, call) -> None:
            self._rung(store, name, call, cases)

        gen1 = generate_fft(n, threads=1, mu=MU, nu=1)
        np_stages = resolve_backend("numpy").build_stages(gen1.program)
        _, c1_stages = _strict_compiled_stages(n, 1, 1)
        rung("ref.npfft.call", lambda c: np.fft.fft(c.x, axis=-1))
        rung("codegen.python.call",
             lambda c: np.stack([gen1(row) for row in c.x]))
        rung("codegen.numpy.call",
             lambda c: run_batched(np_stages, n, c.x, seq)[0])
        rung("codegen.compiled_nu1.call",
             lambda c: run_batched(c1_stages, n, c.x, seq)[0])
        rung("codegen.compiled_nu4.call",
             lambda c: run_batched(self.stages, n, c.x, seq)[0])

        def walk(stages, rt):
            noop = [dataclasses.replace(st, work=_noop) for st in stages]

            def call(_case):
                rt.execute(noop, flat, flat.size)

            return call

        rung("smp.sequential.walk", walk(self.stages, seq))

        work_items = 0

        def counting(st):
            def work(proc, src, dst, _w=st.work):
                nonlocal work_items
                work_items += 1
                _w(proc, src, dst)

            return dataclasses.replace(st, work=work)

        run_batched([counting(st) for st in self.stages], n, cases[0].x, seq)

        # two threads need two cores: leave the one-core pin for these rungs,
        # then go back (a pool's threads inherit the mask they are born with).
        # The calibration still runs on this thread's core only, which is
        # one more reason these rungs are diagnostics and never gated.
        _, t2_stages = _strict_compiled_stages(n, 2, NU)
        os.sched_setaffinity(0, self.env.allowed)
        try:
            with PThreadsRuntime(2) as rt2:
                stats2 = run_batched(t2_stages, n, cases[0].x, rt2)[1]
                rung("smp.pthreads_t2.call",
                     lambda c: run_batched(t2_stages, n, c.x, rt2)[0])
                rung("smp.pthreads_t2.walk", walk(t2_stages, rt2))
            if n >= 1 << 16:  # process hand-off only pays at the large size
                spec = PlanSpec.for_request(
                    n, threads=2, mu=MU, backend="compiled", nu=NU
                )
                if spec.threads != 2:
                    raise SetupError(f"n={n}: no 2-process plan ({spec})")
                with ProcessPoolRuntime(2) as pool:
                    pool.execute_spec(spec, cases[0].x)  # workers compile
                    rung("mp.process_t2.call",
                         lambda c: pool.execute_spec(spec, c.x)[0])
        finally:
            os.sched_setaffinity(0, {self.env.core})

        flops = 5.0 * n * math.log2(n) * b
        out = {f"{name}_us": us for name, us in self.rungs.items()}
        out.update({
            "kernel.pseudo_mflops": flops / ctx["op_p50_us"],
            "codegen.compiled.stage_calls": len(self.stages),
            "codegen.compiled.work_items": work_items,
            "smp.pthreads_t2.barriers": stats2.barriers,
            "smp.pthreads_t2.parallel_stages": stats2.parallel_stages,
            "kernel.flops_nominal": flops,
            "kernel.bytes_moved_computed":
                2 * 16 * n * b * len(self.stages),
            "kernel.stages": len(self.stages),
        })
        return out


# -- plan_build -------------------------------------------------------------


class PlanBuildRun(WorkloadRun):
    """One cold plan build per op, formula to loaded shared object.

    A block is one build; a lap is one pass over ``PLAN_LADDER`` into a
    codelet cache that is emptied when the lap starts.
    """

    def setup(self, mark) -> dict:
        resolve_backend("compiled", strict=True)
        self.numpy_backend = resolve_backend("numpy")
        self.seq = SequentialRuntime()
        self.cases = {
            n: Case.make(self.rng, (1, n)) for n in sorted(
                {n for n, _ in PLAN_LADDER})
        }
        mark("inputs")
        self._new_lap()
        #: slowdown factor of each build, by op id, to scale its spans with
        self._op_slowdown: dict[int, float] = {}
        self._at = 0
        block = Block(self.wl.core_share)
        self._op(block, 64, NU, None)
        self._first_op(block)
        mark("first_op")
        return {
            "requested": {"backend": "compiled", "nu": [1, NU],
                          "runtime": "sequential", "threads": 1},
            "effective": {"backend": "compiled", "nu": [1, NU],
                          "runtime": "sequential", "threads": 1},
        }

    def _new_lap(self) -> None:
        self._cache = self.env.fresh_codelet_cache()
        self._lap: list = []  # (program, source, compiled plan) per build

    def _build(self, n: int, nu: int, store):
        def step(name, fn, *args, **kw):
            if store is None:
                return fn(*args, **kw)
            sid = store.begin(name)
            out = fn(*args, **kw)
            store.end(sid)
            return out

        f = step("rewrite.formula", spiral_formula, n, 1, MU)
        f, eff = step("vector.vectorize", vectorize_formula, f, n, 1, nu)
        if eff != nu:
            raise SetupError(f"plan_build n={n}: nu={nu} degraded to {eff}")
        prog = step("sigma.lower", lower, f, barrier_mu=MU)
        step("codegen.python.generate", generate, prog)
        step("codegen.numpy.build_stages",
             self.numpy_backend.build_stages, prog)
        src = step("codegen.compiled.emit", emit_plan_source, prog)
        plan = step("codegen.compiled.compile_plan", compile_plan, prog)
        return prog, src, plan

    def _check(self, n: int):
        """Relative error of the built plan, ``inf`` unless it was cold."""
        case = self.cases[n]

        def check(built) -> float:
            self._lap.append(built)
            if len(list(self._cache.glob("plan_*.so"))) != len(self._lap):
                return float("inf")  # a cache hit is not a plan build
            y, _ = run_batched(built[2].plan_stages(), n, case.x, self.seq)
            return case.rel_err(y)

        return check

    def _op(self, block: Block, n: int, nu: int, store) -> None:
        self._timed(block, lambda: self._build(n, nu, store), self._check(n),
                    store)
        self._op_slowdown[self._op_ids] = slowdown(block.cal_s)

    def run_block(self, store=None) -> Block:
        rung = self._at % len(PLAN_LADDER)
        self._at += 1
        if rung == 0:
            self._new_lap()
        block = Block(self.wl.core_share)
        self._op(block, *PLAN_LADDER[rung], store)
        return block

    def layers(self, store, ctx) -> dict:
        # the disk-cache read path: the last lap's objects are on disk, the
        # in-process memo is dropped, so compile_plan only loads
        clear_compiled_memo()
        hit_s = 0.0
        for i, (prog, _src, _plan) in enumerate(self._lap):
            sid = store.begin("codegen.compiled.cache_hit", i)
            compile_plan(prog)
            seconds = store.end(sid)
            hit_s += seconds / slowdown(self.cal.sample(self.wl.cal_per_op))

        laps = ctx["traced_blocks"] / len(PLAN_LADDER)
        totals: dict[str, float] = {}
        for name, start, end, _parent, op in store.spans:
            factor = self._op_slowdown.get(op)
            if factor is not None:
                totals[name] = totals.get(name, 0.0) + (end - start) / factor

        def total(name: str) -> float:
            return totals.get(name, 0.0) / laps

        emit = total("codegen.compiled.emit")
        return {
            "rewrite.formula_s": total("rewrite.formula"),
            "vector.vectorize_s": total("vector.vectorize"),
            "sigma.lower_s": total("sigma.lower"),
            "codegen.python.generate_s": total("codegen.python.generate"),
            "codegen.numpy.build_stages_s":
                total("codegen.numpy.build_stages"),
            "codegen.compiled.emit_s": emit,
            # compile_plan emits the source again before it calls cc
            "codegen.compiled.cc_s":
                total("codegen.compiled.compile_plan") - emit,
            "codegen.compiled.cache_hit_s": hit_s,
            "codegen.compiled.source_bytes":
                sum(len(src.encode()) for _p, src, _c in self._lap),
            "codegen.compiled.so_bytes":
                sum(c.so_path.stat().st_size for _p, _s, c in self._lap),
            "sigma.stages": sum(len(p.stages) for p, _s, _c in self._lap),
            "sigma.loops": sum(
                len(st.loops) for p, _s, _c in self._lap for st in p.stages
            ),
        }


# -- serve ------------------------------------------------------------------

#: a typed refusal or a dropped connection is a failed op, not a crash
REFUSED = (RemoteError, ConnectionError)


class ServeRun(WorkloadRun):
    """Closed-loop clients against a 1-shard fleet child, compiled ν=4."""

    SPAN = "serve.client.fft"

    def setup(self, mark) -> dict:
        wl = self.wl
        self.env.fresh_codelet_cache()
        resolve_backend("compiled", strict=True)
        self.cfg = ServeConfig(**SERVE_CONFIG)
        self.mix = wl.n == 0
        self.sizes = MIX_SIZES if self.mix else (wl.n,)
        self.router: Optional[ShardRouter] = None

        self.fleet = self._stack.enter_context(ShardFleet(1, self.cfg))
        # multiprocessing's own count: the shard, not its resource tracker
        pids = [p.pid for p in multiprocessing.active_children()]
        if len(pids) != 1:
            raise SetupError(f"expected one shard child, found {pids}")
        self._server_pid = pids[0]
        host.pin_tasks(self._server_pid, self.env.core)
        self.shard_addr = self.fleet.address(self.fleet.shard_ids[0])
        addr = self._router_addr() if wl.routed else self.shard_addr
        self.clients = [self._client(addr) for _ in range(wl.connections)]
        mark("spawn_connect")

        effective_backend = set()
        for n in self.sizes:
            effective_backend.add(self.clients[0].prewarm(n)["backend"])
            # the shard plans with the same code on the same host, so the
            # ν it gets is the ν this process gets
            gen = generate_fft(n, threads=self.cfg.threads, mu=self.cfg.mu,
                               nu=self.cfg.nu)
            got = {lp.nu for st in gen.program.stages for lp in st.loops}
            if got != {self.cfg.nu}:
                raise SetupError(f"serve n={n}: plan carries nu={got}")
        if effective_backend != {"compiled"}:
            raise SetupError(
                f"shard built its plans with {effective_backend}, "
                "not the compiled backend"
            )
        mark("prewarm")

        if self.mix:
            self._make_mix_pool()
        else:
            shape = (wl.n,) if wl.batch == 1 else (wl.batch, wl.n)
            pool = 16 if wl.batch == 1 else 4
            self.cases = [Case.make(self.rng, shape) for _ in range(pool)]
        mark("inputs")
        block = Block(self.wl.core_share)
        self._pingpong(self.clients[0], block, self.cases[0], None)
        self._first_op(block)
        mark("first_op")
        return {
            "requested": {"backend": self.cfg.backend, "nu": self.cfg.nu,
                          "runtime": "threads", "threads": self.cfg.threads},
            "effective": {"backend": "compiled", "nu": self.cfg.nu,
                          "runtime": "sequential",
                          "threads": self.cfg.threads},
        }

    def _make_mix_pool(self) -> None:
        """The request pool: exact size shares, seeded order."""
        conns = self.wl.connections
        total = MIX_POOL_ROUNDS * conns * MIX_DEPTH
        counts = [round(w * total) for w in MIX_WEIGHTS]
        if sum(counts) != total:
            raise SetupError(f"mix shares {counts} do not fill {total}")
        sizes = np.repeat(MIX_SIZES, counts)
        self.rng.shuffle(sizes)
        #: rounds[r][connection] is one burst of MIX_DEPTH cases
        self.rounds = [
            [[Case.make(self.rng, (int(n),)) for n in burst] for burst in rnd]
            for rnd in sizes.reshape(MIX_POOL_ROUNDS, conns, MIX_DEPTH)
        ]
        self.cases = [c for rnd in self.rounds for c in rnd[0]]
        self._round_at = 0

    def _client(self, addr) -> ServeClient:
        return self._stack.enter_context(ServeClient(*addr))

    def _router_addr(self):
        if self.router is None:
            self.router = ShardRouter(("127.0.0.1", 0), self.fleet)
            self.router.serve_background()
            self._stack.callback(self.router.close)
        return ("127.0.0.1", self.router.port)

    def server_pid(self) -> Optional[int]:
        return self._server_pid

    # -- the op ---------------------------------------------------------------

    def _pingpong(self, client, block: Block, case: Case, store) -> None:
        self._timed(block, lambda: client.fft(case.x), case.rel_err, store,
                    self.SPAN, refused=REFUSED)

    def run_block(self, store=None) -> Block:
        if self.mix:
            return self._mix_block(store)
        block = Block(self.wl.core_share)
        client, cases = self.clients[0], self.cases
        for i in range(self.wl.ops_per_block):
            self._pingpong(client, block, cases[i % len(cases)], store)
        return block

    def _mix_block(self, store) -> Block:
        """``MIX_ROUNDS_PER_BLOCK`` rounds; in a round every connection
        sends one pipelined burst, all at once.

        Between rounds the client threads park at a barrier whose action
        calibrates and verifies the round just finished, so neither runs
        while a request is in flight.
        """
        block = Block(self.wl.core_share)
        rounds = [
            self.rounds[(self._round_at + i) % MIX_POOL_ROUNDS]
            for i in range(MIX_ROUNDS_PER_BLOCK)
        ]
        self._round_at += MIX_ROUNDS_PER_BLOCK
        clients = self.clients
        flights: list = [None] * len(clients)  # (start, end, triples)
        finished = iter(rounds)
        errors: list[BaseException] = []

        def between_rounds() -> None:
            if flights[0] is None:
                return  # before the first round
            block.cal_s.extend(self.cal.sample(self.wl.cal_per_op))
            block.busy_s += (max(f[1] for f in flights)
                             - min(f[0] for f in flights))
            for burst, (t0, t1, triples) in zip(next(finished), flights):
                if store is not None:
                    store.add("serve.client.fft_pipeline", t0, t1)
                for case, (y, latency, err) in zip(burst, triples):
                    block.record(
                        latency,
                        float("inf") if err is not None else case.rel_err(y),
                    )

        sync = threading.Barrier(len(clients), action=between_rounds)

        def connection(ci: int) -> None:
            try:
                for rnd in rounds:
                    sync.wait()
                    t0 = time.perf_counter()
                    try:
                        triples = clients[ci].fft_pipeline(
                            [c.x for c in rnd[ci]])
                    except REFUSED as exc:
                        triples = [(None, 0.0, exc)] * len(rnd[ci])
                    flights[ci] = (t0, time.perf_counter(), triples)
                sync.wait()
            except threading.BrokenBarrierError:
                pass  # another connection failed and said why
            except BaseException as exc:  # re-raised by the caller below
                errors.append(exc)
                sync.abort()

        threads = [threading.Thread(target=connection, args=(ci,))
                   for ci in range(len(clients))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return block

    # -- traced round -----------------------------------------------------------

    def snapshot(self) -> dict:
        stats = self.clients[0].stats()
        cache = stats["plan_cache"]
        snap = {
            "batches": stats["batches"],
            "batched_vectors": stats["batched_vectors"],
            "rejected": stats["rejected"],
            "deadline_misses": stats["deadline_misses"],
            "failures": stats["failures"],
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "plans_built": cache["plans_built"],
            "retries": sum(c.retries_total for c in self.clients),
            "reconnects": sum(c.reconnects_total for c in self.clients),
            "client_cpu_s": time.process_time(),
            "server_cpu_s": host.cpu_seconds(self._server_pid),
        }
        if self.router is not None:
            snap.update(
                {k: self.router.counters()[k]
                 for k in ("routed", "replays", "failovers")}
            )
        return snap

    def layers(self, store, ctx) -> dict:
        cases = self.cases
        seq = SequentialRuntime()

        def rung(name: str, call) -> None:
            self._rung(store, name, call, cases)

        # codec: what one request makes the client and the server encode,
        # and what they decode, measured on in-memory files
        frames = {}

        def encode(case):
            req, resp = io.BytesIO(), io.BytesIO()
            write_frame(req, {"op": "fft", "id": 1}, case.x)
            write_frame(resp, {"id": 1, "ok": True}, case.ref)
            frames[id(case)] = (req.getvalue(), resp.getvalue())

        def decode(case):
            req, resp = frames[id(case)]
            read_frame(io.BytesIO(req))
            return read_frame(io.BytesIO(resp))[1]

        rung("serve.protocol.encode", encode)
        rung("serve.protocol.decode", decode)

        cache = PlanCache(backend=self.cfg.backend)
        keys = {
            n: PlanKey(n=n, threads=self.cfg.threads, mu=self.cfg.mu,
                       strategy=self.cfg.strategy, nu=self.cfg.nu)
            for n in self.sizes
        }
        for n, key in keys.items():
            if cache.get(key).backend != "compiled":
                raise SetupError(f"local plan cache fell back at n={n}")

        def hit(case):
            cache.get(keys[case.x.shape[-1]])

        def run(case):
            n = case.x.shape[-1]
            y, _ = run_batched(cache.get(keys[n]).stages, n, case.x, seq)
            return y.reshape(case.ref.shape)

        rung("serve.plan_cache.hit", hit)
        rung("serve.batch_exec.run", run)
        with FFTService(self.cfg) as svc:
            for n in self.sizes:
                svc.prewarm(n)
            rung("serve.service.transform",
                 lambda case: svc.transform(case.x))
        direct = self._client(self.shard_addr)
        routed = self._client(self._router_addr())
        rung("serve.tcp.request", lambda case: direct.fft(case.x))
        rung("shard.router.request", lambda case: routed.fft(case.x))

        us = self.rungs
        delta = {k: ctx["after"][k] - ctx["before"][k] for k in ctx["after"]}
        # CPU seconds stretch with the core's speed state like wall does
        cpu_us_per_op = 1e6 / max(1, ctx["ops"]) / ctx["slowdown"]
        lookups = delta["cache_hits"] + delta["cache_misses"]
        lat = sorted(ctx["latencies_us"])
        q = tail_quantile(len(lat))
        attributed = (us["serve.protocol.encode"]
                      + us["serve.protocol.decode"]
                      + us["serve.plan_cache.hit"]
                      + us["serve.batch_exec.run"])
        out = {f"{name}_us": value for name, value in us.items()}
        out.update({
            "serve.service.overhead_us":
                us["serve.service.transform"] - us["serve.plan_cache.hit"]
                - us["serve.batch_exec.run"],
            "serve.tcp.hop_us":
                us["serve.tcp.request"] - us["serve.service.transform"],
            "shard.router.hop_us":
                us["shard.router.request"] - us["serve.tcp.request"],
            "serve.unattributed_us": ctx["op_p50_us"] - attributed,
            "serve.service.batches": delta["batches"],
            "serve.service.avg_batch_occupancy":
                delta["batched_vectors"] / max(1, delta["batches"]),
            "serve.service.rejected": delta["rejected"],
            "serve.service.deadline_misses": delta["deadline_misses"],
            "serve.service.failures": delta["failures"],
            "serve.plan_cache.hit_rate":
                delta["cache_hits"] / lookups if lookups else 0.0,
            "serve.plan_cache.plans_built": delta["plans_built"],
            "serve.client.retries": delta["retries"],
            "serve.client.reconnects": delta["reconnects"],
            "shard.router.routed": delta.get("routed", 0),
            "shard.router.replays": delta.get("replays", 0),
            "shard.router.failovers": delta.get("failovers", 0),
            "serve.client.cpu_us_per_op":
                delta["client_cpu_s"] * cpu_us_per_op,
            "serve.server.cpu_us_per_op":
                delta["server_cpu_s"] * cpu_us_per_op,
            "serve.client.p99_us": percentile(lat, q) if lat else 0.0,
            "serve.client.tail_quantile": q,
            "serve.client.tail_samples": len(lat),
        })
        return out


def make_run(wl: Workload, seed: int, env: RunEnv) -> WorkloadRun:
    kinds = {"kernel": KernelRun, "plan_build": PlanBuildRun,
             "serve": ServeRun}
    return kinds[wl.kind](wl, seed, env)
