"""Pool worker entry point.

``worker_main`` is a module-level function so the ``spawn`` start method
can import it (the child re-imports this module and unpickles its
arguments).  A worker is one party of the SPMD pool: it blocks on its
command queue, compiles plan specs locally (cached), attaches the master's
shared buffers by name, and runs the stage sequence in lockstep with its
peers through the shared sense-reversing barrier — the very walk
(:func:`repro.smp.runtime.lockstep_walk`) the
:class:`~repro.smp.runtime.PThreadsRuntime` threads run, with processes
for threads.

Failure discipline mirrors the thread pool: a worker that hits a real
exception aborts the barrier (so peers fail fast instead of waiting
forever) and reports the traceback text to the master; a worker that
observes a broken barrier reports ``broken`` and returns to its command
loop, leaving shutdown to the master.  Orphan protection: every blocking
wait polls ``os.getppid()`` — if the master died, the worker exits instead
of lingering.
"""

from __future__ import annotations

import os
import traceback
from collections import OrderedDict
from queue import Empty
from threading import BrokenBarrierError

from ..smp.runtime import lockstep_walk
from .arena import attach
from .spec import compile_spec

#: worker-side attachment cache bound (oldest mappings are closed)
ATTACH_CACHE_MAX = 16


def _attached(cache: OrderedDict, name: str, nelems: int,
              untrack: bool = False):
    """This worker's mapping of the master's segment ``name`` (LRU-cached)."""
    seg = cache.get(name)
    if seg is None:
        seg = attach(name, nelems, untrack=untrack)
        cache[name] = seg
        while len(cache) > ATTACH_CACHE_MAX:
            _, old = cache.popitem(last=False)
            old.close()
    else:
        cache.move_to_end(name)
    return seg.array


def worker_main(proc: int, parties: int, cmd_q, res_q, barrier,
                poll_s: float = 0.05, untrack: bool = False) -> None:
    """The persistent SPMD worker loop for processor ``proc``.

    ``untrack`` stays False for pool children (they share the master's
    resource tracker under every start method); see
    :class:`repro.mp.arena.AttachedSegment`.
    """
    ppid = os.getppid()
    attachments: OrderedDict = OrderedDict()

    def parent_alive() -> bool:
        return os.getppid() == ppid

    def wait() -> None:
        barrier.wait(poll=poll_s, check=parent_alive)

    try:
        while True:
            try:
                cmd = cmd_q.get(timeout=1.0)
            except Empty:
                if not parent_alive():
                    return
                continue
            op = cmd[0]
            if op == "exit":
                return
            if op == "crash":
                # fault injection: die exactly like a segfaulting worker
                os._exit(17)
            if op != "run":  # pragma: no cover - future-proofing
                continue
            _, seq, spec, src_name, dst_name, nelems, collect = cmd
            try:
                stages = compile_spec(spec).stages
                src = _attached(attachments, src_name, nelems, untrack)
                dst = _attached(attachments, dst_name, nelems, untrack)
                reports = [] if collect else None
                lockstep_walk(proc, stages, src, dst, wait, reports)
                res_q.put(("done", proc, seq, reports))
            except BrokenBarrierError:
                res_q.put(("broken", proc, seq, None))
            except BaseException:
                # break the lockstep so peers fail fast, then report
                barrier.abort()
                res_q.put(("error", proc, seq, traceback.format_exc()))
    finally:
        for seg in attachments.values():
            seg.close()
