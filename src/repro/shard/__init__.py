"""repro.shard: a consistent-hash router tier over FFTServer shards.

The single-process serving stack (``repro.serve``) batches, caches, and
supervises inside one address space — so its ceiling is one GIL and one
plan cache.  This package multiplies it (see ``docs/sharding.md``):

* :class:`HashRing` / :func:`route_key` — plan keys
  ``(n, threads, mu, strategy, backend)`` on a 64-bit BLAKE2b circle;
* :class:`ShardWorker` — one supervised FFTServer child process that
  drains gracefully on SIGTERM;
* :class:`ShardFleet` — spawn/eject/respawn/rejoin supervision plus the
  live ring, with the ``shard.worker_crash`` chaos hook;
* :class:`ShardRouter` — the TCP front end: clients connect unchanged,
  requests relay as read to their key's owner, orphans replay on ring
  successors when a shard dies, successors are prewarmed, and
  ``health``/``stats`` aggregate the whole fleet.
"""

from .fleet import NoShardsAvailable, ShardFleet
from .ring import HashRing, route_key
from .router import ShardRouter
from .worker import ShardWorker, ShardWorkerDead, shard_worker_main

__all__ = [
    "HashRing",
    "NoShardsAvailable",
    "ShardFleet",
    "ShardRouter",
    "ShardWorker",
    "ShardWorkerDead",
    "route_key",
    "shard_worker_main",
]
