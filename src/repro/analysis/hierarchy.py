"""The declared lock hierarchy — single source of truth for LOCK002.

Locks are ranked into tiers; a thread may only acquire a lock whose tier
is **strictly greater** than every lock it already holds (outermost
locks have the smallest tier).  The static rule ``LOCK002`` rejects
lexically nested ``with`` acquisitions that invert the order, and the
dynamic witness (:mod:`repro.analysis.locks`, ``REPRO_LOCK_CHECK=1``)
enforces the same ranks across function-call boundaries at runtime.

Names are matched by their final attribute component (``_store_lock``),
optionally qualified by class (``QueryService._store_lock`` wins over a
bare ``_store_lock`` entry).  Locks absent from the table are unranked:
the witness still includes them in cycle detection, but no ordering is
imposed — add an entry when a new lock participates in nesting.

Tier map (outermost first):

* **10 — orchestration**: single-flight registries consulted before any
  engine state is touched.
* **20 — engine state**: the store RW lock; held across planning and
  level execution.
* **30 — transport**: per-shard client management, connection swap and
  send serialization on the RPC path; innermost, a shard worker's state
  lock, which the in-process carrier takes under the ones above.
* **40 — leaves**: counters, caches, pools and gauges; never held while
  acquiring anything else.
"""

from __future__ import annotations

LOCK_RANKS: dict[str, int] = {
    # -- orchestration ----------------------------------------------------
    "_flights_lock": 10,  # service.cache.SingleFlight (queries; templates)
    "_pool_lock": 15,  # executor pool lifecycle; close() holds it while
    #   tearing down the executor -> router -> shard clients
    # -- engine state -----------------------------------------------------
    "_store_lock": 20,  # QueryService store RW lock
    # -- transport --------------------------------------------------------
    "_shard_locks": 30,  # per-shard client entry (respawn/prime; a live
    #   rebalance walks these shard by shard for prime/delta/flip, under
    #   the service's _store_lock write side — same tiers, no new ranks)
    "_close_lock": 30,  # client connection swap
    "_cond": 32,  # coalescer leader/pending wait
    "_serial_lock": 34,  # unpipelined request serialization
    "_send_lock": 36,  # request frame write (encoding happens outside)
    "send_lock": 36,  # worker reply-write serialization (the worker's
    #   twin of _send_lock: the write only, replies encode outside it)
    "rwlock": 38,  # shard worker state RW lock.  In process a
    #   LocalShardClient serves frames on the caller's thread, under the
    #   router's _shard_locks (primes, migrations) and _store_lock; only
    #   leaves nest inside it (a server replies after the handler).
    # -- leaves -----------------------------------------------------------
    "_waiters_lock": 40,  # reply futures table
    "_counter_lock": 40,  # router per-level counters
    "_stats_lock": 40,  # worker telemetry gauges
    "_lock": 40,  # leaf utility locks (caches, backends, router pool)
    "ColumnarState.lock": 40,  # columnar scan cache; taken by map tasks
    #   on the shard dispatch pool, under the store read lock
    # -- observability (repro.obs; below every engine lock so spans and
    #    metrics may be recorded from any instrumented path) --------------
    "MetricsRegistry._lock": 41,  # family directory; held before children
    "update_lock": 41,  # MetricsRegistry.update_lock: the series one
    #   service event moves (a submission's counters and stage samples),
    #   and a StatsSnapshot read of them; children are resolved first,
    #   so it never nests with the directory lock above
    "_metric_lock": 42,  # per-child counter/gauge/histogram state
    "TraceSink._lock": 44,  # trace store (span append, snapshot, evict)
    "_trace_dir_lock": 46,  # process-local trace_id -> sink directory
}


def rank_of(name: str) -> int | None:
    """The declared tier of a lock name, or None when unranked.

    *name* may be fully qualified (``Class._attr``); the qualified form
    is consulted first, then the bare attribute.
    """
    if name in LOCK_RANKS:
        return LOCK_RANKS[name]
    attr = name.rsplit(".", 1)[-1]
    return LOCK_RANKS.get(attr)
