"""The shard router: dispatches one level's tasks to the shards that own them.

:class:`~repro.mapreduce.engine.MapReduceEngine` is the only level
scheduler, whatever the deployment; the router is an
:class:`~repro.mapreduce.backends.ExecutionBackend` behind it, and the
one thing it changes is *where* each task of a batch runs:

* **every task runs on the shard that owns its node.**  A map task is
  pinned to a logical node; reduce partition ``p`` lives on node
  ``p % num_nodes``; each node is owned by exactly one shard under the
  :class:`~repro.cluster.ownership.OwnerTable` of the snapshot the
  execution started on.  The router groups a batch by owning shard and
  sends each shard its slice as one
  :class:`~repro.cluster.frames.ExecuteLevel` stamped with that table's
  version; the shard's worker scans only its own snapshot and runs the
  slice on its one engine.  The shards are the parallelism, as the
  §5.1 nodes are.
* **one router, two carriers.**  The transport is the carrier class
  :meth:`ShardRouter._start_worker` builds (:mod:`repro.cluster.client`)
  — a worker in the driver process or in a server process — and each
  carrier drives one :class:`~repro.cluster.client.ShardLink`.  Routing,
  epochs, the stale re-route, respawn, migration and tracing are the
  router's for both; what a worker holds is its link's record.
* **the shuffle is the cross-shard exchange.**  Rows whose key hashes
  (:func:`~repro.mapreduce.jobs.stable_hash`) to a partition on another
  shard's node cross shards in the reduce batch, and only there; a map
  frame carries each input cut to the shard's nodes.  What crosses is
  the engine's chunks, untouched, in the one id space the store numbered
  every term in (over rpc every worker holds a replica of the store's
  dictionary, synced at each query start; :mod:`repro.columnar.wire`).
* **results come back in submission order**, whichever shard finishes
  first, so answers and every report field equal the unsharded run's by
  construction, for any shard count.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from dataclasses import replace as dataclass_replace
from typing import Callable, Iterator, Sequence

from repro.analysis.locks import checked
from repro.cluster.ownership import Move, OwnerTable, plan_resize, plan_skew
from repro.cluster.client import (
    _TRANSPORT_ERRORS,
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_SPAWN_TIMEOUT,
    LocalShardClient,
    ShardWorkerClient,
    _frame_levels,
)
from repro.cluster.frames import (
    ErrorReply,
    ExecuteBatch,
    ExecuteLevel,
    ResultsReply,
    RpcError,
    RpcProtocolError,
    ShardUnavailable,
    StaleEpoch,
    Stats,
    StatsReply,
    WireTimes,
)
from repro.cluster.sharded_store import ShardedSnapshot, ShardedStore
from repro.columnar.wire import WIRE_FORMATS
from repro.cost.params import DEFAULT_PARAMS, CostParams
from repro.mapreduce.backends import (
    DEFAULT_RPC_PIPELINE,
    ColumnarBackend,
    ExecutionBackend,
    TaskInvocation,
)
from repro.mapreduce.counters import ExecutionReport
from repro.mapreduce.engine import ClusterConfig
from repro.mapreduce.hdfs import DistributedRelation
from repro.mapreduce.jobs import TaskContext
from repro.obs.trace import attach_worker_spans, record_remote, span, trace_ctx
from repro.physical.executor import PlanExecutor

#: what :meth:`ShardRouter._start_worker` builds: the transport
ShardClient = LocalShardClient | ShardWorkerClient


@dataclass(frozen=True)
class RebalanceReport:
    """What one ownership-table rebalance did (see
    :meth:`ShardedPlanExecutor.rebalance`)."""

    #: table version before / after (after = before + 1; a rolled
    #: back attempt never produces a report — it raises)
    old_epoch: int
    new_epoch: int
    #: shard count before / after
    old_shards: int
    new_shards: int
    #: the applied ``(node, src, dst)`` plan
    moves: tuple[Move, ...]
    #: migration bytes shipped per shard (zeros in process; over rpc
    #: the elasticity claim is that this stays well under a full sync)
    bytes_shipped: tuple[int, ...]
    #: wall-clock seconds for the whole migration
    duration_s: float

    @property
    def moved_nodes(self) -> tuple[int, ...]:
        """The nodes whose ownership (and data) moved, ascending."""
        return tuple(sorted(node for node, _src, _dst in self.moves))


@dataclass
class ShardDispatch:
    """What the router keeps for one execution, carried on
    :attr:`TaskContext.dispatch <repro.mapreduce.jobs.TaskContext>`.

    Byte and frame attribution lives here, per query (coalescing
    flushers touch contexts cross-thread, hence the lock), so it stays
    per-query correct under concurrency.
    """

    #: owner table of the snapshot the execution started on — every
    #: batch of the execution is grouped by it, and every
    #: :class:`ExecuteLevel` stamped with its version (a worker at
    #: another epoch rejects the frame)
    table: OwnerTable
    #: map + reduce tasks run per shard
    tasks: list[int]
    #: output rows landing on each shard's nodes (all jobs)
    rows: list[int]
    #: request bytes (zeros in process) and frames shipped per shard
    bytes: list[int]
    frames: list[int]
    _lock: threading.Lock = field(
        default_factory=lambda: checked(threading.Lock(), "ShardDispatch._lock"),
        repr=False,
        compare=False,
    )

    def add(self, shard: int, n: int, frames: int = 1) -> None:
        with self._lock:
            while len(self.bytes) <= shard:
                # A mid-query rebalance can re-route levels to shards
                # that did not exist when this query started counting.
                self.bytes.append(0)
                self.frames.append(0)
            self.bytes[shard] += n
            self.frames[shard] += frames


def _frame_trace_ctxs(msg) -> list[tuple]:
    """Every trace context an execute frame carries (a batch fans out
    to each item's own); empty for untraced or non-execute frames."""
    return [
        level.trace_ctx
        for level in _frame_levels(msg)
        if getattr(level, "trace_ctx", None) is not None
    ]


def _record_level_span(
    msg: ExecuteLevel,
    reply,
    start: float,
    end: float,
    times: WireTimes,
    shard: int,
    coalesced: int = 1,
    transport: str = "rpc",
) -> None:
    """Record one traced level round trip driver-side, as a
    ``<transport>:level`` span (``rpc:level``, ``inproc:level``).

    Its children tile it, in time order (in process the ``wire:*``
    spans are the function-call hand-off, and there is no ``encode``):

    * ``wire:encode`` — everything this end does until the frame is on
      the socket: finding the live client, taking the send lock, frame
      packing + pickle + write (and, after a worker respawn, the
      attempt before);
    * the worker's shipped span records, re-anchored at the instant the
      frame was written (the only one the two clocks agree on — the
      driver's send is the worker's receipt, minus wire latency);
    * ``wire:transit`` — whatever of the window up to the reply's
      arrival the worker did not report: the socket both ways, the
      envelope pickles and the two process wake-ups, which the two
      clocks cannot tell apart;
    * the worker's reply-``encode`` time, ending where the reply was
      read;
    * ``wire:decode`` — the reader thread unpickling + decoding the
      reply, through the hand-off to the requesting thread.

    ``coalesced`` > 1 marks members of a shared :class:`ExecuteBatch`
    frame, whose round trip (and wire times) cover all members.
    """
    attrs = {"shard": shard, "level": msg.level, "phase": msg.phase}
    if coalesced > 1:
        attrs["coalesced"] = coalesced
    ref = record_remote(msg.trace_ctx, f"{transport}:level", start, end, **attrs)
    if ref is None:
        return
    ctx = ref.ctx()
    shared = {"shared": coalesced} if coalesced > 1 else {}
    record_remote(ctx, "wire:encode", start, times.sent, shard=shard, **shared)
    record_remote(ctx, "wire:decode", times.received, end, shard=shard, **shared)
    records = list(getattr(reply, "spans", None) or ())
    encode_s = times.worker_encode_s
    reported = max(
        (
            rel_start + duration
            for _, parent, rel_start, duration, _ in records
            if parent < 0
        ),
        default=0.0,
    )
    tail = max(reported, (times.received - times.sent) - encode_s)
    if tail > reported:
        records.append(("wire:transit", -1, reported, tail - reported, {}))
    if encode_s > 0.0:
        records.append(("encode", -1, tail, encode_s, {}))
    attach_worker_spans(
        ref, records, anchor=times.sent, scale_hint=coalesced, shard=shard
    )


class _PendingLevel:
    """One query's ExecuteLevel waiting in a shard's coalescer."""

    __slots__ = ("msg", "ctx", "reply", "error", "done")

    def __init__(self, msg: ExecuteLevel, ctx: ShardDispatch | None) -> None:
        self.msg = msg
        self.ctx = ctx
        self.reply = None
        self.error: BaseException | None = None
        self.done = threading.Event()


class _LevelCoalescer:
    """Per-shard micro-batcher merging concurrent queries' levels.

    The first submitter becomes the *leader*: it waits up to the
    coalescing window (or until ``max_batch`` levels are pending — no
    background thread, no idle timer when traffic is serial), then
    drains **everything** pending and flushes it in chunks of at most
    ``max_batch`` as :class:`ExecuteBatch` frames; a chunk of one goes
    out as a plain :class:`ExecuteLevel`.  Followers block on their
    item until the leader's flush resolves it.  Every exit path sets
    the item's event — a dead worker fails all coalesced queries typed
    (or they recover via the respawn retry inside ``_shard_call``),
    never hangs them.
    """

    def __init__(self, router: "ShardRouter", shard: int) -> None:
        self.router = router
        self.shard = shard
        self.window = router.coalesce_window_ms / 1000.0
        self.max_batch = router.coalesce_max_batch
        self._cond = checked(threading.Condition(), "_LevelCoalescer._cond")
        self._pending: list[_PendingLevel] = []
        self._leader = False

    def submit(self, msg: ExecuteLevel, exec_ctx: ShardDispatch | None):
        item = _PendingLevel(msg, exec_ctx)
        with self._cond:
            self._pending.append(item)
            if self._leader:
                if len(self._pending) >= self.max_batch:
                    self._cond.notify_all()
                batch = None
            else:
                self._leader = True
                # Holding the window open only pays when another query
                # is actually in flight; a lone query's levels would
                # just eat the full window as pure latency tax, so the
                # leader checks router-observed concurrency first.
                if self.window > 0 and self.router._active_queries() > 1:
                    deadline = time.monotonic() + self.window
                    while len(self._pending) < self.max_batch:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                batch, self._pending = self._pending, []
                self._leader = False
        if batch is None:
            item.done.wait()
        else:
            for start in range(0, len(batch), self.max_batch):
                self._flush(batch[start : start + self.max_batch])
        if item.error is not None:
            raise item.error
        return item.reply

    def _flush(self, chunk: list[_PendingLevel]) -> None:
        try:
            if len(chunk) == 1:
                item = chunk[0]
                self.router._note_frames(1)
                item.reply = self.router._send_level(
                    self.shard, item.msg, item.ctx
                )
            else:
                self._flush_batch(chunk)
        except BaseException as exc:
            for item in chunk:
                if item.reply is None and item.error is None:
                    item.error = exc
        finally:
            for item in chunk:
                item.done.set()

    def _flush_batch(self, chunk: list[_PendingLevel]) -> None:
        router, shard = self.router, self.shard
        sub_rids = [router._next_sub_id() for _ in chunk]
        msg = ExecuteBatch(
            items=tuple(
                (rid, item.msg) for rid, item in zip(sub_rids, chunk)
            )
        )
        sent = [0]
        wire: list[WireTimes] = []

        def on_bytes(n: int) -> None:
            sent[0] = n

        traced = any(item.msg.trace_ctx is not None for item in chunk)
        router._note_frames(1)
        start = time.perf_counter()
        reply = router._shard_call(
            shard, msg, on_bytes, wire.append if traced else None
        )
        end = time.perf_counter()
        # Attribute the shared frame's bytes across its members (the
        # remainder lands on the first few); each member rode 1 frame.
        # The worker's encode time is split equally the same way.
        share, spill = divmod(sent[0], len(chunk))
        if traced:
            times = wire[-1]._replace(
                worker_encode_s=wire[-1].worker_encode_s / len(chunk)
            )
        by_sub = dict(reply.replies)
        for index, (rid, item) in enumerate(zip(sub_rids, chunk)):
            if item.ctx is not None:
                item.ctx.add(shard, share + (1 if index < spill else 0))
            sub = by_sub.get(rid)
            if item.msg.trace_ctx is not None:
                _record_level_span(
                    item.msg,
                    sub,
                    start,
                    end,
                    times,
                    shard,
                    coalesced=len(chunk),
                    transport=router.transport,
                )
            if sub is None:
                item.error = RpcProtocolError(
                    f"shard {shard} batch reply is missing request {rid}"
                )
            elif isinstance(sub, ErrorReply):
                item.error = sub.error
            else:
                item.reply = sub


class ShardRouter(ExecutionBackend):
    """Runs each batch of the engine's level schedule on the shard
    workers owning its tasks, and returns results in submission order.

    A worker is reached through the client class :attr:`client` — here
    :class:`~repro.cluster.client.LocalShardClient`, in the driver process;
    :class:`RpcShardRouter` swaps in the socket client.  The socket
    options (frame cap, start method, spawn timeout, wire format,
    pipeline, coalescing) mean something over rpc only.
    """

    #: the shard client :meth:`_start_worker` builds — the transport
    client: type = LocalShardClient
    #: transport label recorded on execution reports
    transport = "inproc"

    def __init__(
        self,
        num_nodes: int,
        num_shards: int,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        on_failure=None,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
        wire_format: str = "columnar",
        pipeline: int = DEFAULT_RPC_PIPELINE,
        coalesce_window_ms: float = 0.0,
        coalesce_max_batch: int = 1,
    ) -> None:
        if wire_format not in WIRE_FORMATS:
            raise ValueError(
                f"unknown wire format {wire_format!r}; "
                f"expected one of {WIRE_FORMATS}"
            )
        if pipeline < 0:
            raise ValueError(f"pipeline must be >= 0, got {pipeline}")
        if coalesce_window_ms < 0:
            raise ValueError(
                f"coalesce_window_ms must be >= 0, got {coalesce_window_ms}"
            )
        if coalesce_max_batch < 1:
            raise ValueError(
                f"coalesce_max_batch must be >= 1, got {coalesce_max_batch}"
            )
        self.num_nodes = num_nodes
        self.num_shards = num_shards
        #: backend label recorded on execution reports: the workers'
        #: engine, and over rpc the hop to it
        engine = ColumnarBackend.name
        self.name = (
            engine if self.transport == "inproc" else f"{self.transport}:{engine}"
        )
        self.wire_format = wire_format
        self.max_frame_bytes = max_frame_bytes
        self.spawn_timeout = spawn_timeout
        self.pipeline = pipeline
        self.coalesce_window_ms = coalesce_window_ms
        self.coalesce_max_batch = coalesce_max_batch
        self.on_failure = on_failure
        self._lock = checked(threading.Lock(), "ShardRouter._lock")
        self._pool: ThreadPoolExecutor | None = None  # guarded-by: _lock
        self._counter_lock = checked(
            threading.Lock(), "ShardRouter._counter_lock"
        )
        self.shard_failures = 0  # guarded-by: _counter_lock
        #: level traffic counters: requests = ExecuteLevels asked for,
        #: frames = frames that carried them.  Coalescing provably
        #: merges when frames < requests.
        self.level_requests = 0  # guarded-by: _counter_lock
        self.level_frames = 0  # guarded-by: _counter_lock
        self._sub_ids = itertools.count(1)  # guarded-by: _counter_lock
        # One witness node for all shards: cross-shard nesting between
        # sibling locks is same-name and thus not edge-checked (no code
        # path holds two shard locks at once).
        self._shard_locks = [
            checked(threading.RLock(), "ShardRouter._shard_locks")
            for _ in range(num_shards)
        ]
        self._clients: list[ShardClient | None] = [None] * num_shards  # guarded-by: _shard_locks
        self._last_snapshot = None
        #: the owner table the fleet was last synchronized to (set by
        #: ensure_workers / migrate); stale-epoch re-routing consults it
        self._table: OwnerTable | None = None
        #: queries currently inside an execution — the coalescer
        #: only holds its window open when this exceeds one
        self.active_queries = 0  # guarded-by: _counter_lock
        self._coalescers = (
            [_LevelCoalescer(self, shard) for shard in range(num_shards)]
            if coalesce_max_batch > 1
            else None
        )

    def resize(self, num_shards: int) -> None:
        """Route over *num_shards* shards from now on, retiring the
        dispatch pool sized for the old count."""
        self.num_shards = num_shards
        with self._lock:
            old_pool, self._pool = self._pool, None
        if old_pool is not None:
            # wait=False: a resize triggered from a dispatch-pool
            # thread (a stale-epoch re-route) must not join its own pool.
            old_pool.shutdown(wait=False)

    def _dispatch_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._dispatch_width(),
                    thread_name_prefix="repro-shard",
                )
            return self._pool

    def _dispatch_width(self) -> int:
        # Coalescer followers park on a dispatch thread until the
        # leader flushes their frame, so size the pool for the full
        # pipeline depth per shard, not just one call per shard.
        return max(4, 2 * self.num_shards,
                   max(1, self.pipeline) * self.num_shards)

    def _note_frames(self, n: int) -> None:
        with self._counter_lock:
            self.level_frames += n

    def _active_queries(self) -> int:
        with self._counter_lock:
            return self.active_queries

    def _next_sub_id(self) -> int:
        with self._counter_lock:
            return next(self._sub_ids)

    # -- lifecycle ----------------------------------------------------------

    def prime(self, ctx: TaskContext) -> None:
        """Bring the fleet up against the sharded snapshot in *ctx*."""
        self.ensure_workers(ctx.store)

    def ensure_workers(self, snapshot: ShardedSnapshot) -> None:
        """Start any missing shard worker and bring every one current
        with *snapshot* (:meth:`~repro.cluster.client.ShardLink.sync`):
        after a write only the shards it touched receive files, the rest
        at most the dictionary suffix, and a worker already current
        receives no frame.  So every worker starts each query on its
        view, its epoch and the store's numbering."""
        # What a respawn syncs from: set first, so a worker found dead
        # below comes back on *this* snapshot, once.
        self._last_snapshot = snapshot
        self._table = snapshot.table
        for shard in range(self.num_shards):
            self._sync_shard(shard, snapshot)

    def _sync_shard(
        self, shard: int, snapshot: ShardedSnapshot, on_bytes=None
    ) -> None:
        """Under the shard's lock: start its worker if it has none
        (first start: not a failure), respawn a dead one, and
        sync its link to *snapshot* (which must be
        :attr:`_last_snapshot`, what a respawn syncs to)."""
        with self._shard_locks[shard]:
            client = self._clients[shard]
            if client is None:
                try:
                    client = self._start_worker(shard)
                except Exception as exc:
                    self._record_failure(shard, f"spawn failed: {exc!r}")
                    raise ShardUnavailable(shard, f"spawn failed: {exc!r}") from exc
            elif not client.alive():
                self._recover(shard, "worker process died", on_bytes)
                return
            try:
                client.link.sync(snapshot, client.request, on_bytes)
            except _TRANSPORT_ERRORS as exc:
                # Died under the sync: the one respawn syncs it.
                self._recover(shard, f"{type(exc).__name__}: {exc}", on_bytes)

    # -- live rebalancing ----------------------------------------------------

    def _grow_to(self, count: int) -> None:
        """Extend the per-shard structures (locks, client entries,
        coalescers) to *count* entries.  The lists
        only ever grow — a shrink leaves trailing entries in place so a
        query racing the flip can still index its (stale) shard and get
        the typed :class:`StaleEpoch` answer instead of an IndexError.
        """
        while len(self._shard_locks) < count:
            self._shard_locks.append(
                checked(threading.RLock(), "ShardRouter._shard_locks")
            )
        while len(self._clients) < count:  # lint: disable=LOCK001 — grow-only append; migrations serialize on the store write lock
            self._clients.append(None)  # lint: disable=LOCK001 — entry is None until started under its shard lock
        if self._coalescers is not None:
            while len(self._coalescers) < count:
                self._coalescers.append(
                    _LevelCoalescer(self, len(self._coalescers))
                )

    def _set_topology(self, count: int, table, snapshot) -> None:
        """Flip the driver's view of the fleet to *count* shards at
        *table*'s epoch (:meth:`resize` retires the dispatch pool)."""
        self._table = table
        self._last_snapshot = snapshot
        self.resize(count)

    def _retire_clients(self, first: int) -> None:
        """Close every client at shard index >= *first*."""
        retired: list[ShardClient] = []
        for shard in range(first, len(self._clients)):  # lint: disable=LOCK001 — len() only; the list never shrinks
            with self._shard_locks[shard]:
                client = self._clients[shard]
                self._clients[shard] = None  # lint: disable=LOCK001 — this shard's lock is held
            if client is not None:
                retired.append(client)
        for client in retired:
            client.close()

    def migrate(self, store, moves, new_num_shards=None) -> tuple[int, ...]:
        """Execute a ``(node, src, dst)`` plan against the live worker fleet.

        Returns bytes shipped per (surviving or new) shard — the proof
        that a migration moves only the reassigned nodes' data, not a
        full sync of every shard.  The sequence:

        1. install the next table on *store* (epoch bumps to ``v+1``),
        2. sync every shard of the new topology to its view at
           ``v+1`` — a new shard from empty (its view holds exactly the
           moved-in nodes), a survivor by delta: the moved nodes' file
           maps and the new epoch in one frame,
        3. retire removed shards' workers and resize the driver.

        A survivor changes its data and its epoch together, so a level
        routed under ``v`` that reaches it afterwards is refused typed
        (:class:`StaleEpoch`) and re-routed by the driver — it never
        scans a node the worker already dropped.  On any failure the
        plan is inverted on the store (epochs stay monotone), the driver
        resizes back and the surviving workers are synced to the
        restored table; transport failures surface as typed
        :class:`ShardUnavailable`.  Callers quiesce queries for the
        duration (the service's store write lock does).
        """
        moves = tuple(moves)
        old_count = self.num_shards
        target = store.table.num_shards if new_num_shards is None else new_num_shards
        if not moves and target == old_count:
            return ()
        new_table = store.apply_rebalance(moves, target)
        snapshot = store.snapshot()
        new_count = new_table.num_shards
        self._grow_to(max(old_count, new_count))
        shipped = [0] * max(old_count, new_count)
        # A worker respawned mid-migration comes back on the new view.
        self._last_snapshot = snapshot

        def note(shard: int):
            def on_bytes(n: int) -> None:
                shipped[shard] += n

            return on_bytes

        try:
            # New shards first: a spawn failure rolls back before any
            # survivor has moved.
            for shard in [*range(old_count, new_count), *range(min(old_count, new_count))]:
                name = "rebalance:prime" if shard >= old_count else "rebalance:delta"
                with span(name, shard=shard):
                    self._sync_shard(shard, snapshot, note(shard))
        except ShardUnavailable as exc:
            self._rollback_migration(store, moves, old_count)
            raise ShardUnavailable(
                exc.shard, f"migration failed: {exc.message}"
            ) from exc
        except BaseException:
            self._rollback_migration(store, moves, old_count)
            raise
        if new_count < old_count:
            self._retire_clients(new_count)
        self._set_topology(new_count, new_table, snapshot)
        return tuple(shipped[:new_count])

    def _rollback_migration(self, store, moves, old_count: int) -> None:
        """Undo a half-applied migration: install the inverse plan's
        table (the epoch keeps climbing — versions never reuse), resize
        the driver back, drop any clients the grow spawned, and
        sync every live surviving worker to the restored
        table.  A worker that cannot be synced now is left to the next
        :meth:`ensure_workers`, which respawns it; the caller raises the
        failure that started the rollback."""
        store.apply_rebalance(store.table.inverse(moves), old_count)
        snapshot = store.snapshot()
        self._retire_clients(old_count)
        self._set_topology(old_count, snapshot.table, snapshot)
        for shard in range(old_count):
            with self._shard_locks[shard]:
                client = self._clients[shard]
                if client is None or not client.alive():
                    continue
                try:
                    client.link.sync(snapshot, client.request)
                except (*_TRANSPORT_ERRORS, RpcError):
                    pass

    def _start_worker(self, shard: int) -> ShardClient:
        """Start shard *shard*'s worker through :attr:`client` and handshake.

        Callers (``ensure_workers``, ``_recover``) hold this shard's lock.
        """
        old = self._clients[shard]  # lint: disable=LOCK001 — caller holds this shard's lock (see docstring)
        self._clients[shard] = None  # lint: disable=LOCK001 — caller holds this shard's lock (see docstring)
        if old is not None:
            old.close(kill=True)
        client = self.client(
            shard=shard,
            num_nodes=self.num_nodes,
            max_frame_bytes=self.max_frame_bytes,
            spawn_timeout=self.spawn_timeout,
            pipeline=self.pipeline,
            wire_format=self.wire_format,
        )
        try:
            client.start()
        except Exception:
            client.close(kill=True)
            raise
        self._clients[shard] = client  # lint: disable=LOCK001 — caller holds this shard's lock (see docstring)
        return client

    def worker_gauges(self) -> list[tuple[int, StatsReply | None]]:
        """Telemetry without side effects, probed concurrently:
        ``(shard, StatsReply | None)`` pairs for the shard workers with
        a live client — ``None`` marks a probe that failed mid-flight
        (the service surfaces it as a *stale* gauge instead of raising
        or silently hiding the shard).  A never-spawned or already
        reaped shard is absent entirely (no spawn, no recovery, no
        failure recorded).  Probes fan out on the dispatch pool so one
        slow worker does not serialize the sweep."""
        probes = [(shard, c) for shard, c in self._started() if c.alive()]

        def probe(client: ShardClient) -> StatsReply | None:
            try:
                return client.request(Stats())
            except Exception:
                return None

        if len(probes) > 1:
            pool = self._dispatch_pool()
            futures = [(s, pool.submit(probe, c)) for s, c in probes]
            return [(s, f.result()) for s, f in futures]
        return [(s, probe(c)) for s, c in probes]

    def wire_stats(self) -> list[tuple[int, dict]]:
        """Driver-side transport counters per live shard connection:
        frames and bytes sent, and the dictionary terms suffix syncs
        shipped.  Point-in-time advisory reads — no request, no blocking on
        in-flight requests."""
        return [(shard, c.link.wire_stats()) for shard, c in self._started()]

    def _started(self) -> list[tuple[int, ShardClient]]:
        """``(shard, client)`` for every routed shard with a client."""
        started = []
        for shard in range(self.num_shards):
            with self._shard_locks[shard]:
                client = self._clients[shard]
            if client is not None:
                started.append((shard, client))
        return started

    def close(self) -> None:
        # Every entry: the per-shard lists can outgrow num_shards.
        self._retire_clients(0)
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- failure handling ---------------------------------------------------

    def _record_failure(self, shard: int, reason: str) -> None:
        # Distinct shards fail concurrently (each path holds only its
        # own shard lock), so the shared tally needs the counter mutex.
        with self._counter_lock:
            self.shard_failures += 1
        if self.on_failure is not None:
            try:
                self.on_failure(shard, reason)
            except Exception:
                pass

    def _recover(self, shard: int, reason: str, on_bytes=None) -> ShardClient:
        """Respawn a dead worker: restart and sync it to the
        last snapshot the fleet was brought to.

        Records the failure that triggered the recovery; a failed
        respawn records a second failure and raises
        :class:`ShardUnavailable`.  Callers hold the shard lock.
        """
        self._record_failure(shard, reason)
        try:
            client = self._start_worker(shard)
            if self._last_snapshot is not None:
                client.link.sync(self._last_snapshot, client.request, on_bytes)
            return client
        except Exception as exc:
            self._record_failure(shard, f"respawn failed: {exc!r}")
            self._clients[shard] = None  # lint: disable=LOCK001 — caller holds this shard's lock (see docstring)
            raise ShardUnavailable(shard, f"respawn failed: {exc!r}") from exc

    def _ensure_client(self, shard: int) -> ShardClient:
        """The shard's live client, recovering a dead one (recorded as
        a failure, matching the in-call discovery semantics)."""
        with self._shard_locks[shard]:
            client = self._clients[shard]
            if client is None or not client.alive():
                client = self._recover(shard, "worker process is not running")
            return client

    def _recover_from(
        self, shard: int, failed: ShardClient, reason: str
    ) -> ShardClient:
        """Recover after *failed* saw a transport error — once per dead
        worker: when another thread already replaced it, reuse its
        client instead of respawning (and counting a failure) again."""
        with self._shard_locks[shard]:
            current = self._clients[shard]
            if current is not None and current is not failed and current.alive():
                return current
            return self._recover(shard, reason)

    def _shard_call(self, shard: int, msg, on_bytes=None, on_wire=None):
        """One request to one shard, with the one-respawn retry budget.

        The shard lock guards only client lookup and recovery — the
        round trip itself runs outside it, so concurrent queries
        multiplex on the worker connection instead of serializing
        behind a per-shard lock.  A typed :class:`ErrorReply` from a
        live worker re-raises as-is (the request failed, not the
        worker).  A transport failure means the worker died: it is
        respawned, synced afresh, and the request retried
        exactly once (safe: a level is self-contained and a fresh
        worker holds nothing but the snapshot); any further failure
        raises :class:`ShardUnavailable`.  A successful
        retry of a traced execute frame is marked by an ``rpc:retry``
        span covering respawn + resend on every contributing trace.
        """
        client = self._ensure_client(shard)
        try:
            return client.request(msg, on_bytes, on_wire)
        except _TRANSPORT_ERRORS as exc:
            retry_start = time.perf_counter()
            retry = self._recover_from(
                shard, client, f"{type(exc).__name__}: {exc}"
            )
            try:
                reply = retry.request(msg, on_bytes, on_wire)
            except _TRANSPORT_ERRORS as retry_exc:
                self._record_failure(
                    shard, f"request failed after respawn: {retry_exc!r}"
                )
                raise ShardUnavailable(
                    shard, f"request failed after respawn: {retry_exc!r}"
                ) from retry_exc
            retry_end = time.perf_counter()
            for ctx in _frame_trace_ctxs(msg):
                record_remote(
                    ctx,
                    "rpc:retry",
                    retry_start,
                    retry_end,
                    shard=shard,
                    error=type(exc).__name__,
                )
            return reply

    # -- execution -----------------------------------------------------------

    @contextmanager
    def execution(
        self, ctx: TaskContext, report: ExecutionReport
    ) -> Iterator[TaskContext]:
        """Attach this execution's :class:`ShardDispatch` to the context
        the engine runs its levels with — the fleet synchronized to its
        snapshot first — then stamp the report with how the work was
        spread over the shards.  The whole bracket counts as an active
        query (the coalescers' gate)."""
        with self._counter_lock:
            self.active_queries += 1
        try:
            snapshot: ShardedSnapshot = ctx.store
            if snapshot.num_shards != self.num_shards:
                raise ValueError(
                    f"snapshot has {snapshot.num_shards} shards, "
                    f"router routes {self.num_shards}"
                )
            self.ensure_workers(snapshot)
            count = snapshot.num_shards
            state = ShardDispatch(
                table=snapshot.table,
                tasks=[0] * count,
                rows=[0] * count,
                bytes=[0] * count,
                frames=[0] * count,
            )
            yield replace(ctx, dispatch=state)
        finally:
            with self._counter_lock:
                self.active_queries -= 1
        report.shards = state.table.num_shards
        report.transport = self.transport
        report.shard_tasks = tuple(state.tasks)
        report.shard_rows = tuple(state.rows)
        report.shard_bytes = tuple(state.bytes)
        report.shard_frames = tuple(state.frames)

    # -- the dispatch hop ----------------------------------------------------

    def _send_level(
        self, shard: int, msg: ExecuteLevel, exec_ctx: ShardDispatch | None
    ):
        """An ExecuteLevel round trip, traced when the frame carries a
        context: the driver records a ``<transport>:level`` span over the
        round trip and re-anchors the worker's shipped span records
        (plus the reply-encode time from the envelope) under it."""
        on_bytes = (
            None if exec_ctx is None else (lambda n: exec_ctx.add(shard, n))
        )
        if msg.trace_ctx is None:
            return self._shard_call(shard, msg, on_bytes)
        wire: list[WireTimes] = []
        start = time.perf_counter()
        reply = self._shard_call(shard, msg, on_bytes, wire.append)
        _record_level_span(
            msg, reply, start, time.perf_counter(), wire[-1], shard,
            transport=self.transport,
        )
        return reply

    def _level_call(
        self, shard: int, msg: ExecuteLevel, exec_ctx: ShardDispatch | None
    ):
        """Route one level to its shard: through the coalescer when
        cross-query batching is on, directly otherwise."""
        with self._counter_lock:
            self.level_requests += 1
        if self._coalescers is not None:
            return self._coalescers[shard].submit(msg, exec_ctx)
        self._note_frames(1)
        return self._send_level(shard, msg, exec_ctx)

    def _reroute_level(self, msg: ExecuteLevel, nodes: list[int], exec_ctx):
        """Resend a stale-stamped level's tasks under the current table.

        A worker rejected *msg* because a rebalance flipped the owner
        table after this query was routed.  The tasks themselves are
        placement-level facts — *nodes*, the node each runs on, never
        change, only which shard *hosts* a node — so they are regrouped
        by the current table and resent, stamped with its epoch.  The map
        phase's ``inputs`` travel unchanged to every target: they are
        keyed by node-sliced file name, and a superset is harmless.
        Results are reassembled in the original task order, keeping the
        deterministic merge upstream byte-identical.
        """
        table = self._table
        if table is None:
            raise RpcError("no owner table to re-route against")
        groups: dict[int, list[int]] = {}
        for index, node in enumerate(nodes):
            groups.setdefault(table.shard_of_node(node), []).append(index)
        results: list = [None] * len(msg.tasks)
        for shard in sorted(groups):
            indices = groups[shard]
            sub = dataclass_replace(
                msg,
                tasks=tuple(msg.tasks[i] for i in indices),
                epoch=table.version,
            )
            with self._counter_lock:
                self.level_requests += 1
            self._note_frames(1)
            reply = self._send_level(shard, sub, exec_ctx)
            for i, result in zip(indices, reply.results):
                results[i] = result
        return ResultsReply(results=results)

    # -- dispatch ------------------------------------------------------------

    def run(self, invocations: Sequence[TaskInvocation], ctx: TaskContext) -> list:
        state: ShardDispatch = ctx.dispatch
        shard_of_node = state.table.shard_of_node
        groups: dict[int, list[int]] = {}
        for index, inv in enumerate(invocations):
            groups.setdefault(shard_of_node(inv.node), []).append(index)
        shards = sorted(groups)
        # Captured on the query thread: dispatch-pool threads never saw
        # this query's contextvar, so per-shard spans attach explicitly.
        tctx = trace_ctx()

        def call(shard: int) -> list:
            batch = [invocations[index] for index in groups[shard]]
            return self._run_on(shard, batch, ctx, tctx)

        if len(shards) > 1:
            pool = self._dispatch_pool()
            futures = [pool.submit(call, shard) for shard in shards]
            batches = [future.result() for future in futures]
        else:
            batches = [call(shard) for shard in shards]
        results: list = [None] * len(invocations)
        for shard, batch in zip(shards, batches):
            state.tasks[shard] += len(batch)
            for index, result in zip(groups[shard], batch):
                results[index] = result
                # (emits, direct, metrics) or (out_rows, metrics): the
                # rows this task leaves on its node.
                state.rows[shard] += len(result[-2])
        return results

    def _run_on(
        self,
        shard: int,
        batch: list[TaskInvocation],
        ctx: TaskContext,
        tctx: tuple | None,
    ) -> list:
        """Send one shard its slice of a batch (one phase of one level)
        as an :class:`ExecuteLevel`; results in the slice's order."""
        state: ShardDispatch = ctx.dispatch
        phase = batch[0].phase
        if phase == "map":
            # Ship only the shuffled intermediates this shard's map
            # chains actually read, cut to the shard's own nodes (a map
            # shuffler reads nothing but its node's partition).
            owner = state.table.shard_of_node
            inputs = {}
            for name in sorted(
                {name for inv in batch for name in inv.spec.hdfs_inputs()}
            ):
                relation = ctx.hdfs.read(name)
                inputs[name] = DistributedRelation(
                    attrs=relation.attrs,
                    partitions=[
                        part if owner(node) == shard else []
                        for node, part in enumerate(relation.partitions)
                    ],
                )
            tasks = tuple(inv.spec for inv in batch)
        else:
            inputs = {}
            tasks = tuple((inv.spec, *inv.args) for inv in batch)
        msg = ExecuteLevel(
            level=batch[0].level,
            phase=phase,
            tasks=tasks,
            inputs=inputs,
            trace_ctx=tctx,
            epoch=state.table.version,
        )
        try:
            reply = self._level_call(shard, msg, state)
        except StaleEpoch:
            # The topology moved under this query (a rebalance flipped
            # the owner table after it was routed): regroup the same
            # tasks by the current table and resend.
            reply = self._reroute_level(
                msg, [inv.node for inv in batch], state
            )
        if len(reply.results) != len(batch):
            raise RpcProtocolError(
                f"shard {shard} returned {len(reply.results)} results "
                f"for {len(batch)} tasks"
            )
        return reply.results


class RpcShardRouter(ShardRouter):
    """A :class:`ShardRouter` whose shard workers are long-lived server
    processes reached over the socket protocol of
    :mod:`repro.cluster.client`: the one router, with the socket client."""

    client = ShardWorkerClient
    transport = "rpc"


class ShardedPlanExecutor(PlanExecutor):
    """A :class:`~repro.physical.executor.PlanExecutor` over shards.

    The store is a :class:`ShardedStore` and the execution backend is a
    shard router; preparing and executing plans is the base class's,
    unchanged.  Each shard worker builds its own engine, the id-space
    one; there is no engine to choose.  ``transport`` selects the
    carrier: ``"inproc"`` (default, :class:`~repro.cluster.client
    .LocalShardClient`) or ``"rpc"`` (:class:`RpcShardRouter`), whose
    crashed workers are respawned and their request retried once;
    sustained failure raises a typed
    :class:`~repro.cluster.frames.ShardUnavailable` (reported through
    ``on_shard_failure``).  ``wire_format`` selects the row encoding over
    rpc: ``"columnar"`` (default) packs rows as id buffers in the store's
    numbering (:mod:`repro.columnar.wire`), ``"pickle"`` keeps tuple-list
    frames.  It and the other socket options are ignored in process.
    """

    def __init__(
        self,
        store: ShardedStore,
        cluster: ClusterConfig | None = None,
        params: CostParams = DEFAULT_PARAMS,
        transport: str = "inproc",
        on_shard_failure: Callable[[int, str], None] | None = None,
        max_frame_bytes: int | None = None,
        wire_format: str = "columnar",
        rpc_pipeline: int = DEFAULT_RPC_PIPELINE,
        coalesce_window_ms: float = 0.0,
        coalesce_max_batch: int = 1,
    ) -> None:
        cluster = cluster or ClusterConfig(num_nodes=store.num_nodes)
        if cluster.num_nodes != store.num_nodes:
            raise ValueError(
                f"cluster has {cluster.num_nodes} nodes but the "
                f"store places onto {store.num_nodes}"
            )
        if transport not in ("inproc", "rpc"):
            raise ValueError(
                f"unknown shard transport {transport!r}; "
                "expected 'inproc' or 'rpc'"
            )
        self.transport = transport
        rpc = transport == "rpc"
        socket_options = (
            dict(
                wire_format=wire_format,
                pipeline=rpc_pipeline,
                coalesce_window_ms=coalesce_window_ms,
                coalesce_max_batch=coalesce_max_batch,
                **({} if max_frame_bytes is None else {"max_frame_bytes": max_frame_bytes}),
            )
            if rpc
            else {}
        )
        router = (RpcShardRouter if rpc else ShardRouter)(
            num_nodes=store.num_nodes,
            num_shards=store.num_shards,
            on_failure=on_shard_failure,
            **socket_options,
        )
        super().__init__(store, cluster, params, backend=router)

    @property
    def router(self) -> ShardRouter:
        """The shard router — this executor's execution backend."""
        return self.backend

    # -- topology -------------------------------------------------------------

    def rebalance(
        self,
        target_shards: int | None = None,
        moves: Sequence[Move] | None = None,
    ) -> RebalanceReport:
        """Move node ownership between shards — grow, shrink, or shed skew.

        Pass *target_shards* to resize (the minimal plan is computed
        with :func:`~repro.cluster.ownership.plan_resize`), or an
        explicit ``(node, src, dst)`` *moves* plan (e.g. from
        :func:`~repro.cluster.ownership.plan_skew`).  Answers are
        invariant across the change: a move changes which shard serves
        a node, never where a triple is placed, so ``shards=4`` before
        and ``shards=5`` after produce byte-identical results.

        Either transport runs the same live migration
        (:meth:`ShardRouter.migrate`): each shard receives one
        :class:`~repro.cluster.frames.Sync` carrying only the moved nodes'
        file maps and the new epoch, and a failure rolls the table back
        and syncs the survivors to it.  Surviving workers keep their engines.  The caller must
        quiesce queries for the duration (the query service's store
        write lock does).
        """
        store = self.store
        old_table = store.table
        if moves is None:
            if target_shards is None:
                raise ValueError(
                    "rebalance needs target_shards or an explicit moves plan"
                )
            moves = plan_resize(old_table, target_shards)
        else:
            moves = tuple(moves)
        new_count = (
            old_table.num_shards if target_shards is None else target_shards
        )
        start = time.perf_counter()
        bytes_shipped = self.router.migrate(store, moves, new_count)
        new_table = store.table
        return RebalanceReport(
            old_epoch=old_table.version,
            new_epoch=new_table.version,
            old_shards=old_table.num_shards,
            new_shards=new_table.num_shards,
            moves=tuple(moves),
            bytes_shipped=bytes_shipped,
            duration_s=time.perf_counter() - start,
        )

    def suggest_rebalance(
        self, load: dict[int, float] | None = None, max_moves: int = 1
    ) -> tuple[Move, ...]:
        """A small skew-shedding plan from observed per-shard load.

        *load* maps shard → any monotone load signal (the service feeds
        worker gauges' ``tasks_run``); defaults to stored triples per
        shard.  Returns ``()`` when the topology is already balanced.
        """
        if load is None:
            load = {
                shard: float(count)
                for shard, count in enumerate(self.store.triples_per_shard())
            }
        return plan_skew(self.store.table, load, max_moves=max_moves)
