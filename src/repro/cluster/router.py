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
  :attr:`ShardRouter.client` (:mod:`repro.cluster.client`) — a worker
  in the driver process or in a server process — and each carrier
  drives one :class:`~repro.cluster.client.ShardLink`.  Which workers
  exist, at what snapshot, and when one is respawned or retired is the
  :class:`~repro.cluster.fleet.Fleet`'s to decide, with no I/O; the
  router carries out its actions, and routing, the stale re-route, the
  coalescer (:mod:`repro.cluster.levels`), the dispatch pool and
  tracing are the router's, for both carriers.  What a worker holds is
  its link's record.
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
from typing import Iterator, Sequence

from repro.analysis.locks import checked
from repro.cluster.client import (
    _TRANSPORT_ERRORS,
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_SPAWN_TIMEOUT,
    LocalShardClient,
    ShardWorkerClient,
    _frame_levels,
)
from repro.cluster.fleet import Fleet, RetireWorker, StartWorker, Unavailable
from repro.cluster.frames import (
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
from repro.cluster.levels import LevelCoalescer, record_level_span
from repro.cluster.ownership import OwnerTable
from repro.cluster.sharded_store import ShardedSnapshot
from repro.columnar.wire import WIRE_FORMATS
from repro.mapreduce.backends import (
    DEFAULT_RPC_PIPELINE,
    ColumnarBackend,
    ExecutionBackend,
    TaskInvocation,
)
from repro.mapreduce.counters import ExecutionReport
from repro.mapreduce.hdfs import DistributedRelation
from repro.mapreduce.jobs import TaskContext
from repro.obs.trace import record_remote, span, trace_ctx

#: what :meth:`ShardRouter._bring` starts: the transport
ShardClient = LocalShardClient | ShardWorkerClient


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


class ShardRouter(ExecutionBackend):
    """Runs each batch of the engine's level schedule on the shard
    workers owning its tasks, and returns results in submission order.

    A worker is reached through the client class :attr:`client` — here
    :class:`~repro.cluster.client.LocalShardClient`, in the driver process;
    :class:`RpcShardRouter` swaps in the socket client.  Which workers
    exist and what they hold is :attr:`fleet`'s to decide; the router
    carries out its actions.  The socket options (frame cap, spawn
    timeout, wire format, pipeline, coalescing) mean something over rpc
    only.
    """

    #: the shard client :meth:`_bring` starts — the transport
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
        #: fleet membership (:mod:`repro.cluster.fleet`): the snapshot the
        #: workers were brought to — the one record of the topology —
        #: and which started worker is each shard's
        self.fleet = Fleet(num_shards)
        self._lock = checked(threading.Lock(), "ShardRouter._lock")
        self._pool: ThreadPoolExecutor | None = None  # guarded-by: _lock
        self._counter_lock = checked(
            threading.Lock(), "ShardRouter._counter_lock"
        )
        #: level traffic counters: requests = ExecuteLevels asked for,
        #: frames = frames that carried them.  Coalescing provably
        #: merges when frames < requests.
        self.level_requests = 0  # guarded-by: _counter_lock
        self.level_frames = 0  # guarded-by: _counter_lock
        self._sub_ids = itertools.count(1)  # guarded-by: _counter_lock
        # A shard's lock serializes its fleet events and guards its
        # client.  One witness node for all shards: cross-shard nesting
        # between sibling locks is same-name and thus not edge-checked
        # (no code path holds two shard locks at once).  Grow-only, as
        # the coalescers: a query racing a shrink still finds its shard.
        self._shard_locks = [
            checked(threading.RLock(), "ShardRouter._shard_locks")
            for _ in range(num_shards)
        ]
        self._clients: dict[int, ShardClient] = {}  # guarded-by: _shard_locks
        #: queries currently inside an execution — the coalescer
        #: only holds its window open when this exceeds one
        self.active_queries = 0  # guarded-by: _counter_lock
        self._coalescers = (
            [LevelCoalescer(self, shard) for shard in range(num_shards)]
            if coalesce_max_batch > 1
            else None
        )

    @property
    def num_shards(self) -> int:
        """The shards routed over: the fleet's count."""
        return self.fleet.num_shards

    @property
    def shard_failures(self) -> int:
        """Worker failures the fleet counted."""
        return self.fleet.failures

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

    def _drop_pool(self, wait: bool) -> None:
        """Retire the dispatch pool; the next batch builds one sized for
        the shard count then."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

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
        at most the dictionary suffix, and with every worker current the
        fleet asks for nothing.  So every worker starts each query on its
        view, its epoch and the store's numbering."""
        for shard in self.fleet.want(snapshot):
            self._bring(shard)

    def _bring(
        self, shard: int, on_bytes=None
    ) -> tuple[ShardClient | None, int]:
        """Carry out the fleet's actions for *shard* until its worker
        holds the fleet's snapshot; returns the worker's client (None
        for a shard the fleet no longer has) and generation.

        The one path that starts, syncs, respawns and retires a worker.
        A dead worker found here is reported lost, and the fleet's next
        action starts its successor; a worker whose start or first sync
        fails is retired and the shard raises :class:`ShardUnavailable`.
        A sync refused typed by a serving worker re-raises as-is.
        """
        fleet = self.fleet
        with self._shard_locks[shard]:
            while True:
                client = self._clients.get(shard)
                if client is not None and not client.alive():
                    self._lost(shard, fleet.generation(shard), "worker process died")
                    continue
                action = fleet.bring(shard)
                if action is None:
                    return client, fleet.generation(shard)
                if isinstance(action, RetireWorker):
                    self._retire(shard, action.kill)
                elif isinstance(action, StartWorker):
                    client = self._clients[shard] = self.client(
                        shard=shard,
                        num_nodes=self.num_nodes,
                        max_frame_bytes=self.max_frame_bytes,
                        spawn_timeout=self.spawn_timeout,
                        pipeline=self.pipeline,
                        wire_format=self.wire_format,
                    )
                    try:
                        client.start()
                    except Exception as exc:
                        self._lost(shard, action.generation, f"spawn failed: {exc!r}")
                else:
                    try:
                        client.link.sync(action.snapshot, client.request, on_bytes)
                    except _TRANSPORT_ERRORS as exc:
                        self._lost(
                            shard, action.generation, f"{type(exc).__name__}: {exc}"
                        )
                    except RpcError as exc:
                        self._lost(shard, action.generation, repr(exc), refused=True)
                        raise
                    else:
                        fleet.synced(shard, action.generation, action.snapshot)

    def _lost(
        self, shard: int, generation: int, reason: str, refused: bool = False
    ) -> None:
        """Tell the fleet the worker of *generation* was lost (or
        *refused* a sync) and carry out its answer: report the counted
        failure to :attr:`on_failure`, retire the worker, and raise
        :class:`ShardUnavailable` once the respawn budget is spent.  A
        generation already replaced changes nothing."""
        with self._shard_locks[shard]:
            fleet = self.fleet
            actions = (fleet.refused if refused else fleet.lost)(
                shard, generation, reason
            )
            if actions and self.on_failure is not None:
                try:
                    self.on_failure(shard, reason)
                except Exception:
                    pass
            for action in actions:
                if isinstance(action, Unavailable):
                    raise ShardUnavailable(shard, action.reason)
                self._retire(shard, action.kill)

    def _retire(self, shard: int, kill: bool) -> None:
        with self._shard_locks[shard]:
            client = self._clients.pop(shard, None)
        if client is not None:
            client.close(kill=kill)

    def _grow_to(self, count: int) -> None:
        """Extend the per-shard locks and coalescers to *count* entries."""
        while len(self._shard_locks) < count:
            self._shard_locks.append(
                checked(threading.RLock(), "ShardRouter._shard_locks")
            )
        if self._coalescers is not None:
            while len(self._coalescers) < count:
                self._coalescers.append(
                    LevelCoalescer(self, len(self._coalescers))
                )

    # -- live rebalancing ----------------------------------------------------

    def migrate(
        self, snapshot: ShardedSnapshot, shipped: list[int] | None = None
    ) -> None:
        """Carry out the fleet's migration to *snapshot*, whose table the
        store just installed (:meth:`~repro.cluster.executor
        .ShardedPlanExecutor.rebalance`): every shard of the new topology
        is synced to its view — a new one from empty, a survivor by delta,
        the moved nodes' file maps and the new epoch in one frame, each
        counted into *shipped* — and a removed shard's worker retired.

        A survivor changes its data and its epoch together, so a level
        routed under the old epoch that reaches it afterwards is refused
        typed (:class:`StaleEpoch`) and re-routed — it never scans a node
        the worker already dropped.  Without *shipped* (a rollback) a
        shard that cannot be brought is left to the next
        :meth:`ensure_workers`."""
        old_count, new_count = self.num_shards, snapshot.num_shards
        plan = self.fleet.migrate(snapshot)
        self._grow_to(max(old_count, new_count))
        # wait=False: a migration triggered from a dispatch-pool thread
        # (a stale-epoch re-route) must not join its own pool.
        self._drop_pool(wait=False)
        for shard in plan:
            if shard >= new_count:
                self._bring(shard)
                continue

            def on_bytes(n: int, shard: int = shard) -> None:
                if shipped is not None:
                    shipped[shard] += n

            name = "rebalance:prime" if shard >= old_count else "rebalance:delta"
            with span(name, shard=shard):
                try:
                    self._bring(shard, on_bytes)
                except (RpcError, ShardUnavailable):
                    if shipped is not None:
                        raise

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
                client = self._clients.get(shard)
            if client is not None:
                started.append((shard, client))
        return started

    def close(self) -> None:
        for shard in self.fleet.stop():
            self._retire(shard, kill=False)
        self._drop_pool(wait=True)

    def _shard_call(self, shard: int, msg, on_bytes=None, on_wire=None):
        """One request to one shard, with the one-respawn retry budget.

        The shard lock guards only bringing the worker up — the round
        trip itself runs outside it, so concurrent queries multiplex on
        the worker connection instead of serializing behind a per-shard
        lock.  A typed :class:`ErrorReply` from a live worker re-raises
        as-is (the request failed, not the worker).  A transport failure
        means the worker died: the fleet is told, the worker respawned
        and synced afresh (once, however many requests saw it die), and
        the request retried exactly once (safe: a level is
        self-contained and a fresh worker holds nothing but the
        snapshot); any further failure raises
        :class:`ShardUnavailable`.  A successful retry of a traced
        execute frame is marked by an ``rpc:retry`` span covering
        respawn + resend on every contributing trace.
        """
        client, generation = self._client(shard)
        try:
            return client.request(msg, on_bytes, on_wire)
        except _TRANSPORT_ERRORS as exc:
            retry_start = time.perf_counter()
            self._lost(shard, generation, f"{type(exc).__name__}: {exc}")
            retry, generation = self._client(shard)
            try:
                reply = retry.request(msg, on_bytes, on_wire)
            except _TRANSPORT_ERRORS as retry_exc:
                reason = f"request failed after respawn: {retry_exc!r}"
                self._lost(shard, generation, reason)
                raise ShardUnavailable(shard, reason) from retry_exc
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

    def _client(self, shard: int) -> tuple[ShardClient, int]:
        """The shard's current client and generation (:meth:`_bring`)."""
        client, generation = self._bring(shard)
        if client is None:
            raise ShardUnavailable(
                shard, f"not in the fleet at epoch {self.fleet.epoch}"
            )
        return client, generation

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
        record_level_span(
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
        table = self.fleet.table
        groups: dict[int, list[int]] = {}
        for index, node in enumerate(nodes):
            groups.setdefault(table.shard_of_node(node), []).append(index)
        results: list = [None] * len(msg.tasks)
        for shard in sorted(groups):
            indices = groups[shard]
            sub = replace(
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
