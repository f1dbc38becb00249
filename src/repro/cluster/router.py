"""The shard router: dispatches one level's tasks to the shards that own them.

:class:`~repro.mapreduce.engine.MapReduceEngine` is the only level
scheduler: it fans a level's map tasks out, routes the shuffle, fans the
reduce tasks out and does all the accounting, whatever the deployment.
The router is an :class:`~repro.mapreduce.backends.ExecutionBackend`
behind that engine — the one thing a sharded deployment changes is
*where* each task of a batch runs:

* **every task runs on the shard that owns its node.**  A map task is
  pinned to a logical node; reduce partition ``p`` lives on node
  ``p % num_nodes``; each node is owned by exactly one shard under the
  :class:`~repro.cluster.ownership.OwnerTable` of the snapshot the execution
  started on.  The router groups a batch by owning shard and hands each
  shard its slice — the shard scans only its own
  :class:`~repro.partitioning.triple_partitioner.StoreSnapshot`.  A
  shard runs its slice on one inline engine
  (:data:`~repro.mapreduce.backends.INLINE_BACKENDS`: serial or
  columnar, one kernel pass per task group): in process, one instance
  shared by every shard; behind :class:`repro.cluster.rpc.RpcShardRouter`,
  the one a shard server process holds.  There is no pool inside a
  shard — the shards are the parallelism, as the §5.1 nodes are.
* **the shuffle is the cross-shard exchange.**  The engine routes map
  emissions to reduce partitions by the process-independent
  :func:`~repro.mapreduce.jobs.stable_hash`; rows whose key hashes to a
  partition on another shard's node cross shards in the reduce batch,
  and only there.  A map shuffler reads nothing but its own node's
  partition of an intermediate, so intermediates need no per-shard copy.
  What crosses is the engine's chunks, untouched, in the one id space
  the store numbered every term in: in-process columnar shards compute
  in the store's dictionary, so a block emitted on one shard is read as
  id columns on another; over rpc every worker holds a replica of that
  dictionary, synced to the store's at each query start, so the frame
  carries a block's id columns as they are, translated nowhere
  (:mod:`repro.columnar.wire`).
* **results come back in submission order**, whichever shard finishes
  first, so the engine's shuffle grouping — and with it answers and
  every report field — equal the unsharded run's by construction, for
  any shard count.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from repro.analysis.locks import checked
from repro.obs.trace import record_remote, trace_ctx
from repro.cost.params import DEFAULT_PARAMS, CostParams
from repro.mapreduce.backends import (
    DEFAULT_RPC_PIPELINE,
    INLINE_BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    TaskInvocation,
    ThreadBackend,
    make_backend,
)
from repro.mapreduce.counters import ExecutionReport
from repro.mapreduce.engine import ClusterConfig
from repro.mapreduce.jobs import TaskContext
from repro.physical.executor import PlanExecutor

from repro.cluster.sharded_store import ShardedSnapshot, ShardedStore
from repro.cluster.ownership import Move, OwnerTable, plan_resize, plan_skew


def check_shard_backend(backend: "ExecutionBackend | str | None") -> None:
    """Refuse a pool backend for a sharded deployment, typed: a shard
    runs one inline engine and the shards are its parallelism."""
    if isinstance(backend, (ThreadBackend, ProcessBackend)) or backend in (
        "thread",
        "process",
    ):
        name = backend if isinstance(backend, str) else backend.name
        raise ValueError(
            f"a shard runs one inline engine ({' or '.join(INLINE_BACKENDS)}), "
            f"not the {name!r} pool backend; pools serve unsharded "
            "executors only"
        )


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
    #: migration bytes shipped per shard (RPC transport only; the
    #: elasticity claim is that this stays well under a full re-prime)
    bytes_shipped: tuple[int, ...] | None
    #: wall-clock seconds for the whole migration
    duration_s: float

    @property
    def moved_nodes(self) -> tuple[int, ...]:
        """The nodes whose ownership (and data) moved, ascending."""
        return tuple(sorted(node for node, _src, _dst in self.moves))


@dataclass
class ShardDispatch:
    """What the router keeps for one execution, carried on
    :attr:`TaskContext.dispatch <repro.mapreduce.jobs.TaskContext>`."""

    #: owner table of the snapshot the execution started on — every
    #: batch of the execution is grouped by it, whatever the fleet's
    #: size has become meanwhile
    table: OwnerTable
    #: map + reduce tasks run per shard
    tasks: list[int]
    #: output rows landing on each shard's nodes (all jobs)
    rows: list[int]
    #: each shard's view of the execution: its own snapshot, the shared
    #: intermediates (in-process transport only)
    ctxs: Sequence[TaskContext] = ()


class ShardRouter(ExecutionBackend):
    """Runs each batch of the engine's level schedule on the shards
    owning its tasks, and returns results in submission order.

    This is the **in-process** transport: a shard's slice of a batch is
    a function call into the one engine every shard shares, against the
    shard's own snapshot.  The RPC transport
    (:class:`repro.cluster.rpc.RpcShardRouter`) subclasses it, keeping
    the grouping and reassembly and replacing only the per-shard hop
    (:meth:`_run_shard`).
    """

    #: transport label recorded on execution reports
    transport = "inproc"

    def __init__(
        self,
        num_nodes: int,
        num_shards: int,
        backend: ExecutionBackend | None = None,
        parallel_shards: bool = True,
    ) -> None:
        if self.transport == "inproc" and backend is None:
            raise ValueError("an in-process shard router needs a backend")
        self.num_nodes = num_nodes
        self.num_shards = num_shards
        #: the engine every shard's slice runs on (none over RPC: there
        #: each shard server process holds its own)
        self.backend = backend
        if backend is not None:
            self.name = backend.name
        #: dispatch shard batches on driver threads; the caller's
        #: request, re-applied when a resize changes the shard count
        #: (one shard dispatches inline)
        self._parallel_requested = parallel_shards
        self.parallel_shards = parallel_shards and num_shards > 1
        self._lock = checked(threading.Lock(), "ShardRouter._lock")
        self._pool: ThreadPoolExecutor | None = None  # guarded-by: _lock

    # -- lifecycle ----------------------------------------------------------

    def resize(self, num_shards: int) -> None:
        """Route over *num_shards* shards from now on, retiring the
        dispatch pool sized for the old count."""
        self.num_shards = num_shards
        self.parallel_shards = self._parallel_requested and num_shards > 1
        with self._lock:
            old_pool, self._pool = self._pool, None
        if old_pool is not None:
            # wait=False: a resize triggered from a dispatch-pool
            # thread (an rpc stale-epoch re-route) must not join its
            # own pool.
            old_pool.shutdown(wait=False)

    def close(self) -> None:
        """Retire the dispatch pool and the shard engine."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
        if self.backend is not None:
            self.backend.close()

    def _dispatch_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._dispatch_width(),
                    thread_name_prefix="repro-shard",
                )
            return self._pool

    def _dispatch_width(self) -> int:
        """Driver-side dispatch pool size.  The RPC router widens this
        with its pipeline depth: coalescer followers park on a dispatch
        thread until the leader flushes, so the pool must hold one
        thread per concurrently in-flight shard call."""
        return max(4, 2 * self.num_shards)

    # -- execution -----------------------------------------------------------

    @contextmanager
    def execution(
        self, ctx: TaskContext, report: ExecutionReport
    ) -> Iterator[TaskContext]:
        """Attach this execution's :class:`ShardDispatch` to the context
        the engine runs its levels with, then stamp the report with how
        the work was spread over the shards."""
        state = self._open(ctx)
        yield replace(ctx, dispatch=state)
        report.shards = state.table.num_shards
        report.transport = self.transport
        report.shard_tasks = tuple(state.tasks)
        report.shard_rows = tuple(state.rows)

    def _snapshot_of(self, ctx: TaskContext) -> ShardedSnapshot:
        snapshot = ctx.store
        if snapshot.num_shards != self.num_shards:
            raise ValueError(
                f"snapshot has {snapshot.num_shards} shards, "
                f"router routes {self.num_shards}"
            )
        return snapshot

    def _open(self, ctx: TaskContext) -> ShardDispatch:
        snapshot = self._snapshot_of(ctx)
        return ShardDispatch(
            table=snapshot.table,
            tasks=[0] * snapshot.num_shards,
            rows=[0] * snapshot.num_shards,
            ctxs=[
                TaskContext(num_nodes=ctx.num_nodes, store=shard, hdfs=ctx.hdfs)
                for shard in snapshot.shards
            ],
        )

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
            return self._run_shard(shard, batch, ctx, tctx)

        if len(shards) > 1 and self.parallel_shards:
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

    def _run_shard(
        self,
        shard: int,
        batch: list[TaskInvocation],
        ctx: TaskContext,
        tctx: tuple | None,
    ) -> list:
        """Run one shard's slice of a batch (one phase of one level);
        results in the slice's order."""
        t0 = time.perf_counter()
        out = self.backend.run(batch, ctx.dispatch.ctxs[shard])
        if tctx is not None:
            record_remote(
                tctx, "shard", t0, time.perf_counter(),
                shard=shard, phase=batch[0].phase, level=batch[0].level,
                tasks=len(batch),
            )
        return out


class ShardedPlanExecutor(PlanExecutor):
    """A :class:`~repro.physical.executor.PlanExecutor` over shards.

    The store is a :class:`ShardedStore` and the execution backend is a
    shard router; preparing and executing plans is the base class's,
    unchanged.  *backend* is the one inline engine the shards run
    (``"serial"`` — the default — ``"columnar"``, or an instance, shared
    by every shard); the ``"thread"`` / ``"process"`` pool backends are
    refused with a ``ValueError``.  ``transport`` selects the shard
    boundary:

    * ``"inproc"`` (default): a shard's slice of a batch is a call into
      the shared engine against the shard's own snapshot.
    * ``"rpc"``: shards are **long-lived server processes** behind
      :class:`repro.cluster.rpc.RpcShardRouter` — each holds its
      snapshot and one engine of the named kind resident and nothing
      about plans: a level's task specs and exchange rows cross the
      localhost socket with the level.  A crashed worker is
      respawned and its request retried once; sustained failure raises
      a typed :class:`~repro.cluster.rpc.ShardUnavailable` (reported
      through ``on_shard_failure``).  ``wire_format`` selects the row
      encoding of those exchanges: ``"columnar"`` (default) packs rows
      as id buffers in the store's numbering
      (:mod:`repro.columnar.wire`), ``"pickle"`` keeps the original
      tuple-list frames.
    """

    def __init__(
        self,
        store: ShardedStore,
        cluster: ClusterConfig | None = None,
        params: CostParams = DEFAULT_PARAMS,
        backend: ExecutionBackend | str | None = None,
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
        check_shard_backend(backend)
        self.transport = transport
        if transport == "rpc":
            from repro.cluster.rpc import RpcShardRouter

            if isinstance(backend, ExecutionBackend):
                raise ValueError(
                    "the rpc transport needs a backend *name* (the backend "
                    "lives inside each shard server process), not an instance"
                )
            extra = {} if max_frame_bytes is None else {
                "max_frame_bytes": max_frame_bytes
            }
            router: ShardRouter = RpcShardRouter(
                num_nodes=store.num_nodes,
                num_shards=store.num_shards,
                worker_backend=backend or "serial",
                on_failure=on_shard_failure,
                wire_format=wire_format,
                pipeline=rpc_pipeline,
                coalesce_window_ms=coalesce_window_ms,
                coalesce_max_batch=coalesce_max_batch,
                **extra,
            )
        else:
            engine = make_backend(backend)
            router = ShardRouter(
                num_nodes=store.num_nodes,
                num_shards=store.num_shards,
                backend=engine,
                # a serial engine is GIL-bound: dispatch threads would
                # only add hand-offs
                parallel_shards=not isinstance(engine, SerialBackend),
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

        RPC transport: a live migration — only the moved nodes' file
        maps cross the wire (:class:`~repro.cluster.rpc.PrimeNodes`),
        the epoch flips via :class:`~repro.cluster.rpc.TableUpdate`, and
        a failure rolls the table back, leaving workers to reconcile
        lazily.  The caller must quiesce queries for the duration (the
        query service's store write lock does).  In-process: the next
        table is installed and the router resized to the new shard
        count; the shared engine is untouched.
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
        if not moves and new_count == old_table.num_shards:
            return RebalanceReport(
                old_epoch=old_table.version,
                new_epoch=old_table.version,
                old_shards=old_table.num_shards,
                new_shards=old_table.num_shards,
                moves=(),
                bytes_shipped=() if self.transport == "rpc" else None,
                duration_s=time.perf_counter() - start,
            )
        if self.transport == "rpc":
            bytes_shipped = self.router.migrate(  # type: ignore[attr-defined]
                store, moves, new_count
            )
        else:
            store.apply_rebalance(moves, new_count)
            self.router.resize(store.num_shards)
            bytes_shipped = None
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
