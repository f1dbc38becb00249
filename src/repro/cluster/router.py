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
  :class:`~repro.partitioning.triple_partitioner.StoreSnapshot`.  How a
  shard physically runs its slice is that shard's own backend (serial,
  thread, columnar, or a per-shard process pool keyed to the shard's
  snapshot token), or a shard server process behind
  :class:`repro.cluster.rpc.RpcShardRouter`.
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
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    TaskInvocation,
    make_backend,
    split_workers,
)
from repro.mapreduce.counters import ExecutionReport
from repro.mapreduce.engine import ClusterConfig
from repro.mapreduce.jobs import TaskContext
from repro.physical.executor import PlanExecutor

from repro.cluster.sharded_store import ShardedSnapshot, ShardedStore
from repro.cluster.ownership import Move, OwnerTable, plan_resize, plan_skew


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
    a function call into that shard's execution backend.  The RPC
    transport (:class:`repro.cluster.rpc.RpcShardRouter`) subclasses it,
    keeping the grouping and reassembly and replacing only the per-shard
    hop (:meth:`_run_shard`).
    """

    #: transport label recorded on execution reports
    transport = "inproc"

    def __init__(
        self,
        num_nodes: int,
        num_shards: int,
        backends: Sequence[ExecutionBackend] = (),
        parallel_shards: bool = True,
    ) -> None:
        if self.transport == "inproc" and len(backends) != num_shards:
            raise ValueError(
                f"{num_shards} shards need {num_shards} backends, "
                f"got {len(backends)}"
            )
        self.num_nodes = num_nodes
        self.num_shards = num_shards
        #: one execution backend per shard (none over RPC: there the
        #: backends live inside the shard server processes)
        self.backends = list(backends)
        if self.backends:
            self.name = self.backends[0].name
        #: dispatch shard batches on driver threads so per-shard process
        #: pools overlap; pointless for the serial backend (GIL-bound)
        self.parallel_shards = parallel_shards and num_shards > 1
        self._lock = checked(threading.Lock(), "ShardRouter._lock")
        self._pool: ThreadPoolExecutor | None = None  # guarded-by: _lock

    # -- lifecycle ----------------------------------------------------------

    def prime(self, ctx: TaskContext) -> None:
        """Warm every shard's backend against its slice of the sharded
        snapshot in *ctx*: only shards whose snapshot token changed
        since the last prime rebuild their pools; the rest keep their
        workers (and the store slice those workers inherited)."""
        for backend, shard_snapshot in zip(self.backends, ctx.store.shards):
            backend.prime(
                TaskContext(num_nodes=ctx.num_nodes, store=shard_snapshot)
            )

    def close(self) -> None:
        """Retire the dispatch pool (the per-shard backends are closed
        by the executor that built them)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

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
        out = self.backends[shard].run(batch, ctx.dispatch.ctxs[shard])
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
    unchanged.  ``transport`` selects the shard boundary:

    * ``"inproc"`` (default): shards are called in-process through
      per-shard execution backends — for ``"process"``, a worker pool
      of its own, with the machine-wide worker budget split across
      shards and each pool keyed to its shard's snapshot token (a
      mutation rebuild touches only mutated shards).
    * ``"rpc"``: shards are **long-lived server processes** behind
      :class:`repro.cluster.rpc.RpcShardRouter` — each holds its
      snapshot and a local backend resident and nothing about plans: a
      level's task specs and exchange rows cross the localhost socket
      with the level.  A crashed worker is
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
        backend_workers: int | None = None,
        on_fallback: Callable[[str], None] | None = None,
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
        # Kept for topology changes: an in-process rebalance rebuilds
        # the router (and per-shard backends) from the same spec.
        self._backend_spec = backend
        self._backend_workers = backend_workers
        self._on_fallback = on_fallback
        if transport == "rpc":
            from repro.cluster.rpc import RpcShardRouter

            if isinstance(backend, ExecutionBackend):
                raise ValueError(
                    "the rpc transport needs a backend *name* (the backend "
                    "lives inside each shard server process), not an instance"
                )
            workers = split_workers(
                backend_workers, store.num_shards, backend or "serial"
            )
            extra = {} if max_frame_bytes is None else {
                "max_frame_bytes": max_frame_bytes
            }
            router: ShardRouter = RpcShardRouter(
                num_nodes=store.num_nodes,
                num_shards=store.num_shards,
                worker_backend=backend or "serial",
                worker_backend_workers=workers,
                on_failure=on_shard_failure,
                on_warning=on_fallback,
                wire_format=wire_format,
                pipeline=rpc_pipeline,
                coalesce_window_ms=coalesce_window_ms,
                coalesce_max_batch=coalesce_max_batch,
                **extra,
            )
        else:
            router = self._inproc_router(store)
        super().__init__(store, cluster, params, backend=router)

    @property
    def router(self) -> ShardRouter:
        """The shard router — this executor's execution backend."""
        return self.backend

    def _inproc_router(self, store: ShardedStore) -> ShardRouter:
        """An in-process router + per-shard backends for the store's
        *current* shard count, from the saved backend spec."""
        backend = self._backend_spec
        if backend in (None, "serial", "columnar"):
            # Inline backends keep no per-snapshot pool, so one instance
            # serves every shard (and columnar shards share one scan
            # cache; they share the store's id space regardless).
            backend = make_backend(backend)
        if isinstance(backend, ExecutionBackend):
            if store.num_shards > 1 and isinstance(backend, ProcessBackend):
                raise ValueError(
                    "a shared ProcessBackend cannot serve multiple shards "
                    "(its pool is keyed to one snapshot); pass "
                    "backend='process' to give each shard its own pool"
                )
            backends = [backend] * store.num_shards
            parallel = not isinstance(backend, SerialBackend)
        else:
            workers = split_workers(
                self._backend_workers, store.num_shards, backend
            )
            on_fallback = self._on_fallback
            backends = [
                make_backend(
                    backend,
                    num_workers=workers,
                    on_fallback=(
                        None
                        if on_fallback is None
                        else (
                            lambda message, shard=shard: on_fallback(
                                f"shard {shard}: {message}"
                            )
                        )
                    ),
                )
                for shard in range(store.num_shards)
            ]
            parallel = True
        return ShardRouter(
            num_nodes=store.num_nodes,
            num_shards=store.num_shards,
            backends=backends,
            parallel_shards=parallel,
        )

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        self.router.close()
        for backend in self.router.backends:
            backend.close()

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
        table is installed and the router + per-shard backends are
        rebuilt and re-primed for the new shard count.
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
            old_router = self.router
            self.backend = self.engine.backend = self._inproc_router(store)
            old_router.close()
            if not isinstance(self._backend_spec, ExecutionBackend):
                # per-shard backends built from a name: retired with
                # their router (a caller's shared instance lives on)
                for backend in old_router.backends:
                    backend.close()
            self.prime()
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
