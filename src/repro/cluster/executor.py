"""The plan executor over shards, and the one way its topology changes.

:class:`ShardedPlanExecutor` is the base
:class:`~repro.physical.executor.PlanExecutor` with a
:class:`~repro.cluster.router.ShardRouter` as its execution backend;
:meth:`~ShardedPlanExecutor.rebalance` moves node ownership between
shards by installing the plan's table on the store and having the
router carry the fleet's migration out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cluster.frames import ShardUnavailable
from repro.cluster.ownership import Move, plan_resize, plan_skew
from repro.cluster.router import RpcShardRouter, ShardRouter
from repro.cluster.sharded_store import ShardedStore
from repro.cost.params import DEFAULT_PARAMS, CostParams
from repro.mapreduce.backends import DEFAULT_RPC_PIPELINE
from repro.mapreduce.engine import ClusterConfig
from repro.physical.executor import PlanExecutor


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

        The plan's table is installed on the store (the epoch climbs)
        and the router carries out the fleet's migration
        (:meth:`ShardRouter.migrate`): each shard receives one
        :class:`~repro.cluster.frames.Sync` carrying only the moved
        nodes' file maps and the new epoch.  On any failure the same
        migration runs with the inverse plan, the epoch climbing again.
        Surviving workers keep their engines.  The caller must quiesce
        queries for the duration (the query service's store write lock
        does).
        """
        store = self.store
        old_table = store.table
        if moves is None:
            if target_shards is None:
                raise ValueError(
                    "rebalance needs target_shards or an explicit moves plan"
                )
            moves = plan_resize(old_table, target_shards)
        moves = tuple(moves)
        old_count = old_table.num_shards
        new_count = old_count if target_shards is None else target_shards
        start = time.perf_counter()
        shipped: list[int] = []
        if moves or new_count != old_count:
            shipped = [0] * max(old_count, new_count)
            store.apply_rebalance(moves, new_count)
            try:
                self.router.migrate(store.snapshot(), shipped)
            except BaseException as exc:
                store.apply_rebalance(store.table.inverse(moves), old_count)
                self.router.migrate(store.snapshot())
                if isinstance(exc, ShardUnavailable):
                    raise ShardUnavailable(
                        exc.shard, f"migration failed: {exc.message}"
                    ) from exc
                raise
        return RebalanceReport(
            old_epoch=old_table.version,
            new_epoch=store.table.version,
            old_shards=old_count,
            new_shards=store.table.num_shards,
            moves=moves,
            bytes_shipped=tuple(shipped[:new_count]),
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
