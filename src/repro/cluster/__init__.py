"""repro.cluster — the sharded store, shard router and shard workers.

The distribution layer behind the query service: a
:class:`~repro.cluster.sharded_store.ShardedStore` is the one §5.1
store plus a versioned :class:`~repro.cluster.ownership.OwnerTable`
saying which of N shard workers serves which logical node (node ``n``
starts on shard ``n % N``; a shard's snapshot is the view of the store
covering its nodes, so every co-location guarantee the planner relies
on holds shard-locally), and a :class:`~repro.cluster.router
.ShardRouter` behind the one :class:`~repro.mapreduce.engine
.MapReduceEngine` runs every task of a level on the shard owning its
node.  Enable it with ``ServiceConfig(shards=N)`` — answers are
identical for any shard count.  Ownership is a movable table, so the
topology is elastic (:meth:`~repro.cluster.executor.ShardedPlanExecutor
.rebalance`), and answers are invariant at every epoch.

A shard is one worker state (:mod:`repro.cluster.worker`): its
snapshot, its engine, its epoch — nothing about plans.  The frames and
typed errors are :mod:`repro.cluster.frames`; one of them,
:class:`~repro.cluster.frames.Sync`, brings a worker up to date.  On the
driver side (:mod:`repro.cluster.client`) a sans-I/O
:class:`~repro.cluster.client.ShardLink` per worker keeps the protocol
state, and one of two carriers moves its frames
(``ServiceConfig(shard_transport=...)``): ``"inproc"`` hands an
in-process worker frames as objects, ``"rpc"`` reaches a long-lived
server process over a localhost socket, respawned once when it crashes
(sustained failure raises :class:`~repro.cluster.frames.ShardUnavailable`).
"""

from repro.cluster.executor import RebalanceReport, ShardedPlanExecutor
from repro.cluster.router import RpcShardRouter, ShardRouter
from repro.cluster.client import ShardWorkerClient
from repro.cluster.frames import ShardUnavailable, StaleEpoch
from repro.cluster.ownership import Move, OwnerTable, plan_resize, plan_skew
from repro.cluster.sharded_store import (
    ShardedSnapshot,
    ShardedStore,
    shard_graph,
)

__all__ = [
    "Move",
    "OwnerTable",
    "RebalanceReport",
    "RpcShardRouter",
    "ShardRouter",
    "ShardUnavailable",
    "ShardWorkerClient",
    "ShardedPlanExecutor",
    "ShardedSnapshot",
    "ShardedStore",
    "StaleEpoch",
    "plan_resize",
    "plan_skew",
    "shard_graph",
]
