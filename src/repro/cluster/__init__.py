"""repro.cluster — the sharded store, shard router and shard workers.

The distribution layer behind the query service: a
:class:`~repro.cluster.sharded_store.ShardedStore` is the one §5.1
store plus a versioned :class:`~repro.cluster.ownership.OwnerTable`
saying which of N shard workers serves which logical node (node ``n``
starts on shard ``n % N``; a shard's snapshot is the view of the store
covering its nodes, so every co-location guarantee the planner relies
on holds shard-locally), and a
:class:`~repro.cluster.router.ShardRouter` sits behind the one
:class:`~repro.mapreduce.engine.MapReduceEngine` as its execution
backend and runs every task of a level on the shard owning its node
(the reduce batch is the cross-shard exchange).  Enable it with
``ServiceConfig(shards=N)`` — answers are identical for any shard count
and any execution backend.

Because ownership is a movable table rather than a frozen modulus, the
topology is elastic: :meth:`~repro.cluster.router.ShardedPlanExecutor
.rebalance` grows, shrinks or deskews the shard fleet by reassigning
nodes: each shard receives one :class:`~repro.cluster.rpc.Sync`
carrying only the moved nodes' file maps and the next table version —
answers are invariant at every epoch.

A shard is one worker state (:mod:`repro.cluster.rpc`): its snapshot,
its engine (the id-space one), its epoch.  One frame,
:class:`~repro.cluster.rpc.Sync`, brings that state up to date — at
start, after a write, after a respawn and in a migration — and a
level reaches it as one frame carrying the task specs and the
exchange rows; it keeps nothing about plans.  Two clients carry those frames
(``ServiceConfig(shard_transport=...)``), behind the one router:

* ``"inproc"`` — every worker lives in the driver process and frames
  cross as objects, blocks by reference;
* ``"rpc"`` — workers are long-lived server processes over localhost
  sockets.  Crashed workers are respawned with a one-retry budget;
  sustained failure raises a typed
  :class:`~repro.cluster.rpc.ShardUnavailable`.
"""

from repro.cluster.router import (
    RebalanceReport,
    RpcShardRouter,
    ShardedPlanExecutor,
    ShardRouter,
)
from repro.cluster.rpc import (
    ShardUnavailable,
    ShardWorkerClient,
    StaleEpoch,
)
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
