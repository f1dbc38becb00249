"""repro.cluster — the sharded store, shard router and RPC shard workers.

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
nodes, shipping only the moved nodes' file maps (over RPC, as
:class:`~repro.cluster.rpc.PrimeNodes` deltas) and flipping the table
version — answers are invariant at every epoch.

Two shard transports share that dispatch logic
(``ServiceConfig(shard_transport=...)``):

* ``"inproc"`` — shards are calls into one shared inline engine
  (serial or columnar) against each shard's snapshot;
* ``"rpc"`` (:mod:`repro.cluster.rpc`) — shards are long-lived server
  processes over localhost sockets that hold their snapshot and one
  inline engine resident and nothing about plans; a level's task specs and
  exchange rows cross the wire with the level.
  Crashed workers are respawned with a one-retry budget; sustained
  failure raises a typed :class:`~repro.cluster.rpc.ShardUnavailable`.
"""

from repro.cluster.router import (
    RebalanceReport,
    ShardedPlanExecutor,
    ShardRouter,
)
from repro.cluster.rpc import (
    RpcShardRouter,
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
