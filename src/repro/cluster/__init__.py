"""repro.cluster — the sharded store, shard router and RPC shard workers.

The distribution layer behind the query service: a
:class:`~repro.cluster.sharded_store.ShardedStore` hash-partitions the
§5.1 replicated layout across N shard workers (logical nodes hash onto
a fixed ring of slots and a versioned
:class:`~repro.cluster.slots.SlotTable` maps slots to shards — the
version-0 table reproduces the classic ``n % N`` layout, so every
co-location guarantee the planner relies on holds shard-locally), a
:class:`~repro.cluster.router.ShardRouter` sits behind the one
:class:`~repro.mapreduce.engine.MapReduceEngine` as its execution
backend and runs every task of a level on the shard owning its node
(the reduce batch is the cross-shard exchange), and per-shard catalog
statistics aggregate into the exact global catalog the cost model
consumes.  Enable it with ``ServiceConfig(shards=N)`` —
answers are identical for any shard count and any execution backend.

Because ownership is a movable table rather than a frozen modulus, the
topology is elastic: :meth:`~repro.cluster.router.ShardedPlanExecutor
.rebalance` grows, shrinks or deskews the shard fleet by moving slot
ownership, shipping only the moved slots' snapshot slices (over RPC,
as :class:`~repro.cluster.rpc.PrimeSlots` deltas) and flipping the
table version — answers are invariant at every epoch.

Two shard transports share that dispatch logic
(``ServiceConfig(shard_transport=...)``):

* ``"inproc"`` — shards are in-process execution backends (function
  call boundary, per-shard worker pools);
* ``"rpc"`` (:mod:`repro.cluster.rpc`) — shards are long-lived server
  processes over localhost sockets that hold their snapshot and a local
  backend resident and nothing about plans; a level's task specs and
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
from repro.cluster.sharded_store import (
    ShardedSnapshot,
    ShardedStore,
    shard_graph,
)
from repro.cluster.slots import (
    DEFAULT_SLOTS,
    Move,
    SlotTable,
    plan_resize,
    plan_skew,
)

__all__ = [
    "DEFAULT_SLOTS",
    "Move",
    "RebalanceReport",
    "RpcShardRouter",
    "ShardRouter",
    "ShardUnavailable",
    "ShardWorkerClient",
    "ShardedPlanExecutor",
    "ShardedSnapshot",
    "ShardedStore",
    "SlotTable",
    "StaleEpoch",
    "plan_resize",
    "plan_skew",
    "shard_graph",
]
