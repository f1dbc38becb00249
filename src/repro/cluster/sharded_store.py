"""The sharded §5.1 store: one store, and a shard is an ownership view of it.

CliqueSquare's storage layout (``repro.partitioning``) places each
triple three times — by the hash of its subject, property and object
value — onto ``num_nodes`` logical nodes.  A :class:`ShardedStore` *is*
that store (a :class:`~repro.partitioning.triple_partitioner
.PartitionedStore`: same ``add``, same files, same scans) plus a
versioned :class:`~repro.cluster.ownership.OwnerTable` saying which
shard serves which node.  A shard holds no data of its own: its
:class:`~repro.partitioning.triple_partitioner.StoreSnapshot` is the
view of the one store covering the nodes it owns (the other nodes' file
maps are empty — the shape a shard worker is synced to).  Because
ownership is a table, shards can be added and removed at runtime:
:meth:`ShardedStore.apply_rebalance` validates a plan and installs the
next table; nothing is copied, because there is one store.

Because the node placement is unchanged, every co-location guarantee the
planner relies on (first-level joins are processed without
communication, §5.1) holds *within a shard*: a map task for node ``n``
runs on the shard owning ``n`` against purely shard-local data.  Only
the shuffle between a job's map and reduce phase — and job outputs
consumed by later jobs — cross shards, which is the router's exchange
step (:mod:`repro.cluster.router`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.locks import checked
from repro.cluster.ownership import Move, OwnerTable, initial_table
from repro.partitioning.layout import PLACEMENTS
from repro.partitioning.triple_partitioner import PartitionedStore, StoreSnapshot
from repro.rdf.dictionary import Dictionary
from repro.rdf.graph import RDFGraph, Triple


@dataclass(frozen=True)
class ShardedSnapshot:
    """Read-only view of a :class:`ShardedStore` at one version.

    ``shards[i]`` is shard *i*'s :class:`StoreSnapshot` — its owned
    nodes' partitions — and carries a token of its own (the node set
    and those nodes' versions), so a mutation that touched only some
    shards ships files to only those shards' workers: the others keep
    serving from their unchanged snapshots.
    """

    num_nodes: int
    num_shards: int
    shards: tuple[StoreSnapshot, ...]
    token: tuple
    table: OwnerTable

    @property
    def dictionary(self) -> Dictionary:
        """The store's dictionary, the one every shard view carries."""
        return self.shards[0].dictionary

    def shard_of_node(self, node: int) -> int:
        return self.table.shard_of_node(node)

    def scan(
        self,
        node: int,
        placement: str,
        prop: str | None = None,
        type_object: str | None = None,
    ) -> list[Triple]:
        """Scan one node's partition on the shard that owns the node."""
        return self.shards[self.table.shard_of_node(node)].scan(
            node, placement, prop, type_object
        )

    def total_stored(self) -> int:
        return sum(s.total_stored() for s in self.shards)


class ShardedStore(PartitionedStore):
    """The §5.1 store plus the table of which shard serves which node.

    Loading, scanning and the layout invariants are the base class's;
    what a sharded store adds is the topology (``table``, per-shard
    views, rebalancing) and a lock making mutation, snapshotting and
    rebalancing atomic against each other for callers that do not hold
    the query service's store lock.
    """

    def __init__(
        self,
        num_nodes: int,
        num_shards: int,
        replicas: tuple[str, ...] = PLACEMENTS,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        if num_nodes < 1:
            raise ValueError(f"need at least one node, got {num_nodes}")
        if num_shards > num_nodes:
            # Ownership is node-granular: a shard beyond the node count
            # could never own data, only hold an idle worker.
            raise ValueError(
                f"cannot spread {num_nodes} nodes over {num_shards} shards; "
                "use at most one shard per node"
            )
        if tuple(replicas) != PLACEMENTS:
            # The replica-ablation path stays on the single-store executor.
            raise ValueError(
                "a sharded store requires the full 3-way replication "
                f"scheme {PLACEMENTS}, got {tuple(replicas)}"
            )
        super().__init__(num_nodes=num_nodes)
        #: node ``n`` starts on shard ``n % num_shards``
        self.table = initial_table(num_shards, num_nodes)
        self._lock = checked(threading.Lock(), "ShardedStore._lock")
        self._last: ShardedSnapshot | None = None

    # -- topology ----------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.table.num_shards

    def shard_of_node(self, node: int) -> int:
        """The shard owning logical node *node*."""
        return self.table.shard_of_node(node)

    @property
    def node_shards(self) -> tuple[int, ...]:
        """Shard owner per logical node (``node_shards[n]`` owns n)."""
        return self.table.owners

    def nodes_of_shard(self, shard: int) -> tuple[int, ...]:
        """The logical nodes shard *shard* owns."""
        return self.table.nodes_of_shard(shard)

    def triples_per_shard(self) -> tuple[int, ...]:
        """Stored triples (all replicas) per shard."""
        out = [0] * self.num_shards
        for owner, files in zip(self.table.owners, self.files):
            out[owner] += sum(len(ts) for ts in files.values())
        return tuple(out)

    # -- loading / snapshots -----------------------------------------------

    def add(self, triple: Triple) -> None:
        with self._lock:
            super().add(triple)

    def snapshot(self) -> ShardedSnapshot:
        """Per-shard views plus a combined identity token, memoized
        per (store version, table version).

        A shard's token is its node set and those nodes' versions: it
        changes iff a node the shard owns was written or its node set
        changed, so only shards the last mutation batch (or rebalance)
        touched get a new view — the others keep the previous
        snapshot's view object, and only touched shards' workers
        re-prime.
        """
        with self._lock:
            last = self._last
            token = (self.uid, self.version, self.table.version)
            if last is not None and last.token == token:
                return last
            views = {} if last is None else {v.token: v for v in last.shards}
            shards = []
            for shard in range(self.num_shards):
                nodes = self.table.nodes_of_shard(shard)
                view_token = (
                    self.uid,
                    nodes,
                    tuple(self.node_versions[n] for n in nodes),
                )
                shards.append(
                    views.get(view_token) or self.view(nodes, view_token)
                )
            self._last = ShardedSnapshot(
                num_nodes=self.num_nodes,
                num_shards=self.num_shards,
                shards=tuple(shards),
                token=token,
                table=self.table,
            )
            return self._last

    # -- rebalancing -------------------------------------------------------

    def apply_rebalance(
        self, moves: Sequence[Move], new_num_shards: int | None = None
    ) -> OwnerTable:
        """Validate the ``(node, src, dst)`` plan and install the next
        table (one version later); returns it.  No data moves — the
        source and destination shards' next views simply cover other
        nodes, and untouched shards keep their memoized views."""
        with self._lock:
            self.table = self.table.apply(moves, new_num_shards)
            return self.table


def shard_graph(
    graph: RDFGraph | Sequence[Triple], num_nodes: int, num_shards: int
) -> ShardedStore:
    """Partition a graph across *num_shards* shard workers."""
    store = ShardedStore(num_nodes=num_nodes, num_shards=num_shards)
    store.add_all(graph)
    return store
