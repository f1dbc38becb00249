"""Shard ownership — the versioned node→shard table.

The §5.1 layout has exactly one unit of placement: the logical *node* a
triple's subject, property or object value hashes to.  A shard is
bookkeeping on top — the set of nodes one worker serves — so ownership
is an immutable, versioned :class:`OwnerTable` with one entry per node
(``owners[node]`` is the shard serving it).  Moving data between shards
is "reassign some nodes and ship those nodes' file maps"; the placement
itself never changes, so answers are identical at every table version.

Rebalance plans are tuples of ``(node, src, dst)`` moves.  They are
data, not actions: :func:`plan_resize` and :func:`plan_skew` produce
them, :meth:`OwnerTable.apply` validates and applies them, and the
router/store layers turn them into migration traffic.  Every move names
a real node, so every move ships data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

#: One node reassignment: ``(node, src_shard, dst_shard)``.
Move = tuple[int, int, int]


@dataclass(frozen=True)
class OwnerTable:
    """Immutable node→shard ownership map at one version.

    ``owners[n]`` is the shard owning node ``n``; ``version`` is the
    topology epoch — every applied plan bumps it by exactly one, and
    the RPC protocol rejects frames stamped with another epoch.
    """

    num_shards: int
    owners: tuple[int, ...]
    version: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not self.owners:
            raise ValueError("an owner table needs at least one node")
        bad = [s for s in self.owners if not 0 <= s < self.num_shards]
        if bad:
            raise ValueError(
                f"node owners {sorted(set(bad))} outside "
                f"[0, {self.num_shards})"
            )

    def shard_of_node(self, node: int) -> int:
        return self.owners[node]

    def nodes_of_shard(self, shard: int) -> tuple[int, ...]:
        """The nodes the table assigns to *shard*, ascending."""
        return tuple(n for n, owner in enumerate(self.owners) if owner == shard)

    def counts(self) -> list[int]:
        """Nodes owned per shard (length ``num_shards``)."""
        out = [0] * self.num_shards
        for owner in self.owners:
            out[owner] += 1
        return out

    # -- transitions ------------------------------------------------------

    def apply(self, moves: Sequence[Move], num_shards: int | None = None) -> "OwnerTable":
        """The table after *moves*, one version later.

        Every move's source must match current ownership — applying a
        plan computed against another version is a programming error
        and raises rather than silently corrupting the map.  Passing
        *num_shards* resizes the shard count in the same step; a shrink
        plan that leaves a node on a removed shard is rejected.
        """
        owners = list(self.owners)
        seen: set[int] = set()
        for node, src, dst in moves:
            if not 0 <= node < len(owners):
                raise ValueError(f"node {node} outside [0, {len(owners)})")
            if node in seen:
                raise ValueError(f"node {node} moved twice in one plan")
            seen.add(node)
            if owners[node] != src:
                raise ValueError(
                    f"node {node} is owned by shard {owners[node]}, "
                    f"not {src}: stale plan"
                )
            owners[node] = dst
        return OwnerTable(
            num_shards=self.num_shards if num_shards is None else num_shards,
            owners=tuple(owners),
            version=self.version + 1,
        )

    def inverse(self, moves: Sequence[Move]) -> tuple[Move, ...]:
        """The plan undoing *moves* (for rollback after a failed migration)."""
        return tuple((node, dst, src) for node, src, dst in moves)


def initial_table(num_shards: int, num_nodes: int) -> OwnerTable:
    """The version-0 table: node ``n`` belongs to shard ``n % num_shards``."""
    return OwnerTable(
        num_shards=num_shards,
        owners=tuple(n % num_shards for n in range(num_nodes)),
    )


def plan_resize(table: OwnerTable, new_num_shards: int) -> tuple[Move, ...]:
    """A minimal, deterministic plan resizing the topology.

    Donors are the nodes that *must* move: everything owned by a
    removed shard, plus the highest-numbered nodes shed by shards above
    their new target share.  Each donor goes to the lowest-id shard
    still under target, so growing by one moves ~``nodes/new_N`` nodes
    and shrinking by one moves exactly the departing shard's nodes —
    the minimal-movement bound the property tests assert.  Targets
    differ by at most one, so every shard of the result owns a node.
    """
    if new_num_shards < 1:
        raise ValueError("new_num_shards must be >= 1")
    nodes = len(table.owners)
    if new_num_shards > nodes:
        raise ValueError(
            f"cannot spread {nodes} nodes over {new_num_shards} shards; "
            "use at most one shard per node"
        )
    base, extra = divmod(nodes, new_num_shards)
    target = [base + (1 if s < extra else 0) for s in range(new_num_shards)]
    counts = [0] * new_num_shards
    for owner in table.owners:
        if owner < new_num_shards:
            counts[owner] += 1
    # Removed shards donate everything they own.
    donors = [
        (node, owner)
        for node, owner in enumerate(table.owners)
        if owner >= new_num_shards
    ]
    # Overloaded surviving shards shed their highest-numbered nodes.
    excess = {
        s: counts[s] - target[s]
        for s in range(new_num_shards)
        if counts[s] > target[s]
    }
    for node in range(nodes - 1, -1, -1):
        owner = table.owners[node]
        if excess.get(owner, 0) > 0:
            donors.append((node, owner))
            excess[owner] -= 1
    donors.sort()
    moves: list[Move] = []
    dst = 0
    for node, src in donors:
        while counts[dst] >= target[dst]:
            dst += 1
        counts[dst] += 1
        moves.append((node, src, dst))
    return tuple(moves)


def plan_skew(
    table: OwnerTable, load: Mapping[int, float], max_moves: int = 1
) -> tuple[Move, ...]:
    """A small plan shifting nodes from the busiest shard to the idlest.

    *load* maps shard → observed load (tasks run, queue depth — any
    monotone signal).  The plan moves up to *max_moves* of the busiest
    shard's highest-numbered nodes to the least-loaded shard, provided
    the imbalance is real (busiest strictly above idlest) and the donor
    keeps at least one node.  Deterministic: ties break on shard id.
    """
    if table.num_shards < 2:
        return ()
    scores = [float(load.get(s, 0.0)) for s in range(table.num_shards)]
    busiest = max(range(table.num_shards), key=lambda s: (scores[s], -s))
    idlest = min(range(table.num_shards), key=lambda s: (scores[s], s))
    if scores[busiest] <= scores[idlest]:
        return ()
    owned = table.nodes_of_shard(busiest)
    keep = max(1, len(owned) - max(0, max_moves))
    return tuple((node, busiest, idlest) for node in owned[keep:])


__all__ = [
    "Move",
    "OwnerTable",
    "initial_table",
    "plan_resize",
    "plan_skew",
]
