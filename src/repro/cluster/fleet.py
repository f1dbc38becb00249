"""Fleet membership: which shard workers exist and what they hold, with no I/O.

:class:`Fleet` touches no socket, thread, process or lock.  Its state
is the snapshot the fleet was last brought to — which gives the owner
table, the epoch and the shard count — and, per shard, the
*generation* of its current worker, the snapshot that worker
acknowledged and the failures counted.  Events go in (:meth:`~Fleet.want`,
:meth:`~Fleet.migrate`, :meth:`~Fleet.synced`, :meth:`~Fleet.refused`,
:meth:`~Fleet.lost`) and actions come out (:meth:`~Fleet.bring` and the
loss events); a router carries the actions out, as the two carriers
drive :class:`~repro.cluster.client.ShardLink`.

Respawn is one rule, a generation compare in :meth:`Fleet.lost`: a loss
reported for a generation already replaced changes nothing, so however
many threads saw a worker die, it is respawned once.  A lost worker
that had served is retired and the next :meth:`Fleet.bring` starts its
successor; one that never served — its start or first sync failed —
spends the budget: it is retired and the shard reported
:class:`Unavailable`.

Events for one shard come one at a time (a router holds that shard's
lock); the fleet-wide events only replace :attr:`Fleet.snapshot` and
append per-shard records, so they race nothing a shard's events read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.ownership import OwnerTable
    from repro.cluster.sharded_store import ShardedSnapshot


class StartWorker(NamedTuple):
    """Start the shard's worker of *generation*."""

    shard: int
    generation: int


class SyncWorker(NamedTuple):
    """Sync the shard's worker of *generation* to *snapshot*."""

    shard: int
    generation: int
    snapshot: ShardedSnapshot


class RetireWorker(NamedTuple):
    """Close the shard's worker; *kill* for a failed one."""

    shard: int
    kill: bool


class Unavailable(NamedTuple):
    """The shard's respawn budget is spent: fail the caller typed."""

    shard: int
    reason: str


Action = StartWorker | SyncWorker | RetireWorker | Unavailable


class _Member:
    """One shard's record (see the module docstring)."""

    __slots__ = ("generation", "up", "at", "failures")

    def __init__(self) -> None:
        self.generation = 0
        self.up = False
        #: the snapshot the worker acknowledged; None until it served
        self.at: ShardedSnapshot | None = None
        self.failures = 0

    def down(self) -> None:
        self.up = False
        self.at = None


class Fleet:
    """The shard workers a router keeps, as a state machine; before the
    first snapshot it is sized for *num_shards*."""

    def __init__(self, num_shards: int) -> None:
        #: the snapshot the fleet was last brought to (None before the first)
        self.snapshot: ShardedSnapshot | None = None
        # grow-only, so a late event for a removed shard still finds it
        self._members = [_Member() for _ in range(num_shards)]

    @property
    def num_shards(self) -> int:
        snapshot = self.snapshot
        return len(self._members) if snapshot is None else snapshot.num_shards

    @property
    def table(self) -> OwnerTable:
        """The owner table stale levels are re-routed by."""
        if self.snapshot is None:
            raise ValueError("the fleet was never brought to a snapshot")
        return self.snapshot.table

    @property
    def epoch(self) -> int:
        return -1 if self.snapshot is None else self.snapshot.table.version

    @property
    def failures(self) -> int:
        """Worker failures counted, over every shard."""
        return sum(member.failures for member in self._members)

    def generation(self, shard: int) -> int:
        return self._members[shard].generation

    def want(self, snapshot: ShardedSnapshot) -> Sequence[int]:
        """A query or a write wants *snapshot*: the shards to bring.  With
        every worker current that is nothing, after one identity check
        per shard.  A snapshot of an older epoch was routed before a
        migration: the fleet stays, and the query's levels meet
        :class:`~repro.cluster.frames.StaleEpoch` and re-route."""
        if snapshot is not self.snapshot:
            if snapshot.table.version < self.epoch:
                return ()
            if snapshot.num_shards != self.num_shards:
                raise ValueError(
                    f"snapshot has {snapshot.num_shards} shards, "
                    f"the fleet has {self.num_shards}"
                )
            self.snapshot = snapshot
        members = self._members
        for shard in range(snapshot.num_shards):
            if members[shard].at is not snapshot:
                return [
                    k
                    for k in range(shard, snapshot.num_shards)
                    if members[k].at is not snapshot
                ]
        return ()

    def migrate(self, snapshot: ShardedSnapshot) -> tuple[int, ...]:
        """The store installed a plan's table: move to *snapshot* (the
        epoch must climb) and return every shard to :meth:`bring` — new
        shards first, so a failed start rolls back before a survivor
        moved, then the survivors, then the removed shards.  A rollback
        is this event with the inverse plan's snapshot."""
        if snapshot.table.version <= self.epoch:
            raise ValueError(
                f"a migration to epoch {snapshot.table.version} does not "
                f"climb from {self.epoch}"
            )
        old, new = self.num_shards, snapshot.num_shards
        while len(self._members) < new:
            self._members.append(_Member())
        self.snapshot = snapshot
        return (*range(old, new), *range(min(old, new)), *range(new, old))

    def stop(self) -> tuple[int, ...]:
        """The router closes: every shard with a worker up, to retire."""
        up = tuple(k for k, member in enumerate(self._members) if member.up)
        for shard in up:
            self._members[shard].down()
        return up

    def bring(self, shard: int) -> Action | None:
        """The next action bringing *shard* to :attr:`snapshot`, or None
        when it is there (or, removed, has no worker up)."""
        member = self._members[shard]
        if shard >= self.num_shards:
            if not member.up:
                return None
            member.down()
            return RetireWorker(shard, kill=False)
        if not member.up:
            member.generation += 1
            member.up = True
            return StartWorker(shard, member.generation)
        if self.snapshot is not None and member.at is not self.snapshot:
            return SyncWorker(shard, member.generation, self.snapshot)
        return None

    def synced(
        self, shard: int, generation: int, snapshot: ShardedSnapshot
    ) -> None:
        """The worker of *generation* acknowledged holding *snapshot*."""
        member = self._members[shard]
        if member.up and member.generation == generation:
            member.at = snapshot

    def refused(self, shard: int, generation: int, reason: str) -> tuple[Action, ...]:
        """The worker of *generation* refused a sync typed: a serving one
        keeps its view (the next :meth:`want` tries again); one that never
        served is lost."""
        if self._members[shard].at is not None:
            return ()
        return self.lost(shard, generation, reason)

    def lost(self, shard: int, generation: int, reason: str) -> tuple[Action, ...]:
        """The worker of *generation* is gone, or its start failed."""
        member = self._members[shard]
        if not member.up or member.generation != generation:
            return ()
        member.failures += 1
        served = member.at is not None
        member.down()
        if served:
            return (RetireWorker(shard, kill=True),)
        return (RetireWorker(shard, kill=True), Unavailable(shard, reason))
