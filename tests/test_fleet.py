"""Fleet membership as a state machine, with no I/O.

:class:`~repro.cluster.fleet.Fleet` is driven here by hand — no process,
no socket, no thread: snapshots come from a real
:class:`~repro.cluster.sharded_store.ShardedStore` (pure data), and the
actions the fleet answers with are carried out by :class:`Carrier`, a
stand-in router whose workers are their generation numbers.  The last
tests run a real router over the in-memory carrier.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedPlanExecutor, ShardUnavailable, shard_graph
from repro.cluster.fleet import (
    Fleet,
    RetireWorker,
    StartWorker,
    SyncWorker,
    Unavailable,
)
from repro.cluster.ownership import plan_resize
from tests.conformance import failing_carrier, prepare_text, shard_client
from tests.conftest import make_university_graph

NUM_NODES = 4

STAR_QUERY = (
    "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
    "?p rdf:type ub:FullProfessor . ?s rdf:type ub:Student }"
)


class Carrier:
    """Carries out a fleet's actions as a router does, checking each:
    a worker is started only for a shard without one, with a generation
    above every earlier one, and synced only while it is current."""

    def __init__(self, fleet: Fleet) -> None:
        self.fleet = fleet
        #: shard -> generation of the worker up
        self.up: dict[int, int] = {}
        #: (shard, generation) pairs that acknowledged a sync
        self.served: set[tuple[int, int]] = set()
        self.unavailable: list[int] = []

    def bring(self, shard: int, fail: str | None = None) -> None:
        """Bring *shard* to the fleet's snapshot; its first start or
        sync fails as *fail* says (``"start"``, ``"sync"`` — the worker
        is lost — or ``"refuse"``), and a failure that leaves the
        worker down or serving its old view ends the bring, as the
        router's caller fails then."""
        fleet = self.fleet
        while (action := fleet.bring(shard)) is not None:
            if isinstance(action, RetireWorker):
                self.carry_out([action])
            elif isinstance(action, StartWorker):
                assert shard not in self.up, "a second worker for one shard"
                assert action.generation > max(self.generations(shard), default=0)
                self.up[shard] = action.generation
                if fail == "start":
                    self.report(shard, action.generation, "lost")
                    return
            else:
                assert isinstance(action, SyncWorker)
                assert self.up[shard] == action.generation
                assert action.snapshot is fleet.snapshot
                if fail in ("sync", "refuse"):
                    kind, fail = ("lost" if fail == "sync" else "refused"), None
                    if self.report(shard, action.generation, kind) or kind == "refused":
                        return
                    continue
                fleet.synced(shard, action.generation, action.snapshot)
                self.served.add((shard, action.generation))

    def generations(self, shard: int) -> set[int]:
        return {g for s, g in self.served if s == shard} | (
            {self.up[shard]} if shard in self.up else set()
        )

    def report(self, shard: int, generation: int, kind: str) -> bool:
        """Report a loss (or a refused sync) and check the budget rule:
        ``Unavailable`` exactly when the worker is current and never
        served; nothing at all for a generation already replaced, or a
        serving worker's refusal.  Returns whether it was unavailable."""
        current = self.up.get(shard) == generation
        spent = current and (shard, generation) not in self.served
        event = self.fleet.lost if kind == "lost" else self.fleet.refused
        actions = event(shard, generation, f"{kind} in a test")
        unavailable = [a for a in actions if isinstance(a, Unavailable)]
        assert bool(unavailable) == spent, (kind, actions)
        if not current or (kind == "refused" and not spent):
            assert actions == ()
        self.carry_out(actions)
        return spent

    def carry_out(self, actions) -> None:
        for action in actions:
            if isinstance(action, Unavailable):
                self.unavailable.append(action.shard)
            else:
                assert isinstance(action, RetireWorker)
                assert self.up.pop(action.shard, None) is not None

    def settle(self, shards) -> None:
        for shard in shards:
            self.bring(shard)


@pytest.fixture()
def store():
    return shard_graph(make_university_graph(), NUM_NODES, 2)


def serving_fleet(store) -> tuple[Fleet, Carrier]:
    fleet = Fleet(store.num_shards)
    carrier = Carrier(fleet)
    carrier.settle(fleet.want(store.snapshot()))
    return fleet, carrier


def test_a_current_fleet_wants_nothing(store):
    fleet, carrier = serving_fleet(store)
    snapshot = store.snapshot()
    assert fleet.want(snapshot) == ()
    assert carrier.up == {0: 1, 1: 1}
    store.add(("<fresh-s>", "ub:worksFor", "<fresh-o>"))
    written = store.snapshot()
    assert list(fleet.want(written)) == [0, 1]
    carrier.settle([0, 1])
    assert fleet.want(written) == ()
    with pytest.raises(ValueError, match="3 shards"):
        fleet.want(shard_graph(make_university_graph(), NUM_NODES, 3).snapshot())


def test_a_migration_that_fails_part_way_rolls_back_with_a_climbing_epoch(store):
    fleet, carrier = serving_fleet(store)
    assert fleet.epoch == 0
    before = store.snapshot()
    moves = plan_resize(store.table, 3)
    store.apply_rebalance(moves, 3)
    plan = fleet.migrate(store.snapshot())
    assert plan == (2, 0, 1)
    assert (fleet.epoch, fleet.num_shards) == (1, 3)
    # a query routed before the resize wants its 2-shard snapshot: the
    # fleet stays at the new epoch and its levels re-route
    assert fleet.want(before) == ()
    # the new shard's start fails: its budget is spent before any
    # survivor moved
    carrier.bring(2, fail="start")
    assert carrier.unavailable == [2]
    assert 2 not in carrier.up
    # the rollback is the same migration with the inverse plan
    store.apply_rebalance(store.table.inverse(moves), 2)
    plan = fleet.migrate(store.snapshot())
    assert plan == (0, 1, 2)
    carrier.settle(plan)
    assert (fleet.epoch, fleet.num_shards) == (2, 2)
    assert fleet.table.owners == tuple(n % 2 for n in range(NUM_NODES))
    assert carrier.up == {0: 1, 1: 1}
    assert fleet.want(store.snapshot()) == ()
    with pytest.raises(ValueError, match="does not climb"):
        fleet.migrate(store.snapshot())


def test_a_spent_respawn_budget_is_unavailable(store):
    fleet, carrier = serving_fleet(store)
    # a serving worker lost: retired, and the next bring respawns it
    assert fleet.lost(0, 1, "died") == (RetireWorker(0, kill=True),)
    carrier.up.pop(0)
    assert fleet.bring(0) == StartWorker(0, 2)
    carrier.up[0] = 2
    # a second loss of the dead generation changes nothing
    assert fleet.lost(0, 1, "died again") == ()
    assert fleet.generation(0) == 2
    # the respawned worker's sync fails: the budget is spent
    assert fleet.lost(0, 2, "sync lost") == (
        RetireWorker(0, kill=True),
        Unavailable(0, "sync lost"),
    )
    assert fleet.failures == 2
    # the next bring starts afresh
    assert fleet.bring(0) == StartWorker(0, 3)


def test_a_stale_level_is_rerouted_to_the_new_owner(store):
    fleet, carrier = serving_fleet(store)
    stale = store.snapshot()
    node = store.nodes_of_shard(1)[0]
    store.apply_rebalance([(node, 1, 0)])
    carrier.settle(fleet.migrate(store.snapshot()))
    # a query routed before the migration wants the old snapshot: the
    # fleet stays at the new epoch, and the level it sent to shard 1
    # re-routes by the fleet's table to the node's new owner
    assert fleet.want(stale) == ()
    assert fleet.epoch == stale.table.version + 1
    assert stale.table.shard_of_node(node) == 1
    assert fleet.table.shard_of_node(node) == 0


EVENTS = ("want", "write", "lose", "lose_old", "migrate", "migrate_failed")


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_fleet_invariants_hold_over_any_event_sequence(data):
    """Random sequences of wants (some after a write), lost workers (of
    the current generation or an old one), migrations, migrations that
    fail part-way and roll back, and refused syncs.  After each event:
    epochs never repeat or go down, every node has one owner below the
    shard count, ``Unavailable`` comes exactly when a budget is spent
    (:meth:`Carrier.report`), and no shard is started a second worker
    while one is up (:meth:`Carrier.bring`) — so a worker of an old
    generation is never respawned twice."""
    store = shard_graph(make_university_graph(people=12, depts=3), NUM_NODES, 2)
    fleet = Fleet(2)
    carrier = Carrier(fleet)
    epochs = [fleet.epoch]
    writes = 0
    fail = st.sampled_from([None, None, "start", "sync", "refuse"])

    def bring_all(shards) -> None:
        for shard in shards:
            carrier.bring(shard, data.draw(fail))

    for event in data.draw(st.lists(st.sampled_from(EVENTS), max_size=20)):
        if event == "write":
            writes += 1
            store.add((f"<w{writes}>", "ub:worksFor", f"<d{writes}>"))
        if event in ("want", "write"):
            bring_all(fleet.want(store.snapshot()))
        elif event == "lose" and carrier.up:
            shard = data.draw(st.sampled_from(sorted(carrier.up)))
            carrier.report(shard, carrier.up[shard], "lost")
        elif event == "lose_old" and any(g > 1 for g in carrier.up.values()):
            shard = data.draw(
                st.sampled_from(sorted(s for s, g in carrier.up.items() if g > 1))
            )
            generation = carrier.up[shard]
            carrier.report(shard, generation - 1, "lost")
            assert carrier.up[shard] == fleet.generation(shard) == generation
        elif event in ("migrate", "migrate_failed"):
            old = store.num_shards
            target = data.draw(st.integers(1, NUM_NODES).filter(lambda n: n != old))
            moves = plan_resize(store.table, target)
            store.apply_rebalance(moves, target)
            plan = fleet.migrate(store.snapshot())
            assert fleet.epoch > max(epochs)
            if event == "migrate_failed":
                # part-way: some shards brought, then a failure
                carrier.settle(plan[: data.draw(st.integers(0, len(plan)))])
                store.apply_rebalance(store.table.inverse(moves), old)
                plan = fleet.migrate(store.snapshot())
                assert fleet.epoch > max(epochs) + 1
            bring_all(plan)
            assert not any(s >= fleet.num_shards for s in carrier.up)
        if fleet.snapshot is not None:
            assert fleet.epoch >= epochs[-1]
            epochs.append(fleet.epoch)
            owners = fleet.table.owners
            assert len(owners) == NUM_NODES
            assert all(0 <= owner < fleet.num_shards for owner in owners)
            assert fleet.num_shards == store.num_shards
        assert fleet.failures >= len(carrier.unavailable)


# -- the router carries the actions out ----------------------------------------


def test_the_router_fails_a_spent_budget_typed(university_graph):
    """Over the in-memory carrier: a worker whose respawn cannot start
    raises a typed ``ShardUnavailable``; once starting works again the
    shard serves."""
    store = shard_graph(university_graph, NUM_NODES, 2)
    with ShardedPlanExecutor(store) as executor:
        prepared = prepare_text(executor, STAR_QUERY)
        expected = executor.execute_prepared(prepared).rows
        router = executor.router
        shard_client(router, 0).close()
        with failing_carrier(router) as started:
            with pytest.raises(ShardUnavailable, match="shard 0"):
                executor.execute_prepared(prepared)
        assert len(started) == 1
        assert router.shard_failures == 2
        assert executor.execute_prepared(prepared).rows == expected


def test_a_failed_respawn_retires_the_worker_it_started(university_graph):
    """A respawned worker whose sync fails is closed by the respawn
    path itself, not left running where ``close()`` cannot reach it."""
    store = shard_graph(university_graph, NUM_NODES, 2)
    executor = ShardedPlanExecutor(store)
    try:
        prepared = prepare_text(executor, STAR_QUERY)
        executor.execute_prepared(prepared)
        router = executor.router
        shard_client(router, 0).close()
        with failing_carrier(router, at="sync") as started:
            with pytest.raises(ShardUnavailable, match="shard 0"):
                executor.execute_prepared(prepared)
        assert len(started) == 1
        assert started[0].worker is None
        assert shard_client(router, 0) is None
    finally:
        executor.close()
    assert started[0].worker is None
