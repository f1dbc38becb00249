"""Elastic shard topology: owner tables, live rebalance, fault injection.

Covers the :mod:`repro.cluster.ownership` layer (deterministic
assignment, plan validation, minimal-movement resize plans, skew
shedding, snapshot delta merging — plus hypothesis property tests where
hypothesis is installed), and live rebalance on both transports, which
run one worker state and one migration: grow/shrink/deskew with answers
invariant at every epoch, a fresh fleet's suggestion shedding the
stored-triples skew, duplicate ``Sync`` deliveries acknowledged
idempotently, an execute frame stamped with a stale epoch rejected
typed worker-side — also right after a survivor's delta sync — and
transparently re-routed driver-side — through the in-memory carrier (no process needed) and
over the socket, also at the bare ``ServiceConfig(shards=2)`` users
get.  The socket alone shows the rest: a migration ships only the moved
nodes' data, a destination worker that cannot spawn mid-migration
rolls the topology back typed, and a killed survivor recovers through
the respawn-retry path.

Test ids predate the node→shard table (the unit of ownership used to be
a ring *slot*); they are kept so the suite's history stays comparable.
"""

from __future__ import annotations

import math
import pickle

import pytest

from repro.cluster import ShardedPlanExecutor, shard_graph
from repro.cluster.client import LocalShardClient, ShardWorkerClient
from repro.cluster.frames import (
    ExecuteLevel,
    OkReply,
    Request,
    ShardUnavailable,
    StaleEpoch,
    Stats,
    Sync,
    WorkerStateError,
    sync_frame,
)
from repro.cluster.ownership import (
    OwnerTable,
    initial_table,
    plan_resize,
    plan_skew,
)
from repro.cluster.worker import _WorkerState
from repro.core.algorithm import cliquesquare
from repro.core.decomposition import MSC
from repro.cost.cardinality import CatalogStatistics
from repro.partitioning.triple_partitioner import StoreSnapshot, partition_graph
from repro.physical.executor import PlanExecutor
from repro.rdf.dictionary import Dictionary
from repro.service import QueryService, ServiceConfig
from repro.sparql.parser import parse_query
from tests.conformance import failing_carrier, needs_rpc, shard_client
from tests.conftest import make_university_graph

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment-dependent
    HAVE_HYPOTHESIS = False

NUM_NODES = 8

STAR_QUERY = (
    "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
    "?p rdf:type ub:FullProfessor . ?s rdf:type ub:Student }"
)

CHAIN_QUERY = (
    "SELECT ?p WHERE { ?p ub:worksFor <dept0> . "
    "?p rdf:type ub:FullProfessor }"
)


@pytest.fixture(scope="module")
def university():
    return make_university_graph()


def sharded_service(graph, **overrides) -> QueryService:
    config = ServiceConfig(
        shards=overrides.pop("shards", 4),
        num_nodes=overrides.pop("num_nodes", NUM_NODES),
        result_cache_size=0,
        **overrides,
    )
    return QueryService(graph, config)


# -- OwnerTable unit tests -----------------------------------------------------


class TestSlotTable:
    def test_initial_table_reproduces_modulus_layout(self):
        for shards in (1, 2, 3, 4):
            table = initial_table(shards, num_nodes=7)
            assert table.version == 0
            assert len(table.owners) == 7
            for node in range(7):
                assert table.shard_of_node(node) == node % shards

    def test_assignment_is_total_and_partitions_nodes(self):
        table = initial_table(3, num_nodes=10)
        owners = [table.shard_of_node(n) for n in range(10)]
        assert all(0 <= s < 3 for s in owners)
        by_shard = [table.nodes_of_shard(s) for s in range(3)]
        assert sorted(n for nodes in by_shard for n in nodes) == list(range(10))

    def test_apply_moves_ownership_and_bumps_version_once(self):
        table = initial_table(2, num_nodes=4)
        moved = table.apply([(0, 0, 1)])
        assert moved.version == table.version + 1
        assert moved.shard_of_node(0) == 1
        assert moved.owners[1:] == table.owners[1:]
        # The original is immutable.
        assert table.shard_of_node(0) == 0

    def test_apply_rejects_stale_and_malformed_plans(self):
        table = initial_table(2, num_nodes=4)
        with pytest.raises(ValueError, match="stale plan"):
            table.apply([(0, 1, 0)])  # node 0 is owned by shard 0, not 1
        with pytest.raises(ValueError, match="moved twice"):
            table.apply([(0, 0, 1), (0, 1, 0)])
        with pytest.raises(ValueError, match="outside"):
            table.apply([(99, 0, 1)])
        with pytest.raises(ValueError, match="outside"):
            table.apply([(0, 0, 7)])  # destination shard does not exist
        with pytest.raises(ValueError, match="outside"):
            table.apply([], 1)  # a shrink must drain the removed shard

    def test_inverse_restores_ownership(self):
        table = initial_table(3, num_nodes=6)
        moves = plan_resize(table, 2)
        shrunk = table.apply(moves, 2)
        restored = shrunk.apply(shrunk.inverse(moves), 3)
        assert restored.owners == table.owners
        assert restored.version == table.version + 2

    def test_plan_resize_is_deterministic_balanced_and_minimal(self):
        table = initial_table(4, num_nodes=7)  # the default node count
        grow = plan_resize(table, 5)
        assert grow == plan_resize(table, 5)
        grown = table.apply(grow, 5)
        counts = grown.counts()
        assert min(counts) >= 1 and max(counts) - min(counts) <= 1
        # Growing by one moves about nodes/new_N nodes, never more than
        # the new shard's fair share.
        assert 0 < len(grow) <= math.ceil(len(table.owners) / 5)
        assert all(dst == 4 for _node, _src, dst in grow)
        shrink = plan_resize(grown, 3)
        shrunk = grown.apply(shrink, 3)
        assert max(shrunk.counts()) - min(shrunk.counts()) <= 1
        # Shrinking moves exactly what the departing shards owned.
        departing = sum(counts[3:])
        assert len(shrink) == departing

    def test_plan_resize_validates_bounds(self):
        table = initial_table(2, num_nodes=4)
        with pytest.raises(ValueError, match=">= 1"):
            plan_resize(table, 0)
        with pytest.raises(ValueError, match="at most one shard per node"):
            plan_resize(table, 5)

    def test_plan_skew_moves_busiest_to_idlest(self):
        table = initial_table(3, num_nodes=6)
        moves = plan_skew(table, {0: 100.0, 1: 1.0, 2: 50.0}, max_moves=2)
        assert moves
        assert all(src == 0 and dst == 1 for _node, src, dst in moves)
        # The busiest shard owns two nodes and must keep one.
        assert len(moves) == 1
        rebalanced = table.apply(moves)
        assert rebalanced.counts()[1] == 3

    def test_plan_skew_noop_cases(self):
        table = initial_table(3, num_nodes=6)
        assert plan_skew(table, {}) == ()  # no signal, no imbalance
        assert plan_skew(table, {0: 5.0, 1: 5.0, 2: 5.0}) == ()
        assert plan_skew(initial_table(1, 4), {0: 9.0}) == ()

    def test_plan_skew_donor_keeps_a_slot(self):
        """The donor-keeps-one rule: the busiest shard keeps one *node*."""
        table = initial_table(2, num_nodes=4)
        moves = plan_skew(table, {0: 10.0, 1: 0.0}, max_moves=99)
        assert len(moves) == len(table.nodes_of_shard(0)) - 1
        moved = table.apply(moves)
        assert moved.counts()[0] == 1

    def test_merge_slots_applies_adds_and_drops(self, university):
        """A delta :class:`Sync`'s adds and drops, as a worker applies
        them to the snapshot it holds."""
        snapshot = partition_graph(university, 4).snapshot()
        adds = {2: dict(snapshot.files[1])}
        delta = Sync(base=snapshot.token, token=(99, 1), files=adds, drops=(0,))

        def merged():
            worker = _WorkerState(0, 4, wire_format=None)
            worker.handle(sync_frame(None, snapshot, 0))
            worker.handle(delta)
            return worker.snapshot

        once = merged()
        assert once.token == (99, 1)
        assert once.files[0] == {}
        assert once.files[2] == snapshot.files[1]
        assert once.files[3] == snapshot.files[3]
        # Deterministic: equal inputs produce equal snapshots.
        assert merged().files == once.files


# -- hypothesis property tests (auto-skip without hypothesis) ------------------


if HAVE_HYPOTHESIS:

    @st.composite
    def owner_tables(draw):
        num_shards = draw(st.integers(min_value=1, max_value=8))
        width = draw(st.integers(min_value=num_shards, max_value=48))
        owners = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_shards - 1),
                min_size=width,
                max_size=width,
            )
        )
        version = draw(st.integers(min_value=0, max_value=5))
        return OwnerTable(
            num_shards=num_shards, owners=tuple(owners), version=version
        )

    @settings(max_examples=60, deadline=None)
    @given(table=owner_tables())
    def test_assignment_deterministic_and_total(table):
        for node, owner in enumerate(table.owners):
            assert table.shard_of_node(node) == owner
            assert node in table.nodes_of_shard(owner)
        assert sum(table.counts()) == len(table.owners)

    @settings(max_examples=60, deadline=None)
    @given(
        table=owner_tables(),
        new_shards=st.integers(min_value=1, max_value=8),
    )
    def test_plan_resize_minimal_movement(table, new_shards):
        nodes = len(table.owners)
        if new_shards > nodes:
            with pytest.raises(ValueError):
                plan_resize(table, new_shards)
            return
        moves = plan_resize(table, new_shards)
        resized = table.apply(moves, new_shards)
        counts = resized.counts()
        assert sum(counts) == nodes
        # Balanced, and so every shard of the resize owns a node.
        assert min(counts) >= 1 and max(counts) - min(counts) <= 1
        # Minimality: every move was forced — a node on a removed shard,
        # or the excess above a surviving shard's fair-share target.
        base, extra = divmod(nodes, new_shards)
        target = [base + (1 if s < extra else 0) for s in range(new_shards)]
        old = table.counts()
        forced = sum(old[s] for s in range(new_shards, table.num_shards))
        forced += sum(
            max(0, old[s] - target[s]) for s in range(min(new_shards, table.num_shards))
        )
        assert len(moves) == forced

    @settings(max_examples=60, deadline=None)
    @given(
        num_shards=st.integers(min_value=2, max_value=8),
        width=st.integers(min_value=9, max_value=64),
    )
    def test_single_step_resize_moves_fair_share(num_shards, width):
        """From a balanced table, growing or shrinking by one shard
        moves about ``ceil(nodes / N)`` nodes — the "-ish" bound."""
        table = initial_table(num_shards, num_nodes=width)
        grow = plan_resize(table, num_shards + 1)
        assert len(grow) <= math.ceil(width / (num_shards + 1))
        shrink = plan_resize(table, num_shards - 1)
        assert len(shrink) <= math.ceil(width / num_shards)

    @settings(max_examples=60, deadline=None)
    @given(
        table=owner_tables(),
        targets=st.lists(
            st.integers(min_value=1, max_value=8), min_size=2, max_size=4
        ),
    )
    def test_plans_compose(table, targets):
        """A chain of resize plans applies cleanly step by step (each
        plan is computed against the table the previous one produced),
        and inverting a step undoes exactly that step."""
        current = table
        for target in targets:
            if target > len(current.owners):
                continue
            moves = plan_resize(current, target)
            stepped = current.apply(moves, target)
            assert stepped.version == current.version + 1
            undone = stepped.apply(stepped.inverse(moves), current.num_shards)
            assert undone.owners == current.owners
            current = stepped


# -- both transports ------------------------------------------------------------


class _RebalanceOnEitherTransport:
    """Rebalance and worker-state tests that hold on either transport.

    A shard is one worker state whichever client carries its frames, so
    the same tests run through the in-memory carrier
    (:class:`TestInprocRebalance`, which needs no process) and over the
    socket (:class:`TestRpcRebalance`): a concrete subclass names the
    transport.
    """

    transport = ""

    def service(self, graph, **overrides) -> QueryService:
        return sharded_service(graph, shard_transport=self.transport, **overrides)

    def client(self):
        """A started client of one fresh worker (shard 0)."""
        cls = ShardWorkerClient if self.transport == "rpc" else LocalShardClient
        client = cls(shard=0, num_nodes=NUM_NODES)
        client.start()
        return client

    def test_grow_and_shrink_answers_invariant(self, university):
        service = self.service(university)
        try:
            expected = service.submit(STAR_QUERY).rows
            chain = service.submit(CHAIN_QUERY).rows
            report = service.rebalance(target_shards=5)
            assert (report.old_shards, report.new_shards) == (4, 5)
            assert report.new_epoch == report.old_epoch + 1
            assert report.moves
            assert report.moved_nodes == tuple(
                sorted(node for node, _src, _dst in report.moves)
            )
            assert len(report.bytes_shipped) == 5
            assert service.submit(STAR_QUERY).rows == expected
            assert service.submit(CHAIN_QUERY).rows == chain
            report = service.rebalance(target_shards=3)
            assert (report.old_shards, report.new_shards) == (5, 3)
            assert service.submit(STAR_QUERY).rows == expected
            assert service.submit(CHAIN_QUERY).rows == chain
            # The fleet really shrank: three live workers, no more.
            router = service.executor.router
            assert router.num_shards == 3
            assert all(shard_client(router, shard) is None for shard in (3, 4))
            stats = service.snapshot_stats()
            assert stats.rebalances == 2
            assert "rebalances: 2" in stats.format()
        finally:
            service.close()

    def test_suggest_rebalance_falls_back_to_stored_triples(self, university):
        """A fresh fleet's gauges have run no task — no signal — so the
        suggestion sheds the stored-triples skew: max → min.  Once a
        query ran, every worker's gauge reads its tasks, live."""
        service = self.service(university, shards=3)
        try:
            gauges = service.snapshot_stats().shard_workers
            assert [g.shard for g in gauges] == [0, 1, 2]
            assert not any(g.stale or g.tasks_run for g in gauges)
            per_shard = service.store.triples_per_shard()
            assert len(set(per_shard)) > 1, "the graph must be skewed"
            suggestion = service.suggest_rebalance()
            assert suggestion
            (_node, src, dst), *_ = suggestion
            assert per_shard[src] == max(per_shard)
            assert per_shard[dst] == min(per_shard)
            expected = service.submit(STAR_QUERY).rows
            gauges = service.snapshot_stats().shard_workers
            assert [g.shard for g in gauges] == [0, 1, 2]
            assert all(not g.stale and g.tasks_run > 0 for g in gauges)
            service.rebalance(moves=suggestion)
            assert service.submit(STAR_QUERY).rows == expected
        finally:
            service.close()

    def test_duplicate_table_update_is_idempotent(self, university):
        """An epoch-only :class:`Sync` (the view is unchanged)."""
        client = self.client()
        try:
            snapshot = partition_graph(university, NUM_NODES).snapshot()
            token = snapshot.token
            client.request(sync_frame(None, snapshot, 1))

            def flip(epoch):
                return client.request(Sync(token, token, epoch=epoch))

            def at(epoch):
                return OkReply((token, epoch))

            assert flip(3) == at(3)
            # Duplicate delivery (crash-retry): acknowledged, no effect.
            assert flip(3) == at(3)
            # Stale update: monotonicity wins, the worker stays at 3.
            assert flip(2) == at(3)
            # An execute frame stamped with the installed epoch passes
            # the epoch gate and runs (here: no tasks, no results).
            level = ExecuteLevel(level=0, phase="map", tasks=(), epoch=3)
            assert client.request(level).results == []
        finally:
            client.close()

    def test_duplicate_prime_slots_is_idempotent(self, university):
        client = self.client()
        try:
            snapshot = partition_graph(university, NUM_NODES).snapshot()
            client.request(sync_frame(None, snapshot, 0))
            base = client.request(Stats())
            delta = Sync(
                base=snapshot.token, token=(snapshot.token[0], 999), drops=(0,)
            )
            assert client.request(delta).value[0] == delta.token
            after = client.request(Stats())
            assert after.snapshot_token == delta.token
            assert after.primes == base.primes + 1
            # Duplicate delivery: same token, acknowledged without
            # re-merging or re-priming.
            assert client.request(delta).value[0] == delta.token
            assert client.request(Stats()).primes == base.primes + 1
        finally:
            client.close()

    def test_prime_slots_without_snapshot_is_typed(self):
        client = self.client()
        try:
            with pytest.raises(WorkerStateError, match="no resident snapshot"):
                client.request(Sync(base=(1, 0), token=(1, 1)))
        finally:
            client.close()

    def test_stale_epoch_rejected_typed(self, university):
        client = self.client()
        try:
            snapshot = partition_graph(university, NUM_NODES).snapshot()
            client.request(sync_frame(None, snapshot, 2))
            with pytest.raises(StaleEpoch) as info:
                client.request(
                    ExecuteLevel(level=0, phase="map", tasks=(), epoch=0)
                )
            assert info.value.shard == 0
            assert info.value.frame_epoch == 0
            assert info.value.worker_epoch == 2
            # The worker survives the rejection and still serves.
            assert client.request(Stats()).snapshot_token == snapshot.token
        finally:
            client.close()

    def test_level_stamped_before_a_delta_sync_is_stale(self, university):
        """A survivor's delta sync moves its data and its epoch in one
        frame: a level routed under the old table that reaches it
        afterwards is refused typed, never answered with an empty scan
        of the node it dropped."""
        store = shard_graph(university, NUM_NODES, 2)
        before = store.snapshot()
        plan = cliquesquare(parse_query(CHAIN_QUERY), MSC).plans[0]
        with PlanExecutor(store) as executor:
            tasks = executor.prepare(plan).program(NUM_NODES).levels[0].jobs[0].maps
        client = self.client()
        try:
            full = sync_frame(None, before.shards[0], 0)
            held = (*client.request(full).value, len(store.dictionary))

            def level(task, epoch):
                return ExecuteLevel(level=0, phase="map", tasks=(task,), epoch=epoch)

            def scanned(task) -> bool:
                [(emits, direct, _metrics)] = client.request(level(task, 0)).results
                return bool(emits) or len(direct) > 0

            # A node of shard 0 whose scan finds rows at epoch 0.
            node, task = next(
                (t.node, t.spec)
                for t in tasks
                if store.shard_of_node(t.node) == 0 and scanned(t.spec)
            )
            store.apply_rebalance([(node, 0, 1)])
            after = store.snapshot()
            delta = sync_frame(held, after.shards[0], 1)
            assert delta.drops == (node,) and not delta.files
            assert client.request(delta) == OkReply((after.shards[0].token, 1))
            with pytest.raises(StaleEpoch) as info:
                client.request(level(task, 0))
            assert (info.value.frame_epoch, info.value.worker_epoch) == (0, 1)
        finally:
            client.close()

    def test_driver_reroutes_query_across_live_rebalance(self, university):
        """A query routed against epoch v whose levels land after the
        table flipped to v+1 is answered correctly: the worker rejects
        the stale frame typed and the driver re-routes the same tasks
        under the current table (on the pickle wire; the columnar one
        is the twin below)."""
        reroute_across_live_rebalance(university, self.transport, "pickle")

    def test_driver_reroutes_columnar_query_across_live_rebalance(
        self, university
    ):
        """The same on the columnar wire: a migration re-seeds no codec
        (both ends number terms as the store does), so a level frame
        may be in flight around it.  (In process no wire applies: the
        twin reruns the carrier.)"""
        reroute_across_live_rebalance(university, self.transport, "columnar")


class TestInprocRebalance(_RebalanceOnEitherTransport):
    transport = "inproc"

    def test_explicit_skew_moves(self, university):
        service = sharded_service(university, shards=2)
        try:
            expected = service.submit(STAR_QUERY).rows
            store = service.executor.store
            moves = plan_skew(store.table, {0: 10.0, 1: 0.0})
            assert moves
            report = service.rebalance(moves=moves)
            assert report.moves == moves
            assert report.new_shards == 2
            assert service.submit(STAR_QUERY).rows == expected
        finally:
            service.close()

    def test_noop_rebalance_keeps_epoch(self, university):
        service = sharded_service(university)
        try:
            report = service.rebalance(target_shards=4)
            assert report.moves == ()
            assert report.new_epoch == report.old_epoch
            assert service.snapshot_stats().rebalances == 1
        finally:
            service.close()

    def test_catalog_invariant_across_rebalance(self):
        """A sharded service's catalog is the graph's, whatever the
        topology: at construction, after a write, after a grow and a
        shrink."""
        service = sharded_service(make_university_graph())
        try:
            def graph_catalog():
                return CatalogStatistics.from_graph(service.graph)

            assert service.catalog == graph_catalog()
            service.add_triples([("<newprof>", "ub:worksFor", "<dept0>")])
            assert service.catalog == graph_catalog()
            service.rebalance(target_shards=6)
            assert service.catalog == graph_catalog()
            service.rebalance(target_shards=2)
            assert service.catalog == graph_catalog()
        finally:
            service.close()

    def test_rebalance_requires_sharded_deployment(self, university):
        service = QueryService(university, ServiceConfig(num_nodes=4))
        try:
            with pytest.raises(ValueError, match="sharded deployment"):
                service.rebalance(target_shards=2)
            with pytest.raises(ValueError, match="sharded deployment"):
                service.suggest_rebalance()
        finally:
            service.close()

    def test_rebalance_needs_a_plan_or_target(self, university):
        service = sharded_service(university)
        try:
            with pytest.raises(ValueError, match="target_shards"):
                service.rebalance()
        finally:
            service.close()

    def test_mutation_after_rebalance(self, university):
        service = sharded_service(university, shards=2)
        try:
            before = service.submit(CHAIN_QUERY).rows
            service.rebalance(target_shards=3)
            added = service.add_triples(
                [
                    ("<newprof>", "ub:worksFor", "<dept0>"),
                    ("<newprof>", "rdf:type", "ub:FullProfessor"),
                ]
            )
            assert added == 2
            rows = service.submit(CHAIN_QUERY).rows
            assert rows == before | {("<newprof>",)}
        finally:
            service.close()


# -- the configuration users get ------------------------------------------------


@pytest.mark.parametrize(
    "transport", ["inproc", pytest.param("rpc", marks=needs_rpc)]
)
class TestDefaultConfigRebalance:
    """Elasticity on a bare ``ServiceConfig(shards=2)``: nothing pinned,
    so these run the 7-node default every user starts from."""

    @staticmethod
    def service(graph, transport) -> QueryService:
        return QueryService(
            graph, ServiceConfig(shards=2, shard_transport=transport)
        )

    def test_grow_and_shrink_move_nodes_that_hold_data(
        self, university, transport
    ):
        service = self.service(university, transport)
        try:
            store = service.store
            expected = service.submit(STAR_QUERY).rows
            chain = service.submit(CHAIN_QUERY).rows
            owners = store.node_shards
            per_node = [
                sum(len(ts) for ts in files.values()) for files in store.files
            ]
            report = service.rebalance(target_shards=3)
            assert report.moves
            assert all(per_node[node] > 0 for node in report.moved_nodes)
            assert store.node_shards != owners
            assert set(store.node_shards) == {0, 1, 2}
            assert all(count > 0 for count in store.triples_per_shard())
            if transport == "rpc":

                def prime_bytes(dictionary):
                    empty = StoreSnapshot(
                        num_nodes=store.num_nodes,
                        replicas=store.replicas,
                        files=tuple({} for _ in range(store.num_nodes)),
                        token=store.snapshot().shards[2].token,
                        dictionary=dictionary,
                    )
                    prime = sync_frame(None, empty, 1)
                    return len(pickle.dumps(Request(0, prime)))

                bound = 10 * prime_bytes(Dictionary())
                # An empty view still carries the store's dictionary, as
                # every prime does, and stays below the bound: what
                # crosses it is data.
                assert prime_bytes(store.dictionary) < bound
                assert report.bytes_shipped[2] > bound
            assert service.submit(STAR_QUERY).rows == expected
            assert service.submit(CHAIN_QUERY).rows == chain
            report = service.rebalance(target_shards=2)
            assert (report.old_shards, report.new_shards) == (3, 2)
            assert set(store.node_shards) == {0, 1}
            assert service.submit(STAR_QUERY).rows == expected
            assert service.submit(CHAIN_QUERY).rows == chain
        finally:
            service.close()

    def test_suggestion_under_skew_names_a_node_with_data(
        self, university, transport
    ):
        service = self.service(university, transport)
        try:
            store = service.store
            expected = service.submit(STAR_QUERY).rows
            before = store.triples_per_shard()
            suggestion = service.executor.suggest_rebalance(
                load={0: 90.0, 1: 10.0}
            )
            ((node, src, dst),) = suggestion
            assert (src, dst) == (0, 1)
            assert store.shard_of_node(node) == 0
            assert sum(len(ts) for ts in store.files[node].values()) > 0
            # The service's own signal (worker gauges, else stored
            # triples) can only ever name real nodes too.
            for node, src, _dst in service.suggest_rebalance():
                assert store.shard_of_node(node) == src
            service.rebalance(moves=suggestion)
            assert store.triples_per_shard() != before
            assert service.submit(STAR_QUERY).rows == expected
        finally:
            service.close()


# -- rpc rebalance and fault injection -----------------------------------------


@needs_rpc
class TestRpcRebalance(_RebalanceOnEitherTransport):
    """The shared tests over the socket, plus what only a socket and a
    server process can show."""

    transport = "rpc"

    def test_migration_ships_only_moved_slots(self, university):
        service = sharded_service(university, shard_transport="rpc")
        try:
            expected = service.submit(STAR_QUERY).rows
            report = service.rebalance(target_shards=5)
            assert report.bytes_shipped is not None
            shipped = sum(report.bytes_shipped)
            assert shipped > 0
            # The elasticity claim: a migration ships the moved nodes'
            # file maps, not the cluster's data — strictly less than the
            # bytes a naive full re-prime of the new topology would put
            # on the wire.
            snapshot = service.executor.store.snapshot()
            full_reprime = sum(
                len(pickle.dumps(Request(0, sync_frame(None, view, 0))))
                for view in snapshot.shards
            )
            assert shipped < full_reprime
            assert service.submit(STAR_QUERY).rows == expected
        finally:
            service.close()

    def test_destination_spawn_failure_rolls_back(self, university):
        service = sharded_service(university, shard_transport="rpc", shards=2)
        try:
            expected = service.submit(STAR_QUERY).rows
            router = service.executor.router
            store = service.executor.store
            version_before = store.table.version
            with failing_carrier(router):
                with pytest.raises(ShardUnavailable, match="migration"):
                    service.rebalance(target_shards=3)
            # Clean rollback: the old topology serves, ownership maps
            # restored (the epoch keeps climbing — versions never
            # reuse), and answers are unchanged.
            assert store.num_shards == 2
            assert router.num_shards == 2
            assert store.table.version == version_before + 2
            assert service.submit(STAR_QUERY).rows == expected
            assert service.snapshot_stats().shard_failures >= 1
            # The fleet is not poisoned: a later rebalance succeeds.
            report = service.rebalance(target_shards=3)
            assert report.new_shards == 3
            assert service.submit(STAR_QUERY).rows == expected
        finally:
            service.close()

    def test_killed_survivor_recovers_mid_migration(self, university):
        """A survivor whose worker died before its delta sync is
        respawned and synced afresh — the migration completes with
        correct answers instead of hanging or corrupting state."""
        service = sharded_service(university, shard_transport="rpc", shards=2)
        try:
            expected = service.submit(STAR_QUERY).rows
            router = service.executor.router
            victim = shard_client(router, 0)
            victim.process.kill()
            victim.process.join(timeout=10)
            report = service.rebalance(target_shards=1)
            assert report.new_shards == 1
            # The respawned survivor's full sync is migration traffic.
            assert report.bytes_shipped[0] > 0
            assert service.submit(STAR_QUERY).rows == expected
            assert service.snapshot_stats().shard_failures == 1
        finally:
            service.close()


def reroute_across_live_rebalance(university, transport: str, wire: str) -> None:
    store = shard_graph(university, NUM_NODES, 2)
    executor = ShardedPlanExecutor(store, transport=transport, wire_format=wire)
    try:
        plan = cliquesquare(parse_query(STAR_QUERY), MSC).plans[0]
        prepared = executor.prepare(plan)
        executor.prime()
        expected = executor.execute_prepared(prepared).rows
        router = executor.router
        assert router.transport == transport
        original = router._level_call
        fired = []
        stale = []

        def tripping(shard, msg, exec_ctx):
            if not fired:
                fired.append(True)
                executor.rebalance(target_shards=3)
            try:
                return original(shard, msg, exec_ctx)
            except StaleEpoch as exc:
                stale.append(exc)
                raise

        router._level_call = tripping
        try:
            result = executor.execute_prepared(prepared)
        finally:
            router._level_call = original
        assert fired, "the mid-query rebalance never triggered"
        assert stale, "no frame met the flipped epoch"
        assert result.rows == expected
        assert store.num_shards == 3
        # Settled topology: the next query runs at the new epoch
        # without any re-routing.
        assert executor.execute_prepared(prepared).rows == expected
    finally:
        executor.close()
