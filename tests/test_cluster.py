"""The sharded store and shard router (repro.cluster).

Covers: layout equivalence between the sharded and single stores,
shard-local snapshot-token invalidation, incremental catalog maintenance
under ``add_triples`` (delta == recompute), executor-level answer and
report equality of sharded vs. unsharded execution, admission control,
the router's dispatch contract (owning shard, submission order), and the
per-shard explain output.

Service-level answer equality over the full LUBM workload across
{shards} x {transport} x {surface} lives in
``tests/test_conformance.py`` (the shared conformance harness); the RPC
transport's own protocol/fault tests live in ``tests/test_rpc.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster import (
    ShardRouter,
    ShardedPlanExecutor,
    ShardedStore,
    shard_graph,
)
from repro.core.algorithm import cliquesquare
from repro.core.decomposition import MSC
from repro.cost.cardinality import CatalogStatistics, triple_delta
from repro.mapreduce.backends import (
    ColumnarBackend,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    TaskInvocation,
    ThreadBackend,
)
from repro.mapreduce.counters import ExecutionReport, TaskMetrics
from repro.mapreduce.jobs import MapTaskSpec, TaskContext
from repro.partitioning.layout import PLACEMENTS
from repro.partitioning.triple_partitioner import partition_graph
from repro.physical.executor import PlanExecutor
from repro.service import (
    QueryService,
    ServiceConfig,
    ServiceOverloaded,
)
from repro.sparql.evaluator import evaluate
from repro.sparql.parser import parse_query
from tests.conformance import shard_client
from tests.conftest import make_university_graph

NUM_NODES = 7

STAR_QUERY = (
    "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
    "?p rdf:type ub:FullProfessor . ?s rdf:type ub:Student }"
)


@pytest.fixture(scope="module")
def university():
    return make_university_graph()


# -- sharded store layout ------------------------------------------------------


class TestShardedStore:
    def test_layout_identical_to_single_store(self, university):
        """Sharding never moves a triple: node placement is unchanged,
        each node's files just live on the shard owning the node."""
        single = partition_graph(university, NUM_NODES)
        sharded = shard_graph(university, NUM_NODES, 3)
        for node in range(NUM_NODES):
            assert sorted(single.file_names(node)) == sorted(
                sharded.file_names(node)
            )
            for placement in PLACEMENTS:
                assert sorted(single.scan(node, placement)) == sorted(
                    sharded.scan(node, placement)
                )
        assert single.total_stored() == sharded.total_stored()

    def test_shard_ownership_partitions_nodes(self):
        store = ShardedStore(num_nodes=NUM_NODES, num_shards=3)
        owned = [store.nodes_of_shard(s) for s in range(3)]
        flat = sorted(n for nodes in owned for n in nodes)
        assert flat == list(range(NUM_NODES))
        assert store.node_shards == tuple(n % 3 for n in range(NUM_NODES))

    def test_replica_reconstruction(self, university):
        sharded = shard_graph(university, NUM_NODES, 4)
        dataset = set(university)
        for placement in PLACEMENTS:
            assert sharded.replica_triples(placement) == dataset

    def test_triples_per_shard_sums_to_total(self, university):
        sharded = shard_graph(university, NUM_NODES, 4)
        assert sum(sharded.triples_per_shard()) == sharded.total_stored()
        assert sharded.total_stored() == 3 * len(university)

    def test_requires_full_replication(self):
        with pytest.raises(ValueError, match="3-way replication"):
            ShardedStore(num_nodes=4, num_shards=2, replicas=("s",))

    def test_rejects_more_shards_than_nodes(self):
        with pytest.raises(ValueError, match="at most one shard per node"):
            ShardedStore(num_nodes=2, num_shards=4)

    def test_scan_routes_to_owner(self, university):
        single = partition_graph(university, NUM_NODES)
        sharded = shard_graph(university, NUM_NODES, 2)
        for node in range(NUM_NODES):
            assert sorted(sharded.scan(node, "s", "ub:worksFor")) == sorted(
                single.scan(node, "s", "ub:worksFor")
            )


class TestShardSnapshots:
    def test_mutation_invalidates_only_touched_shards(self, university):
        """A mutation bumps snapshot tokens only on the shards holding
        one of the triple's three replicas — the other shards' pools
        (keyed on those tokens) survive."""
        sharded = shard_graph(university, NUM_NODES, 4)
        before = sharded.snapshot()
        triple = ("<tok-subj>", "<tok-prop>", "<tok-obj>")
        touched = {
            sharded.shard_of_value(value) for value in triple
        }
        sharded.add(triple)
        after = sharded.snapshot()
        assert touched, "placement must touch at least one shard"
        for shard in range(4):
            if shard in touched:
                assert after.shards[shard].token != before.shards[shard].token
            else:
                assert after.shards[shard].token == before.shards[shard].token
        assert after.token != before.token

    def test_untouched_shards_keep_their_view_object(self, university):
        """One store, per-shard views: a write or a rebalance rebuilds
        only the views of shards whose nodes it touched — the rest are
        the previous snapshot's objects (their workers never re-prime)."""
        sharded = shard_graph(university, NUM_NODES, 4)
        before = sharded.snapshot()
        assert sharded.snapshot() is before
        triple = ("<view-subj>", "<view-prop>", "<view-obj>")
        touched = {sharded.shard_of_value(value) for value in triple}
        sharded.add(triple)
        written = sharded.snapshot()
        for shard in range(4):
            same = written.shards[shard] is before.shards[shard]
            assert same == (shard not in touched)
        sharded.apply_rebalance([(0, 0, 1)])
        moved = sharded.snapshot()
        for shard in range(4):
            same = moved.shards[shard] is written.shards[shard]
            assert same == (shard not in (0, 1))
        assert sorted(moved.shards[1].file_names(0)) == sorted(
            sharded.file_names(0)
        )
        assert moved.shards[0].file_names(0) == []

    def test_snapshot_is_immune_to_later_mutation(self, university):
        sharded = shard_graph(university, NUM_NODES, 2)
        snapshot = sharded.snapshot()
        stored_before = snapshot.total_stored()
        sharded.add(("<s-new>", "<p-new>", "<o-new>"))
        assert snapshot.total_stored() == stored_before
        assert sharded.snapshot().total_stored() == stored_before + 3

    def test_snapshot_scan_matches_store(self, university):
        sharded = shard_graph(university, NUM_NODES, 3)
        snapshot = sharded.snapshot()
        for node in range(NUM_NODES):
            assert snapshot.scan(node, "p", "ub:worksFor") == sharded.scan(
                node, "p", "ub:worksFor"
            )


class TestIncrementalCatalog:
    def test_triple_delta_none_for_existing(self, university):
        triple = next(iter(university))
        assert triple_delta(university, *triple) is None

    def test_delta_equals_recompute_unsharded(self):
        service = QueryService(make_university_graph())
        try:
            service.add_triples(
                [
                    ("<p-new>", "ub:worksFor", "<dept0>"),  # new subject
                    ("<p-new>", "ub:newProp", "<o-new>"),  # new property+object
                    ("<person0>", "ub:worksFor", "<dept1>"),  # all seen
                    ("<person0>", "ub:worksFor", "<dept1>"),  # duplicate
                ]
            )
            assert service.catalog == CatalogStatistics.from_graph(service.graph)
        finally:
            service.close()

    def test_delta_equals_recompute_sharded(self):
        service = QueryService(
            make_university_graph(), ServiceConfig(shards=3)
        )
        try:
            service.add_triples(
                [("<pX>", "rdf:type", "ub:Student"), ("<pX>", "ub:memberOf", "<dept2>")]
            )
            assert service.catalog == CatalogStatistics.from_graph(service.graph)
        finally:
            service.close()

    def test_duplicate_only_batch_changes_nothing(self):
        service = QueryService(make_university_graph())
        try:
            before = service.catalog
            version = service.graph_version
            existing = next(iter(service.graph))
            assert service.add_triples([existing]) == 0
            assert service.catalog is before
            assert service.graph_version == version
        finally:
            service.close()

    def test_repeated_batches_stay_exact(self):
        service = QueryService(make_university_graph())
        try:
            for i in range(5):
                service.add_triples(
                    [(f"<s{i}>", f"<p{i % 2}>", f"<o{i}>")]
                )
            assert service.catalog == CatalogStatistics.from_graph(service.graph)
        finally:
            service.close()


# -- sharded execution equality ------------------------------------------------


class TestShardedExecution:
    def test_direct_executor_matches_single_store(self, university):
        single = partition_graph(university, NUM_NODES)
        reference = PlanExecutor(single)
        query = parse_query(STAR_QUERY)
        plan = cliquesquare(query, MSC).plans[0]
        expected = reference.execute(plan)
        for shards in (1, 2, 4, 7):
            executor = ShardedPlanExecutor(
                shard_graph(university, NUM_NODES, shards)
            )
            result = executor.execute(plan)
            assert result.rows == expected.rows
            assert result.report.num_jobs == expected.report.num_jobs
            assert result.report.response_time == expected.report.response_time
            assert result.report.total_work == expected.report.total_work
            assert result.report.jobs == expected.report.jobs
            assert result.report.shards == shards
            assert expected.report.shards == 0
            assert result.shard_tasks is not None
            assert len(result.shard_tasks) == shards
            # Every task of every job ran on exactly one shard.
            expected_tasks = sum(
                len(spec.map_chains) * NUM_NODES
                + (0 if spec.map_only else NUM_NODES)
                for spec in result.compiled.jobs
            )
            assert sum(result.shard_tasks) == expected_tasks
            assert sum(result.shard_rows) == sum(
                j.output_tuples for j in result.report.jobs
            )

    def test_mutation_visible_after_shard_rebuild(self, university):
        service = QueryService(
            make_university_graph(), ServiceConfig(shards=3)
        )
        try:
            before = service.submit(STAR_QUERY)
            service.add_triples(
                [
                    ("<pNew>", "ub:worksFor", "<dept0>"),
                    ("<pNew>", "rdf:type", "ub:FullProfessor"),
                    ("<sNew>", "ub:memberOf", "<dept0>"),
                    ("<sNew>", "rdf:type", "ub:Student"),
                ]
            )
            after = service.submit(STAR_QUERY)
            assert len(after.rows) > len(before.rows)
        finally:
            service.close()

    def test_template_registered_once_per_structure(self, university):
        """Same shape, different constant: the second query binds into
        the first one's template — one optimizer run, whatever the
        number of shards (which are told nothing about templates)."""
        service = QueryService(university, ServiceConfig(shards=2))
        try:
            assert isinstance(service.executor, ShardedPlanExecutor)
            q_template = (
                "SELECT ?p WHERE {{ ?p ub:worksFor <dept{}> . "
                "?p rdf:type ub:FullProfessor }}"
            )
            first = service.submit(q_template.format(0))
            second = service.submit(q_template.format(1))
            assert not first.template_hit and second.template_hit
            assert second.template_digest == first.template_digest
            assert service.snapshot_stats().optimizer_runs == 1
        finally:
            service.close()


# -- admission control ---------------------------------------------------------


class TestAdmissionControl:
    def test_zero_inflight_rejects_everything(self, university):
        service = QueryService(university, ServiceConfig(max_inflight=0))
        try:
            with pytest.raises(ServiceOverloaded):
                service.submit(STAR_QUERY)
            with pytest.raises(ServiceOverloaded):
                service.submit_batch([STAR_QUERY, STAR_QUERY])
            prepared = service.prepare(STAR_QUERY)
            with pytest.raises(ServiceOverloaded):
                prepared.execute()
            snapshot = service.snapshot_stats()
            assert snapshot.rejected == 4
            assert snapshot.submitted == 0
            assert "4 rejected" in snapshot.format()
        finally:
            service.close()

    def test_oversized_batch_admissible_when_idle(self, university):
        """A batch larger than max_inflight holds at most max_inflight
        slots, so it still runs on an idle service (retry-with-backoff
        can always eventually succeed)."""
        service = QueryService(university, ServiceConfig(max_inflight=1))
        try:
            outcomes = service.submit_batch([STAR_QUERY, STAR_QUERY])
            assert len(outcomes) == 2
            assert all(o.rows for o in outcomes)
            assert service.snapshot_stats().rejected == 0
        finally:
            service.close()

    def test_batch_rejected_as_a_unit_under_load(self, university):
        """While another submission holds the only slot, a whole batch is
        turned away and every member counts as rejected."""
        service = QueryService(university, ServiceConfig(max_inflight=1))
        try:
            gate = threading.Event()
            release = threading.Event()
            original = service._resolve

            def slow_resolve(inst):
                gate.set()
                release.wait(timeout=30)
                return original(inst)

            service._resolve = slow_resolve
            worker = threading.Thread(target=lambda: service.submit(STAR_QUERY))
            worker.start()
            try:
                assert gate.wait(timeout=30)
                with pytest.raises(ServiceOverloaded):
                    service.submit_batch([STAR_QUERY, STAR_QUERY])
            finally:
                release.set()
                worker.join(timeout=30)
            service._resolve = original
            assert service.snapshot_stats().rejected == 2
        finally:
            service.close()

    def test_inflight_slots_are_released(self, university):
        service = QueryService(university, ServiceConfig(max_inflight=2))
        try:
            for _ in range(5):
                service.submit(STAR_QUERY)
            assert service.snapshot_stats().rejected == 0
        finally:
            service.close()

    def test_concurrent_overload_rejects_excess(self, university):
        service = QueryService(university, ServiceConfig(max_inflight=1))
        try:
            gate = threading.Event()
            release = threading.Event()
            original = service._resolve

            def slow_resolve(inst):
                gate.set()
                release.wait(timeout=30)
                return original(inst)

            service._resolve = slow_resolve
            worker = threading.Thread(
                target=lambda: service.submit(STAR_QUERY)
            )
            worker.start()
            try:
                assert gate.wait(timeout=30)
                with pytest.raises(ServiceOverloaded):
                    service.submit(STAR_QUERY)
            finally:
                release.set()
                worker.join(timeout=30)
            service._resolve = original
            assert service.snapshot_stats().rejected == 1
            # With the slot free again, submissions are served.
            assert service.submit(STAR_QUERY).rows
        finally:
            service.close()


# -- one scheduler: the sharded report is the engine's report --------------------


class TestReportMergeEdgeCases:
    def test_sharded_reports_merge_to_engine_report(self, university):
        """End to end: one engine schedules both runs, so the sharded
        report equals the single-store report field for field (there
        are no per-shard reports to merge any more)."""
        single = partition_graph(university, NUM_NODES)
        query = parse_query(STAR_QUERY)
        plan = cliquesquare(query, MSC).plans[0]
        expected = PlanExecutor(single).execute(plan).report
        merged = (
            ShardedPlanExecutor(shard_graph(university, NUM_NODES, 4))
            .execute(plan)
            .report
        )
        assert merged.num_jobs == expected.num_jobs
        assert merged.levels == expected.levels
        assert merged.response_time == expected.response_time
        assert merged.total_work == expected.total_work
        assert merged.jobs == expected.jobs


# -- explain -------------------------------------------------------------------


class TestShardedExplain:
    def test_service_explain_shows_distribution(self, university):
        service = QueryService(university, ServiceConfig(shards=3))
        try:
            text = service.explain(STAR_QUERY)
            assert "== shard distribution (3 shards over 7 nodes) ==" in text
            for shard in range(3):
                assert f"shard {shard}: nodes" in text
            assert "stored triples" in text
            assert "map tasks" in text
        finally:
            service.close()

    def test_unsharded_explain_has_no_distribution(self, university):
        service = QueryService(university)
        try:
            assert "shard distribution" not in service.explain(STAR_QUERY)
        finally:
            service.close()

    def test_physical_explain_accepts_shard_map(self, university):
        from repro.physical.explain import explain as explain_plan

        query = parse_query(STAR_QUERY)
        plan = cliquesquare(query, MSC).plans[0]
        from repro.core.logical import LogicalPlan

        text = explain_plan(
            LogicalPlan(root=plan.root, query=query),
            shard_map=(0, 1, 0, 1, 0, 1, 0),
            shard_triples=(100, 90),
        )
        assert "2 shards over 7 nodes" in text
        assert "100 stored triples" in text


# -- plumbing ------------------------------------------------------------------


class TestClusterPlumbing:
    def test_router_rejects_mismatched_snapshot(self, university):
        two = shard_graph(university, NUM_NODES, 2)
        three = shard_graph(university, NUM_NODES, 3)
        executor = ShardedPlanExecutor(two)
        ctx = TaskContext(num_nodes=NUM_NODES, store=three.snapshot())
        with pytest.raises(ValueError, match="shards"):
            with executor.router.execution(ctx, ExecutionReport()):
                pass

    def test_dispatch_routes_by_slot_table_in_submission_order(self, university):
        """The router's whole contract, through the in-process carrier to
        shard workers whose engines finish in reverse: every invocation
        runs on the worker of the shard owning its node under the
        execution's own (here non-default) owner table, and results come
        back in submission order."""
        num_nodes, num_shards = 6, 3
        store = shard_graph(university, num_nodes, num_shards)
        store.apply_rebalance([(0, 0, 2), (4, 1, 0)], num_shards)
        table = store.table
        assert [table.shard_of_node(n) for n in range(num_nodes)] == [
            2, 1, 2, 0, 0, 2,
        ]
        finished: list[int] = []

        class FakeEngine(ExecutionBackend):
            """Worker *shard*'s engine, slowest on shard 0."""

            name = "fake"

            def __init__(self, shard: int) -> None:
                self.shard = shard

            def run(self, invocations, ctx):
                shard = self.shard
                time.sleep((0.2, 0.1, 0.0)[shard])
                finished.append(shard)
                if invocations[0].phase == "map":
                    return [
                        ([], [(shard, inv.node)], TaskMetrics())
                        for inv in invocations
                    ]
                return [
                    ([(shard, inv.args[0])] * 2, TaskMetrics())
                    for inv in invocations
                ]

        class NodeSpec(MapTaskSpec):
            """A map task pinned to *node*; the fake engines run it."""

            def __init__(self, node: int) -> None:
                self.node = node

            def run(self, ctx):
                raise AssertionError("the fake engine runs every task")

        router = ShardRouter(num_nodes, num_shards)
        maps = [
            TaskInvocation(NodeSpec(node), (), node, "map", 0)
            for node in (5, 0, 3, 1, 4, 2, 0)
        ]
        reduces = [
            TaskInvocation(NodeSpec(0), (p, {}), p % num_nodes, "reduce", 0)
            for p in (7, 3, 2)
        ]
        report = ExecutionReport()
        try:
            ctx = TaskContext(num_nodes=num_nodes, store=store.snapshot())
            router.prime(ctx)
            for shard in range(router.num_shards):
                shard_client(router, shard).worker.backend = FakeEngine(shard)
            with router.execution(ctx, report) as ctx:
                mapped = router.run(maps, ctx)
                assert finished == [2, 1, 0]
                reduced = router.run(reduces, ctx)
        finally:
            router.close()
        assert [direct for _emits, direct, _m in mapped] == [
            [(table.shard_of_node(inv.node), inv.node)] for inv in maps
        ]
        assert [rows[0] for rows, _m in reduced] == [(1, 7), (0, 3), (2, 2)]
        assert (report.shards, report.transport) == (3, "inproc")
        assert report.shard_tasks == (3, 2, 5)
        assert report.shard_rows == (2 + 2, 1 + 2, 4 + 2)
        # One frame per shard and phase; nothing is encoded in memory.
        assert report.shard_frames == (2, 2, 2)
        assert report.shard_bytes == (0, 0, 0)

    def test_executor_rejects_node_mismatch(self, university):
        from repro.mapreduce.engine import ClusterConfig

        store = shard_graph(university, NUM_NODES, 2)
        with pytest.raises(ValueError, match="nodes"):
            ShardedPlanExecutor(store, cluster=ClusterConfig(num_nodes=5))

    def test_shared_process_backend_instance_rejected(self, university):
        store = shard_graph(university, NUM_NODES, 2)
        with pytest.raises(TypeError, match="backend"):
            ShardedPlanExecutor(store, backend=ProcessBackend(1))

    @pytest.mark.parametrize("transport", ["inproc", "rpc"])
    @pytest.mark.parametrize(
        "backend", [lambda: ThreadBackend(2), lambda: ProcessBackend(1)],
        ids=["thread", "process"],
    )
    def test_pool_backend_instance_rejected(self, university, backend, transport):
        """A shard runs the engine it builds: a pool instance is refused,
        typed, on either transport — the executor takes no engine."""
        store = shard_graph(university, NUM_NODES, 2)
        pool = backend()
        try:
            with pytest.raises(TypeError, match="backend"):
                ShardedPlanExecutor(store, backend=pool, transport=transport)
        finally:
            pool.close()

    @pytest.mark.parametrize("transport", ["inproc", "rpc", "unsharded"])
    @pytest.mark.parametrize("backend", ["thread", "process", "instance"])
    def test_pool_backend_config_rejected(self, backend, transport):
        """``ServiceConfig(backend=<pool or engine instance>)`` fails
        typed on every deployment (unsharded is ``shards=0``), before
        any shard worker exists: a service has no engine knob."""
        deployment = (
            {"shards": 0}
            if transport == "unsharded"
            else {"shards": 2, "shard_transport": transport}
        )
        engine = SerialBackend() if backend == "instance" else backend
        with pytest.raises(TypeError, match="backend"):
            ServiceConfig(backend=engine, **deployment)

    def test_each_worker_holds_its_own_engine(self, university):
        """In process every shard worker builds its own id-space engine,
        as a shard server does — no engine is shared between shards."""
        with ShardedPlanExecutor(shard_graph(university, NUM_NODES, 3)) as executor:
            executor.prime()
            router = executor.router
            engines = [shard_client(router, shard).worker.backend for shard in range(3)]
            assert len({id(engine) for engine in engines}) == 3
            assert all(isinstance(engine, ColumnarBackend) for engine in engines)

    def test_inproc_rebalance_keeps_the_engine(self, university):
        """An in-process 2 → 3 → 2 rebalance is the live migration rpc
        runs: the surviving workers keep their engines (and with them
        the columnar scan cache), the grown shard's worker builds its
        own, and answers equal the evaluator's at every shard count."""
        want = evaluate(parse_query(STAR_QUERY), university)
        service = QueryService(
            university, ServiceConfig(shards=2, result_cache_size=0)
        )
        try:
            router = service.executor.router
            engines = [shard_client(router, shard).worker.backend for shard in range(2)]
            assert [engine.name for engine in engines] == ["columnar"] * 2
            assert service.submit(STAR_QUERY).rows == want
            for shards in (3, 2):
                report = service.rebalance(target_shards=shards)
                assert report.new_shards == shards and report.moved_nodes
                assert report.bytes_shipped == (0,) * shards
                assert service.executor.router is router
                survivors = [shard_client(router, shard).worker.backend for shard in range(2)]
                assert all(a is b for a, b in zip(survivors, engines))
                assert router.num_shards == shards
                live = [c for s in range(3) if (c := shard_client(router, s)) is not None]
                assert [c.worker.backend.name for c in live] == ["columnar"] * shards
                outcome = service.submit(STAR_QUERY)
                assert outcome.rows == want
                assert outcome.report.shards == shards
        finally:
            service.close()

    def test_csq_with_shards(self, university):
        from repro.systems.csq import CSQ

        plain = CSQ(university)
        sharded = CSQ(university, ServiceConfig(shards=2))
        try:
            query = parse_query(STAR_QUERY, name="star")
            assert (
                sharded.run(query).answers == plain.run(query).answers
            )
        finally:
            plain.close()
            sharded.close()
