"""Execution backends: spec picklability, cross-backend equivalence,
fallback behaviour, report merging, and ordering stability.

Service-level answer equality across the full {backend} x {deployment}
x {surface} matrix lives in ``tests/test_conformance.py`` (the shared
conformance harness); this module keeps the executor-level and
plumbing-level checks.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.algorithm import cliquesquare
from repro.core.decomposition import MSC
from repro.cost.params import CostParams
from repro.mapreduce.backends import (
    BackendUnavailable,
    ProcessBackend,
    SerialBackend,
    TaskInvocation,
    ThreadBackend,
    make_backend,
)
from repro.mapreduce.counters import TaskMetrics
from repro.mapreduce.engine import (
    ClusterConfig,
    LevelProgram,
    MapReduceEngine,
    ProgramJob,
    program_level,
)
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.jobs import (
    MapTaskSpec,
    ReduceTaskSpec,
    TaskContext,
    flatten,
    stable_hash,
)
from repro.partitioning.triple_partitioner import partition_graph
from repro.physical.executor import (
    ChainMapSpec,
    MapOnlySpec,
    PlanExecutor,
    StarReduceSpec,
)
from repro.relational.relation import Relation
from repro.sparql.parser import parse_query
from tests.conformance import PROCESS_OK, needs_process
from tests.conftest import make_university_graph


class _SquareSpec:
    """Minimal picklable spec for backend plumbing tests."""

    def hdfs_inputs(self):
        return ()

    def run(self, ctx, x):
        return x * x


@pytest.fixture(scope="module")
def university():
    graph = make_university_graph()
    store = partition_graph(graph, 7)
    return graph, store


def _prepare(store, text):
    executor = PlanExecutor(store)
    query = parse_query(text)
    plan = cliquesquare(query, MSC).plans[0]
    return executor, executor.prepare(plan)


TWO_LEVEL_QUERY = (
    "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
    "?p rdf:type ub:FullProfessor . ?s rdf:type ub:Student }"
)


class TestSpecPickling:
    def test_prepared_plan_round_trip(self, university):
        _, store = university
        executor, prepared = _prepare(store, TWO_LEVEL_QUERY)
        clone = pickle.loads(pickle.dumps(prepared))
        assert clone.compiled.final_attrs == prepared.compiled.final_attrs
        assert clone.compiled.num_jobs == prepared.compiled.num_jobs
        # The unpickled plan is executable and answers identically.
        assert (
            executor.execute_prepared(clone).rows
            == executor.execute_prepared(prepared).rows
        )

    def test_job_and_task_specs_round_trip(self, university):
        _, store = university
        _, prepared = _prepare(store, TWO_LEVEL_QUERY)
        for job_spec in prepared.compiled.jobs:
            assert pickle.loads(pickle.dumps(job_spec)) == job_spec
            for tag, chain in enumerate(job_spec.map_chains):
                spec = ChainMapSpec(
                    chain=chain, node=0, tag=tag, key_attrs=("?d",), num_reducers=7
                )
                assert pickle.loads(pickle.dumps(spec)) == spec
            if job_spec.reduce_join is not None:
                reduce_spec = StarReduceSpec(
                    on=job_spec.reduce_join.on,
                    child_attrs=tuple(c.attrs for c in job_spec.map_chains),
                    project=job_spec.project,
                )
                assert pickle.loads(pickle.dumps(reduce_spec)) == reduce_spec

    def test_map_only_spec_round_trip(self, university):
        _, store = university
        _, prepared = _prepare(
            store, "SELECT ?p ?d WHERE { ?p ub:worksFor ?d }"
        )
        chain = prepared.compiled.jobs[0].map_chains[0]
        spec = MapOnlySpec(chain=chain, node=3, project=("?p", "?d"))
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_physical_and_logical_plans_round_trip(self, university):
        _, store = university
        _, prepared = _prepare(store, TWO_LEVEL_QUERY)
        assert pickle.loads(pickle.dumps(prepared.plan)) == prepared.plan
        physical = pickle.loads(pickle.dumps(prepared.physical))
        assert str(physical.root) == str(prepared.physical.root)
        assert len(physical.reduce_joins) == len(prepared.physical.reduce_joins)

    def test_store_snapshot_round_trip(self, university):
        _, store = university
        snapshot = store.snapshot()
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.token == snapshot.token
        assert clone.total_stored() == snapshot.total_stored()
        assert clone.scan(0, "s") == snapshot.scan(0, "s")


class TestStableHashDeterminism:
    SAMPLES = [
        ("<http://example.org/a>",),
        ("<e1>", "<e2>"),
        ("ub:worksFor", '"literal value"', "<D0.U3>"),
        (42, "mixed"),
    ]

    def test_deterministic_in_process(self):
        assert [stable_hash(s) for s in self.SAMPLES] == [
            stable_hash(s) for s in self.SAMPLES
        ]

    @needs_process
    def test_deterministic_across_processes(self):
        backend = ProcessBackend(2, fallback=False)
        try:
            results = backend.run(
                [TaskInvocation(_HashSpec(), (s,)) for s in self.SAMPLES],
                TaskContext(num_nodes=1),
            )
        finally:
            backend.close()
        assert results == [stable_hash(s) for s in self.SAMPLES]


class _HashSpec:
    def hdfs_inputs(self):
        return ()

    def run(self, ctx, values):
        return stable_hash(values)


class TestBackendEquivalence:
    QUERIES = [
        "SELECT ?p ?d WHERE { ?p ub:worksFor ?d }",
        "SELECT ?d WHERE { ?d ub:subOrganizationOf <univ0> }",
        "SELECT ?x WHERE { ?x rdf:type ub:FullProfessor }",
        TWO_LEVEL_QUERY,
        "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
        "?d ub:subOrganizationOf <univ0> }",
    ]

    def test_all_backends_agree(self, university):
        _, store = university
        serial = PlanExecutor(store)
        backends = {"thread": PlanExecutor(store, backend=ThreadBackend(3))}
        if PROCESS_OK:
            backends["process"] = PlanExecutor(
                store, backend=ProcessBackend(2, fallback=False)
            )
        try:
            for text in self.QUERIES:
                query = parse_query(text)
                plan = cliquesquare(query, MSC).plans[0]
                prepared = serial.prepare(plan)
                reference = serial.execute_prepared(prepared)
                for name, executor in backends.items():
                    result = executor.execute_prepared(prepared)
                    assert result.rows == reference.rows, (name, text)
                    assert result.attrs == reference.attrs
                    # The simulated timing model is backend-invariant.
                    assert result.report.response_time == pytest.approx(
                        reference.report.response_time
                    )
                    assert result.report.total_work == pytest.approx(
                        reference.report.total_work
                    )
                    assert result.report.backend == name
        finally:
            for executor in backends.values():
                executor.close()


class TestMultiJobProcessExecution:
    @needs_process
    def test_sliced_shuffle_inputs_cross_process(self):
        """A plan with stacked reduce joins ships only the task's node
        partition of each shuffled intermediate to the worker."""
        import random

        from repro.rdf.graph import RDFGraph
        from repro.sparql.evaluator import evaluate

        rng = random.Random(7)
        g = RDFGraph(validate=False)
        values = [f"<e{i}>" for i in range(6)]
        for _ in range(120):
            g.add(rng.choice(values), f"p{rng.randrange(4)}", rng.choice(values))
        query = parse_query(
            "SELECT ?a WHERE { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p3 ?e }"
        )
        expected = evaluate(query, g)
        # Subject-only replicas ablate co-location: object-position joins
        # degrade to reduce joins, stacking into multi-job plans.
        store = partition_graph(g, 4, replicas=("s",))
        serial = PlanExecutor(store)
        tested = 0
        with PlanExecutor(store, backend=ProcessBackend(2, fallback=False)) as proc:
            for plan in cliquesquare(query, MSC, timeout_s=20).unique_plans()[:10]:
                prepared = serial.prepare(plan)
                if prepared.compiled.num_jobs >= 2:
                    tested += 1
                    assert proc.execute_prepared(prepared).rows == expected
        assert tested >= 1

    @needs_process
    def test_task_errors_surface_without_demotion(self):
        """A genuine task bug raises to the caller; the backend must not
        silently demote to serial (which could mask it)."""
        backend = ProcessBackend(2, fallback=True)
        try:
            with pytest.raises(KeyError):
                backend.run(
                    [TaskInvocation(_BoomSpec()), TaskInvocation(_BoomSpec())],
                    TaskContext(num_nodes=1),
                )
            assert backend._serial is None, "task error wrongly demoted backend"
        finally:
            backend.close()


class _BoomSpec:
    def hdfs_inputs(self):
        return ()

    def hdfs_slice(self, hdfs):
        return {}

    def run(self, ctx, *args):
        raise KeyError("task bug")


class TestGuardsAndFallback:
    def test_thread_backend_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ThreadBackend(0)

    def test_process_backend_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ProcessBackend(0)

    def test_make_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_backend("quantum")

    def test_make_backend_names(self):
        assert make_backend(None).name == "serial"
        assert make_backend("serial").name == "serial"
        assert make_backend("thread", num_workers=2).name == "thread"
        backend = make_backend("process", num_workers=1)
        assert backend.name == "process"
        backend.close()
        passthrough = SerialBackend()
        assert make_backend(passthrough) is passthrough

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        backend = ProcessBackend(2)
        monkeypatch.setattr(
            ProcessBackend,
            "_create_pool",
            lambda self, ctx: (_ for _ in ()).throw(OSError("no forks here")),
        )
        invocations = [TaskInvocation(_SquareSpec(), (n,)) for n in (2, 3, 4)]
        with pytest.warns(RuntimeWarning, match="no forks here") as caught:
            assert backend.run(invocations, TaskContext(num_nodes=1)) == [4, 9, 16]
            # Demotion is sticky: later runs go straight to serial, warn once.
            assert backend.run(invocations, TaskContext(num_nodes=1)) == [4, 9, 16]
        assert len(caught) == 1
        backend.close()

    def test_pool_failure_without_fallback_raises(self, monkeypatch):
        backend = ProcessBackend(2, fallback=False)
        monkeypatch.setattr(
            ProcessBackend,
            "_create_pool",
            lambda self, ctx: (_ for _ in ()).throw(OSError("denied")),
        )
        with pytest.raises(BackendUnavailable):
            backend.run(
                [TaskInvocation(_SquareSpec(), (n,)) for n in (1, 2)],
                TaskContext(num_nodes=1),
            )
        backend.close()

    @needs_process
    def test_closure_tasks_fall_back_to_serial(self):
        """A spec holding a closure does not pickle, so the process
        backend demotes itself instead of failing the job."""
        backend = ProcessBackend(2)

        def make(n):
            return lambda: ([], [(n,)], TaskMetrics())

        invocations = [TaskInvocation(_ClosureSpec(make(n))) for n in (1, 2)]
        with pytest.warns(RuntimeWarning, match="demoted to serial"):
            results = backend.run(invocations, TaskContext(num_nodes=1))
        assert [direct for _, direct, _ in results] == [[(1,)], [(2,)]]
        backend.close()

    @needs_process
    def test_pool_token_tracks_snapshot(self):
        """The observable half of snapshot-token revalidation: the pool
        token follows the snapshot the pool was primed against (the RPC
        shard servers expose the same token through worker Stats)."""

        def pool_token(backend):
            # The token the live pool was built against; None with no pool.
            with backend._lock:
                return backend._pool_token if backend._pool is not None else None

        graph = make_university_graph()
        store = partition_graph(graph, 4)
        backend = ProcessBackend(1, fallback=False)
        try:
            assert pool_token(backend) is None
            backend.prime(TaskContext(num_nodes=4, store=store.snapshot()))
            first = pool_token(backend)
            assert first == store.snapshot().token
            store.add(("<tok-s>", "<tok-p>", "<tok-o>"))
            backend.prime(TaskContext(num_nodes=4, store=store.snapshot()))
            assert pool_token(backend) == store.snapshot().token
            assert pool_token(backend) != first
        finally:
            backend.close()
        assert pool_token(backend) is None


class TestExplainSurface:
    def test_explain_names_the_backend(self, university):
        from repro.physical.explain import explain

        graph, _ = university
        query = parse_query(TWO_LEVEL_QUERY)
        plan = cliquesquare(query, MSC).plans[0]
        assert "backend serial" in explain(plan)
        assert "backend process" in explain(plan, backend="process")

    def test_report_records_backend(self, university):
        _, store = university
        executor = PlanExecutor(store, backend=ThreadBackend(2))
        try:
            query = parse_query("SELECT ?p ?d WHERE { ?p ub:worksFor ?d }")
            plan = cliquesquare(query, MSC).plans[0]
            assert executor.execute(plan).report.backend == "thread"
        finally:
            executor.close()


class TestOrderingStability:
    def test_relation_distinct_is_insertion_stable(self):
        rel = Relation(("?a",), [(3,), (1,), (3,), (2,), (1,), (2,)])
        assert rel.distinct().rows == [(3,), (1,), (2,)]

    def test_relation_project_is_insertion_stable(self):
        rel = Relation(("?a", "?b"), [(1, "x"), (2, "x"), (1, "y"), (2, "x")])
        assert rel.project(("?b",)).rows == [("x",), ("y",)]

    @pytest.mark.parametrize(
        "backend_factory",
        [
            SerialBackend,
            lambda: ThreadBackend(3),
            pytest.param(
                lambda: ProcessBackend(2, fallback=False), marks=needs_process
            ),
        ],
    )
    def test_shuffle_merge_order_matches_task_order(self, backend_factory):
        """Reducers must see rows grouped in map-task submission order,
        whatever order the backend completed the tasks in."""
        maps = tuple(
            TaskInvocation(_EmitSpec(start=n * 10), (), n % 2) for n in range(6)
        )
        job = ProgramJob("order", "order", (), maps, _CollectSpec(), 1)
        ctx = TaskContext(num_nodes=2, hdfs=HDFS(num_nodes=2))
        backend = backend_factory()
        try:
            MapReduceEngine(ClusterConfig(num_nodes=2), CostParams(), backend).execute(
                LevelProgram((program_level([job]),)), ctx
            )
        finally:
            backend.close()
        received = [row for part in ctx.hdfs.read("order").partitions for row in part]
        assert received == [(n * 10 + i,) for n in range(6) for i in range(3)]


class _EmitSpec(MapTaskSpec):
    """Emit one chunk of three rows to partition 0, tagged 0 (picklable
    test spec)."""

    def __init__(self, start: int) -> None:
        self.start = start

    def __eq__(self, other):
        return isinstance(other, _EmitSpec) and other.start == self.start

    def hdfs_inputs(self):
        return ()

    def run(self, ctx):
        rows = [(self.start + i,) for i in range(3)]
        return [(0, 0, rows)], [], TaskMetrics()


class _CollectSpec(ReduceTaskSpec):
    """Reduce to the rows tagged 0, in the order they arrived
    (picklable test spec)."""

    def __eq__(self, other):
        return isinstance(other, _CollectSpec)

    def run(self, ctx, partition, grouped):
        return flatten(grouped.get(0, [])), TaskMetrics()


class _ClosureSpec:
    """A map spec holding a closure: it does not pickle."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def hdfs_inputs(self):
        return ()

    def run(self, ctx):
        return self.fn()
