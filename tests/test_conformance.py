"""The conformance matrix: {unsharded, shards=1, shards=4} x {inproc,
rpc} — 5 cells, each running the one id-space engine and every sharded
one the shard worker's code — x {submit, prepare/bind/execute,
submit_batch} on all 14 LUBM queries plus the two variable-free
patterns of ``conformance.ground_queries`` (one present, one absent).
The submit surface sends each query as an object, then twice as SPARQL
text: the second text pass is all statement-cache hits.

Every cell must reproduce the reference bit for bit: the evaluator's
answers (``sparql.evaluator.evaluate``) and, field by field, the
execution report a bare serial ``PlanExecutor`` writes for the same
plan (see ``tests/conformance.py``).  Every cell also proves the three
surfaces are one pipeline: on ``conformance.parity_queries``
(cacheable, one template twice, uncacheable) they leave the same stats
counters and the same spans (``conformance.assert_one_pipeline``), and
that a write stales exactly the cached answers that read a file it
wrote, and that those are patched (``conformance.assert_writes_conform``,
on a twin with the result cache on, against the evaluator over the
written graph).

What only a bare executor reaches runs at that level: the rpc wire
formats x concurrency modes (``test_concurrent_rpc_conformance``).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import replace as dataclass_replace

import pytest

from repro.cluster import ShardedPlanExecutor, shard_graph
from repro.cluster.router import ShardRouter
from repro.columnar.engine import task_groups
from repro.core.algorithm import cliquesquare
from repro.core.decomposition import MSC
from repro.mapreduce.backends import ColumnarBackend, ExecutionBackend, SerialBackend
from repro.mapreduce.engine import (
    ClusterConfig,
    LevelProgram,
    MapReduceEngine,
    program_level,
)
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.jobs import TaskContext
from repro.partitioning.triple_partitioner import partition_graph
from repro.physical.executor import PlanExecutor, program_job
from repro.service import QueryService, ServiceConfig
from repro.sparql.evaluator import evaluate
from repro.workloads import lubm, lubm_queries
from tests.conformance import (
    CELLS,
    DEPLOYMENTS,
    NUM_NODES,
    PARITY_BUDGET,
    RPC_MODES,
    RPC_WIRES,
    SURFACES,
    assert_concurrent_conforms,
    assert_one_id_space,
    assert_one_pipeline,
    assert_rebalance_conforms,
    assert_stateless_workers,
    assert_surface_conforms,
    assert_writes_conform,
    expected_of,
    ground_queries,
    make_service,
    parity_queries,
    reads_writes,
    reference_answers,
    rpc_executor,
    skip_unless_supported,
    write_twin,
    writes_reference,
)

UNIVERSITIES = 4


@pytest.fixture(scope="module")
def graph():
    return lubm.generate(lubm.LUBMConfig(universities=UNIVERSITIES))


@pytest.fixture(scope="module")
def queries(graph):
    return lubm_queries.all_queries() + ground_queries(graph)


@pytest.fixture(scope="module")
def planned(graph, queries):
    """An unsharded service's outcome for each query: the reference
    runs their plans."""
    with make_service(graph, "unsharded") as planner:
        return [planner.submit(q) for q in queries]


@pytest.fixture(scope="module")
def reference(graph, queries, planned):
    return reference_answers(graph, queries, planned)


@pytest.fixture(scope="module")
def written(graph, queries, reference):
    """The reference after ``conformance.WRITES``; the write touches
    some queries' files and not others', and changes some answers."""
    after = writes_reference(graph, queries)
    assert any(reads_writes(q) for q in queries)
    assert not all(reads_writes(q) for q in queries)
    assert any(after[name].rows != reference[name].rows for name in after)
    return after


@pytest.fixture(scope="module")
def parity():
    return parity_queries()


@pytest.fixture(scope="module")
def parity_reference(graph, parity):
    with make_service(
        graph, "unsharded", canonical_budget=PARITY_BUDGET
    ) as planner:
        outcomes = [planner.submit(q) for q in parity]
    # Not vacuous: the roles the workload is named for are filled.
    assert [o.cacheable for o in outcomes] == [True, True, True, False]
    assert outcomes[1].template_digest == outcomes[2].template_digest
    reference = reference_answers(graph, parity, outcomes)
    assert all(expected.rows for expected in reference.values())
    return reference


def check_writes(graph, deployment, queries, written, reference):
    """The write pass, on a twin of the cell with its result cache on."""
    with write_twin(graph, deployment) as twin:
        assert_writes_conform(twin, queries, written, reference, where=deployment)


def check_one_pipeline(graph, deployment, parity, parity_reference):
    """A traced twin of the cell's service, so the surfaces' spans can
    be compared as well as their counters."""
    with make_service(
        graph, deployment, tracing=True, canonical_budget=PARITY_BUDGET
    ) as traced:
        assert_one_pipeline(
            traced, parity, parity_reference, where=f"{deployment}/parity"
        )


def test_reference_is_not_vacuous(graph, queries, planned, reference):
    """Answer equality only means something if answers exist — and the
    evaluator's answers are not taken on trust: on every reference plan
    the bare serial engine's rows equal the evaluator's answer to the
    plan's own (canonical) query, so two independent implementations
    agree on what the matrix checks against."""
    assert len(reference) == 16
    assert reference["ground-present"].rows == {()}
    assert reference["ground-absent"].rows == frozenset()
    assert all(
        expected.rows
        for name, expected in reference.items()
        if name != "ground-absent"
    )
    assert any(expected.num_jobs > 1 for expected in reference.values())
    assert any(expected.job_signature == "M" for expected in reference.values())
    with PlanExecutor(partition_graph(graph, NUM_NODES), backend="serial") as serial:
        for query, outcome in zip(queries, planned):
            plan, name = outcome.plan, query.name
            result = serial.execute(plan)
            assert result.report.backend == "serial", name
            assert result.attrs == plan.query.distinguished, name
            assert frozenset(result.rows) == evaluate(plan.query, graph), name
            assert len(result.rows) == len(reference[name].rows), name


@pytest.mark.parametrize("deployment", CELLS)
def test_conformance_matrix(
    graph, queries, reference, written, parity, parity_reference, deployment
):
    """One service per deployment; all three submission surfaces run the
    full workload against the shared reference, a write pass shows a
    write patches exactly the answers that read its files, then the
    parity workload shows the surfaces are one pipeline."""
    skip_unless_supported(deployment)
    service = make_service(graph, deployment)
    try:
        rpc = service.config.shard_transport == "rpc"
        assert service.executor.backend.name == (
            "rpc:columnar" if rpc else "columnar"
        )
        for surface in SURFACES:
            assert_surface_conforms(
                service, queries, reference, surface, where=deployment
            )
        assert not service.snapshot_stats().warnings, (
            "a backend silently degraded mid-matrix"
        )
        if rpc:
            assert_stateless_workers(service, where=deployment)
    finally:
        service.close()
    check_writes(graph, deployment, queries, written, reference)
    check_one_pipeline(graph, deployment, parity, parity_reference)


POOL_CELLS = tuple(
    (deployment, backend)
    for deployment in sorted(DEPLOYMENTS)
    for backend in ("thread", "process")
)


@pytest.mark.parametrize(
    "deployment,backend", POOL_CELLS, ids=[f"{d}-{b}" for d, b in POOL_CELLS]
)
def test_sharded_pool_backend_is_refused(graph, deployment, backend):
    """The cells the matrix does not run: a service runs the one engine
    on every deployment and has no engine knob, so a config naming a
    pool backend fails typed at construction — before any shard server
    is spawned."""
    with pytest.raises(TypeError, match="backend"):
        make_service(graph, deployment, backend=backend)


def test_default_config_conformance(
    graph, queries, reference, parity, parity_reference
):
    """The config that names nothing: ``ServiceConfig()``, its result
    cache off so every surface executes, runs the one id-space engine
    on the single store and answers like the reference, rows and
    field-wise reports, on every surface."""
    config = ServiceConfig(
        result_cache_size=0,
        tracing=os.environ.get("REPRO_TRACE", "") == "1",
    )
    assert config.shards == 0
    service = QueryService(graph, config)
    try:
        assert service.executor.backend.name == "columnar"
        for surface in SURFACES:
            assert_surface_conforms(
                service, queries, reference, surface, where="default"
            )
        assert service.submit(queries[0]).report.backend == "columnar"
        assert not service.snapshot_stats().warnings
    finally:
        service.close()
    check_one_pipeline(graph, "unsharded", parity, parity_reference)


@pytest.fixture(scope="module")
def lubm_plans(graph, planned):
    """The 14 LUBM queries, each one's reference plan (prepared once),
    and each plan's run on the unsharded serial executor, keyed by
    query name."""
    queries = lubm_queries.all_queries()
    with PlanExecutor(partition_graph(graph, NUM_NODES), backend="serial") as executor:
        # ``planned`` starts with these 14 queries
        prepared = {
            q.name: executor.prepare(outcome.plan)
            for q, outcome in zip(queries, planned)
        }
        reference = {
            name: expected_of(name, executor.execute_prepared(plan))
            for name, plan in prepared.items()
        }
    return queries, prepared, reference


@pytest.mark.parametrize("mode", sorted(RPC_MODES))
@pytest.mark.parametrize("wire", RPC_WIRES)
def test_concurrent_rpc_conformance(graph, lubm_plans, wire, mode):
    """The rpc wire x mode dimension, at the executor level (the service
    runs the columnar wire and the default pipeline only): 4 driver
    threads run the rotated LUBM workload over 4 rpc shards x {pickle,
    columnar} x {serial connection, pipelined, coalesced}, before and
    after a quiesced resize to 3 shards; answers and reports stay
    field-wise equal to the unsharded serial executor's, although the
    workers run the id-space engine (the report names it)."""
    skip_unless_supported("shards4-rpc")
    queries, prepared, reference = lubm_plans
    where = f"shards4-rpc/{wire}/{mode}"
    with rpc_executor(
        graph, shards=4, wire_format=wire, **RPC_MODES[mode]
    ) as executor:

        def run(query):
            return executor.execute_prepared(prepared[query.name])

        assert run(queries[0]).report.backend == "rpc:columnar", where
        assert_concurrent_conforms(run, queries, reference, threads=4, where=where)
        report = executor.rebalance(target_shards=3)
        assert report.new_shards == 3 and report.moved_nodes, where
        assert_concurrent_conforms(
            run, queries, reference, threads=4, where=f"{where}/resized"
        )


#: the rebalance cells: every sharded deployment
REBALANCE_CELLS = tuple(
    deployment for deployment in sorted(DEPLOYMENTS) if deployment != "unsharded"
)


@pytest.mark.parametrize("deployment", REBALANCE_CELLS)
def test_rebalance_conformance(graph, queries, reference, deployment):
    """The rebalance dimension on every sharded deployment: live resizes
    to 5 and then 3 shards with 4 driver threads keeping the workload in
    flight; answers and reports stay field-wise equal to the reference
    at every topology epoch.  Both transports run the one migration, so
    every step moves nodes that hold data (the default 7 nodes); over
    rpc the moved nodes' data crosses the wire and the workers stay
    stateless after it."""
    skip_unless_supported(deployment)
    rpc = DEPLOYMENTS[deployment]["shard_transport"] == "rpc"
    where = f"{deployment}/rebalance"
    service = make_service(graph, deployment)
    try:
        reports = assert_rebalance_conforms(
            service, queries, reference, plan=(5, 3), threads=4, where=where,
        )
        assert [r.new_shards for r in reports] == [5, 3]
        assert all(r.moved_nodes for r in reports)
        for report in reports:
            assert len(report.bytes_shipped) == report.new_shards
            assert (sum(report.bytes_shipped) > 0) == rpc
        if rpc:
            assert_stateless_workers(service, where=f"{where}d")
    finally:
        service.close()


def test_one_id_space_rpc(queries):
    """The numbering dimension over rpc at ``shards=2``: the store's
    dictionary is the one every worker holds — after warm-up, after a
    write to one shard only, a worker respawn, a grow and a shrink —
    and the driver receives blocks over nothing else.  Its own graph:
    the check writes."""
    skip_unless_supported("shards4-rpc")
    with QueryService(
        lubm.generate(lubm.LUBMConfig(universities=UNIVERSITIES)),
        ServiceConfig(
            shards=2,
            shard_transport="rpc",
            result_cache_size=0,
            tracing=os.environ.get("REPRO_TRACE", "") == "1",
        ),
    ) as service:
        assert_one_id_space(service, queries[::3], where="shards2-rpc")


@pytest.mark.parametrize("surface", SURFACES)
def test_duplicate_heavy_batch_conforms(graph, queries, reference, surface):
    """A batch with duplicate and template-sharing members (the
    coalescing paths) still conforms on every surface."""
    mix = [queries[0], queries[1], queries[0], queries[3], queries[1]]
    service = make_service(graph, "shards4-inproc")
    try:
        assert_surface_conforms(
            service, mix, reference, surface, where="dup-mix"
        )
    finally:
        service.close()


# -- the exchange: one shuffle block per task group and partition ---------------


class _ReduceInputs(ExecutionBackend):
    """Runs every batch on *inner*, recording what each reduce task
    reads: its partition and, per tag, its rows as a multiset."""

    def __init__(self, inner) -> None:
        self.inner, self.name, self.read = inner, inner.name, []

    def execution(self, ctx, report):
        return self.inner.execution(ctx, report)

    def run(self, invocations, ctx):
        self.read += [
            (
                inv.args[0],
                {
                    tag: Counter(row for chunk in chunks for row in chunk)
                    for tag, chunks in inv.args[1].items()
                },
            )
            for inv in invocations
            if inv.phase == "reduce"
        ]
        return self.inner.run(invocations, ctx)


def run_twin_jobs(backend, snapshot, spec) -> tuple[list, list]:
    """Two jobs of one level built from one reduce-join job spec, so
    their map chains are equal in chain, tag and key: what each reduce
    task read, and the per-job metrics."""
    job = program_job(spec, NUM_NODES, 0)
    level = program_level(
        [dataclass_replace(job, name=f"twin-{i}", output=f"twin-{i}") for i in range(2)]
    )
    spy = _ReduceInputs(backend)
    ctx = TaskContext(num_nodes=NUM_NODES, store=snapshot, hdfs=HDFS(num_nodes=NUM_NODES))
    engine = MapReduceEngine(ClusterConfig(num_nodes=NUM_NODES), backend=spy)
    report = engine.execute(LevelProgram((level,)), ctx)
    return spy.read, report.jobs


@pytest.mark.parametrize("deployment", ["unsharded", "shards2-inproc", "shards2-rpc"])
def test_equal_map_specs_of_two_jobs_stay_apart(graph, deployment):
    """A chain-map group ships its rows on its first task, to that
    task's job: two jobs of one level whose map specs are equal must
    still form two groups.  Each job's reducers read exactly their own
    rows per (partition, tag) — what ``SerialBackend`` routes — and
    every job's metrics equal serial's, on the columnar engine
    unsharded, on 2 in-process shards and on 2 rpc shards."""
    transport = deployment.partition("-")[2]
    if transport == "rpc":
        skip_unless_supported("shards4-rpc")
    plans = [
        cliquesquare(query, MSC).plans[0] for query in lubm_queries.all_queries()
    ]
    store = partition_graph(graph, NUM_NODES)
    with PlanExecutor(store, backend="serial") as planner:
        spec = next(
            job
            for plan in plans
            for job in planner.prepare(plan).compiled.jobs
            if not job.map_only and not job.depends
        )
    with SerialBackend() as serial:
        want_read, want_jobs = run_twin_jobs(serial, store.snapshot(), spec)
    half = len(want_read) // 2
    assert want_read[:half] == want_read[half:]
    assert any(tags and all(tags.values()) for _p, tags in want_read)
    if transport:
        with ShardedPlanExecutor(
            shard_graph(graph, NUM_NODES, 2), transport=transport
        ) as executor:
            read, jobs = run_twin_jobs(executor.backend, executor.store.snapshot(), spec)
    else:
        with ColumnarBackend() as columnar:
            read, jobs = run_twin_jobs(columnar, store.snapshot(), spec)
    assert read == want_read, deployment
    assert jobs == want_jobs, deployment


def test_one_shuffle_chunk_per_task_group_and_partition(graph, queries, reference, monkeypatch):
    """A warm LUBM pass over 2 rpc shards: of every map batch a shard
    runs, each task group ships its rows on its first task, at most one
    chunk per reduce partition — the engine receives no chunk per
    (task, partition)."""
    skip_unless_supported("shards4-rpc")
    groups: list[int] = []
    real = ShardRouter.run

    def run(self, invocations, ctx):
        results = real(self, invocations, ctx)
        if invocations and invocations[0].phase == "map":
            shard_of = ctx.dispatch.table.shard_of_node
            slices: dict[int, list] = {}
            for inv, (shuffle, _direct, _metrics) in zip(invocations, results):
                slices.setdefault(shard_of(inv.node), []).append((inv.spec, shuffle))
            for members in slices.values():
                for positions in task_groups([spec for spec, _ in members]):
                    first, *rest = [members[p][1] for p in positions]
                    assert all(shuffle == [] for shuffle in rest)
                    assert len({(p, tag) for p, tag, _chunk in first}) == len(first)
                    assert len(first) <= NUM_NODES
                    groups.append(len(first))
        return results

    monkeypatch.setattr(ShardRouter, "run", run)
    lubm14 = lubm_queries.all_queries()
    with QueryService(
        graph, ServiceConfig(shards=2, shard_transport="rpc", result_cache_size=0)
    ) as service:
        for query in lubm14:
            service.submit(query)
        groups.clear()
        for query in lubm14:
            assert service.submit(query).rows == reference[query.name].rows
    assert groups and sum(groups) > len(groups)
