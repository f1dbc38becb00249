"""The conformance matrix: {serial, columnar} x {unsharded, shards=1,
shards=4} x {inproc, rpc} — 10 cells, every sharded one running the
shard worker's code — x {submit, prepare/bind/execute, submit_batch} on
all 14 LUBM queries plus the two variable-free patterns of
``conformance.ground_queries`` (one present, one absent).  The submit
surface sends each query as an object, then twice as SPARQL text: the
second text pass is all statement-cache hits.

Every cell must reproduce the single-store serial reference bit for
bit: identical answers and field-wise identical execution reports (see
``tests/conformance.py``).  This suite replaces the per-PR copies of
the answer-equality check that previously lived in ``test_backends.py``
and ``test_cluster.py``.  Every cell also proves the three surfaces are
one pipeline: on ``conformance.parity_queries`` (cacheable, one
template twice, uncacheable) they leave the same stats counters and
the same spans (``conformance.assert_one_pipeline``), and that a write
invalidates exactly the cached answers that read a file it wrote
(``conformance.assert_writes_conform``, on a twin with the result
cache on).

What only a bare executor reaches runs at that level: the rpc wire
formats x concurrency modes (``test_concurrent_rpc_conformance``).
"""

from __future__ import annotations

import os

import pytest

from repro.mapreduce.backends import BACKEND_NAMES, INLINE_BACKENDS
from repro.partitioning.triple_partitioner import partition_graph
from repro.physical.executor import PlanExecutor
from repro.service import QueryService, ServiceConfig
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
def reference(graph, queries):
    with make_service(graph, "serial", "unsharded") as service:
        return reference_answers(service, queries)


@pytest.fixture(scope="module")
def written(graph, queries, reference):
    """The answers after ``conformance.WRITES``, on the serial single
    store; the write touches some queries' files and not others', and
    changes some answers."""
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
        graph, "serial", "unsharded", canonical_budget=PARITY_BUDGET
    ) as service:
        outcomes = [service.submit(q) for q in parity]
        # Not vacuous: the roles the workload is named for are filled.
        assert [o.cacheable for o in outcomes] == [True, True, True, False]
        assert outcomes[1].template_digest == outcomes[2].template_digest
        assert all(o.rows for o in outcomes)
        return {
            q.name: expected_of(q.name, o) for q, o in zip(parity, outcomes)
        }


def check_writes(graph, backend, deployment, queries, written):
    """The write pass, on a twin of the cell with its result cache on."""
    with write_twin(graph, backend, deployment) as twin:
        assert_writes_conform(
            twin, queries, written, where=f"{deployment}/{backend or 'default'}"
        )


def check_one_pipeline(graph, backend, deployment, parity, parity_reference):
    """A traced twin of the cell's service, so the surfaces' spans can
    be compared as well as their counters."""
    with make_service(
        graph, backend, deployment,
        tracing=True, canonical_budget=PARITY_BUDGET,
    ) as traced:
        assert_one_pipeline(
            traced, parity, parity_reference,
            where=f"{deployment}/{backend or 'default'}/parity",
        )


def test_reference_is_not_vacuous(reference):
    """Answer equality only means something if answers exist."""
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


@pytest.mark.parametrize(
    "deployment,backend", CELLS, ids=[f"{d}-{b}" for d, b in CELLS]
)
def test_conformance_matrix(
    graph, queries, reference, written, parity, parity_reference,
    deployment, backend,
):
    """One service per (deployment, backend) cell; all three submission
    surfaces run the full workload against the shared reference, a
    write pass shows a write invalidates exactly the answers that read
    its files, then the parity workload shows the surfaces are one
    pipeline."""
    skip_unless_supported(deployment, backend)
    service = make_service(graph, backend, deployment)
    try:
        for surface in SURFACES:
            assert_surface_conforms(
                service, queries, reference, surface,
                where=f"{deployment}/{backend}",
            )
        assert not service.snapshot_stats().warnings, (
            "a backend silently degraded mid-matrix"
        )
        if service.config.shard_transport == "rpc":
            assert_stateless_workers(service, where=f"{deployment}/{backend}")
    finally:
        service.close()
    check_writes(graph, backend, deployment, queries, written)
    check_one_pipeline(graph, backend, deployment, parity, parity_reference)


POOL_CELLS = tuple(
    (deployment, backend)
    for deployment in sorted(DEPLOYMENTS)
    for backend in BACKEND_NAMES
    if backend not in INLINE_BACKENDS
)


@pytest.mark.parametrize(
    "deployment,backend", POOL_CELLS, ids=[f"{d}-{b}" for d, b in POOL_CELLS]
)
def test_sharded_pool_backend_is_refused(graph, deployment, backend):
    """The cells the matrix does not run: a service runs one inline
    engine on every deployment, so a config naming a pool backend fails
    typed at construction, naming the engines it could have — before
    any shard server is spawned."""
    with pytest.raises(ValueError, match="inline engine.*serial or columnar"):
        make_service(graph, backend, deployment)


def test_default_config_conformance(
    graph, queries, reference, parity, parity_reference
):
    """The cell that names no backend: whatever ``ServiceConfig()``
    resolves to here (the id-space engine with numpy, serial without)
    answers like the serial reference, rows and field-wise reports, on
    every surface."""
    from repro.columnar import HAVE_NUMPY

    service = make_service(graph, None, "unsharded")
    try:
        resolved = "columnar" if HAVE_NUMPY else "serial"
        assert service.config.backend == resolved
        assert service.executor.backend.name == resolved
        for surface in SURFACES:
            assert_surface_conforms(
                service, queries, reference, surface, where="unsharded/default"
            )
        assert service.submit(queries[0]).report.backend == resolved
        assert not service.snapshot_stats().warnings
    finally:
        service.close()
    check_one_pipeline(graph, None, "unsharded", parity, parity_reference)


@pytest.fixture(scope="module")
def lubm_plans(graph):
    """The 14 LUBM queries, the plan the reference service chooses for
    each (prepared once), and each plan's run on the unsharded serial
    executor, keyed by query name."""
    queries = lubm_queries.all_queries()
    with make_service(graph, "serial", "unsharded") as service:
        plans = {q.name: service.optimize(q)[0] for q in queries}
    with PlanExecutor(partition_graph(graph, NUM_NODES)) as executor:
        prepared = {name: executor.prepare(plan) for name, plan in plans.items()}
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
    field-wise equal to the unsharded serial executor's."""
    skip_unless_supported("shards4-rpc", "serial")
    queries, prepared, reference = lubm_plans
    where = f"shards4-rpc/{wire}/{mode}"
    with rpc_executor(
        graph, shards=4, wire_format=wire, **RPC_MODES[mode]
    ) as executor:

        def run(query):
            return executor.execute_prepared(prepared[query.name])

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
    flight; answers and reports stay field-wise equal to the serial
    reference at every topology epoch.  Both transports run the one
    migration, so every step moves nodes that hold data (the default 7
    nodes); over rpc the moved nodes' data crosses the wire and the
    workers stay stateless after it."""
    skip_unless_supported(deployment, "serial")
    rpc = DEPLOYMENTS[deployment]["shard_transport"] == "rpc"
    where = f"{deployment}/rebalance"
    service = make_service(graph, "serial", deployment)
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


@pytest.mark.parametrize("backend", ["serial", "columnar"])
def test_one_id_space_rpc(queries, backend):
    """The numbering dimension over rpc x {serial, columnar} workers at
    ``shards=2``: the store's dictionary is the one every worker holds —
    after warm-up, after a write to one shard only, a worker respawn, a
    grow and a shrink — and the driver receives blocks over nothing
    else.  Its own graphs: the check writes."""
    skip_unless_supported("shards4-rpc", backend)
    config = {"universities": UNIVERSITIES}
    with make_service(
        lubm.generate(lubm.LUBMConfig(**config)), "serial", "unsharded"
    ) as reference, QueryService(
        lubm.generate(lubm.LUBMConfig(**config)),
        ServiceConfig(
            shards=2,
            shard_transport="rpc",
            backend=backend,
            result_cache_size=0,
            tracing=os.environ.get("REPRO_TRACE", "") == "1",
        ),
    ) as service:
        assert_one_id_space(
            service, reference, queries[::3], where=f"shards2-rpc/{backend}"
        )


@pytest.mark.parametrize("surface", SURFACES)
def test_duplicate_heavy_batch_conforms(graph, queries, reference, surface):
    """A batch with duplicate and template-sharing members (the
    coalescing paths) still conforms on every surface."""
    mix = [queries[0], queries[1], queries[0], queries[3], queries[1]]
    service = make_service(graph, "serial", "shards4-inproc")
    try:
        assert_surface_conforms(
            service, mix, reference, surface, where="dup-mix"
        )
    finally:
        service.close()
