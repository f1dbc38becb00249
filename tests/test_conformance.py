"""The conformance matrix: {serial, thread, process, columnar}
unsharded plus {serial, columnar} x {shards=1, shards=4} x {inproc,
rpc} — 12 cells — x {submit, prepare/bind/execute, submit_batch} on
all 14 LUBM queries plus the two variable-free patterns of
``conformance.ground_queries`` (one present, one absent).

Every cell must reproduce the single-store serial reference bit for
bit: identical answers and field-wise identical execution reports (see
``tests/conformance.py``).  This suite replaces the per-PR copies of
the answer-equality check that previously lived in ``test_backends.py``
and ``test_cluster.py``.  Every cell also proves the three surfaces are
one pipeline: on ``conformance.parity_queries`` (cacheable, one
template twice, uncacheable) they leave the same stats counters and
the same spans (``conformance.assert_one_pipeline``).
"""

from __future__ import annotations

import os

import pytest

from repro.service import QueryService, ServiceConfig
from repro.workloads import lubm, lubm_queries
from tests.conformance import (
    BACKENDS,
    CELLS,
    DEPLOYMENTS,
    SHARD_BACKENDS,
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
    expected_of,
    ground_queries,
    make_service,
    parity_queries,
    reference_answers,
    skip_unless_supported,
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
    graph, queries, reference, parity, parity_reference, deployment, backend
):
    """One service per (deployment, backend) cell; all three submission
    surfaces run the full workload against the shared reference, then
    the parity workload shows they are one pipeline."""
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
    check_one_pipeline(graph, backend, deployment, parity, parity_reference)


POOL_CELLS = tuple(
    (deployment, backend)
    for deployment in sorted(DEPLOYMENTS)
    if deployment != "unsharded"
    for backend in BACKENDS
    if backend not in SHARD_BACKENDS
)


@pytest.mark.parametrize(
    "deployment,backend", POOL_CELLS, ids=[f"{d}-{b}" for d, b in POOL_CELLS]
)
def test_sharded_pool_backend_is_refused(graph, deployment, backend):
    """The cells the matrix does not run: a shard runs one inline
    engine, so a sharded config naming a pool backend fails typed at
    construction, naming the engines it could have — before any shard
    server is spawned."""
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
        assert service.backend.name == resolved
        for surface in SURFACES:
            assert_surface_conforms(
                service, queries, reference, surface, where="unsharded/default"
            )
        assert service.submit(queries[0]).report.backend == resolved
        assert not service.snapshot_stats().warnings
    finally:
        service.close()
    check_one_pipeline(graph, None, "unsharded", parity, parity_reference)


@pytest.mark.parametrize("mode", sorted(RPC_MODES))
@pytest.mark.parametrize("wire", RPC_WIRES)
def test_concurrent_rpc_conformance(graph, queries, reference, wire, mode):
    """The concurrent=N dimension: 4 driver threads submit the rotated
    LUBM workload over rpc x {pickle, columnar} x {pipelined,
    coalesced}; answers and reports stay field-wise equal to the serial
    reference under multiplexing and cross-query coalescing."""
    skip_unless_supported("shards4-rpc", "serial")
    service = make_service(
        graph, "serial", "shards4-rpc", wire_format=wire, **RPC_MODES[mode]
    )
    try:
        assert_concurrent_conforms(
            service, queries, reference, threads=4,
            where=f"shards4-rpc/{wire}/{mode}",
        )
        assert_stateless_workers(service, where=f"shards4-rpc/{wire}/{mode}")
    finally:
        service.close()


def test_rebalance_inproc_conformance(graph, queries, reference):
    """The rebalance dimension, in-process: live 4→5 and 5→3 resizes
    with 4 driver threads keeping the workload in flight; answers and
    reports stay field-wise equal to the serial reference at every
    topology epoch.  Default topology: every move names one of the 7
    nodes, so both resizes change which shard serves real data."""
    service = make_service(graph, "serial", "shards4-inproc")
    try:
        reports = assert_rebalance_conforms(
            service, queries, reference, plan=(5, 3), threads=4,
            where="shards4-inproc/rebalance",
        )
        assert [r.new_shards for r in reports] == [5, 3]
        assert all(r.moved_nodes for r in reports)
    finally:
        service.close()


@pytest.mark.parametrize("wire", RPC_WIRES)
def test_rebalance_rpc_conformance(graph, queries, reference, wire):
    """The rebalance dimension over rpc x {pickle, columnar} with
    cross-query coalescing on: the owner table flips 4→5→3 live, only
    the moved nodes' data crosses the wire, and every outcome — before,
    during, or after a migration — conforms.  Default topology (7
    nodes): every migration moves triples between worker processes."""
    skip_unless_supported("shards4-rpc", "serial")
    service = make_service(
        graph, "serial", "shards4-rpc", wire_format=wire,
        **RPC_MODES["coalesced"]
    )
    try:
        reports = assert_rebalance_conforms(
            service, queries, reference, plan=(5, 3), threads=4,
            where=f"shards4-rpc/{wire}/rebalance",
        )
        assert [r.new_shards for r in reports] == [5, 3]
        for report in reports:
            assert report.bytes_shipped is not None
            assert sum(report.bytes_shipped) > 0
        assert_stateless_workers(service, where=f"shards4-rpc/{wire}/rebalanced")
    finally:
        service.close()


@pytest.mark.parametrize("backend", ["serial", "columnar"])
@pytest.mark.parametrize("wire", RPC_WIRES)
def test_one_id_space_rpc(queries, wire, backend):
    """The numbering dimension over rpc x {pickle, columnar} x {serial,
    columnar} workers at ``shards=2``: the store's dictionary is the one
    every worker holds — after warm-up, after a write to one shard only,
    a worker respawn, a grow and a shrink — and the driver receives
    blocks over nothing else.  Its own graphs: the check writes."""
    skip_unless_supported("shards4-rpc", backend)
    config = {"universities": UNIVERSITIES}
    with make_service(
        lubm.generate(lubm.LUBMConfig(**config)), "serial", "unsharded"
    ) as reference, QueryService(
        lubm.generate(lubm.LUBMConfig(**config)),
        ServiceConfig(
            shards=2,
            shard_transport="rpc",
            wire_format=wire,
            backend=backend,
            result_cache_size=0,
            tracing=os.environ.get("REPRO_TRACE", "") == "1",
        ),
    ) as service:
        assert_one_id_space(
            service, reference, queries[::3], where=f"shards2-rpc/{wire}/{backend}"
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
