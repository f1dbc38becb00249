"""The reusable answer-equality conformance harness.

Every execution configuration of this system — deployment (unsharded,
sharded in-process, sharded over RPC; each runs the one id-space
engine), submission surface (submit, prepare/bind/execute,
submit_batch) — must produce **the evaluator's answers** and
**field-wise identical execution reports** to the reference.  The
reference is computed by no service: answers come from
:func:`repro.sparql.evaluator.evaluate` over the graph (the written
graph, for the write pass), and reports from a bare serial
``PlanExecutor`` running each query's plan over the unsharded store
(:func:`reference_answers`).  The mechanisms only a bare executor
reaches have their own cells at that level: the rpc wire formats and
concurrency modes (``RPC_WIRES`` x ``RPC_MODES``, through
``ShardedPlanExecutor``), and the thread / process pools
(``tests/test_backends.py::TestBackendEquivalence``).  This module is
the one shared proof, and ``tests/test_conformance.py`` runs it over
the whole matrix on all 14 LUBM queries.  New transports or surfaces
extend the matrix here instead of growing new copies of the check.

Also home to the environment probes (``PROCESS_OK``, ``RPC_OK``) other
test modules share: sandboxed environments without working process
pools or localhost sockets skip the cells that need them.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import itertools
import os
import signal
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.cluster import ShardedPlanExecutor, shard_graph
from repro.columnar.block import ColumnBlock
from repro.core.algorithm import cliquesquare
from repro.core.decomposition import MSC
from repro.mapreduce.backends import SerialBackend, TaskInvocation
from repro.mapreduce.counters import ExecutionReport, TaskMetrics
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.jobs import MapTaskSpec, TaskContext
from repro.partitioning.triple_partitioner import partition_graph
from repro.physical.executor import PlanExecutor, PreparedPlan, job_from_spec
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import RDF_TYPE, is_variable
from repro.service import (
    QueryOutcome,
    QueryService,
    ServiceConfig,
    StatsSnapshot,
)
from repro.sparql.ast import BGPQuery
from repro.sparql.canonical import CanonicalizationBudgetExceeded
from repro.sparql.evaluator import evaluate
from repro.sparql.parser import parse_query
from repro.workloads import lubm, lubm_queries


@functools.lru_cache(maxsize=None)
def process_pools_work() -> bool:
    """True when this machine can actually run a process pool.

    Probes with a builtin: pickling a class defined in a still-importing
    module would deadlock on the import lock (the pool's feeder thread
    re-imports the half-imported module).
    """
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(abs, -1).result(timeout=60) == 1
    except Exception:
        return False


@functools.lru_cache(maxsize=None)
def rpc_workers_work() -> bool:
    """True when a shard server process can be spawned and spoken to
    (needs working process spawning *and* localhost sockets)."""
    try:
        from repro.cluster.rpc import ShardWorkerClient, StatsReply

        client = ShardWorkerClient(shard=0, num_nodes=2, spawn_timeout=30)
        try:
            # The spawn handshake is itself a Stats round trip.
            return isinstance(client.start(), StatsReply)
        finally:
            client.close()
    except Exception:
        return False


def __getattr__(name: str):
    """Lazy probe attributes: importing this module stays free; the
    process/RPC probes run only when a suite actually asks for them
    (test_backends pays for PROCESS_OK, test_rpc for RPC_OK — never
    both unless both are needed)."""
    if name == "PROCESS_OK":
        return process_pools_work()
    if name == "RPC_OK":
        return rpc_workers_work()
    if name == "needs_process":
        return pytest.mark.skipif(
            not process_pools_work(),
            reason="process pools unavailable in this environment",
        )
    if name == "needs_rpc":
        return pytest.mark.skipif(
            not rpc_workers_work(),
            reason="RPC shard workers unavailable in this environment",
        )
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- the conformance matrix ----------------------------------------------------

#: deployment id -> ServiceConfig fields
DEPLOYMENTS: dict[str, dict] = {
    "unsharded": {"shards": 0},
    "shards1-inproc": {"shards": 1, "shard_transport": "inproc"},
    "shards4-inproc": {"shards": 4, "shard_transport": "inproc"},
    "shards1-rpc": {"shards": 1, "shard_transport": "rpc"},
    "shards4-rpc": {"shards": 4, "shard_transport": "rpc"},
}

#: the cells of the matrix: every deployment runs the one engine
CELLS = tuple(sorted(DEPLOYMENTS))

SURFACES = ("submit", "prepare", "batch")

#: rpc concurrency mode id -> ShardedPlanExecutor options (the service
#: runs the default pipeline and no coalescing).  "serial_conn" keeps
#: one outstanding request per shard socket; "pipelined" multiplexes
#: many; "coalesced" additionally merges concurrent queries' levels
#: into shared ExecuteBatch frames inside a short window.
RPC_MODES: dict[str, dict] = {
    "serial_conn": {"rpc_pipeline": 0},
    "pipelined": {"rpc_pipeline": 8},
    "coalesced": {
        "rpc_pipeline": 8,
        "coalesce_window_ms": 2.0,
        "coalesce_max_batch": 8,
    },
}

#: row encodings of the rpc shard exchanges (ShardedPlanExecutor's
#: ``wire_format``; the service ships "columnar")
RPC_WIRES = ("pickle", "columnar")


def skip_unless_supported(deployment: str) -> None:
    """Skip a matrix cell whose environment requirements are unmet."""
    if (
        DEPLOYMENTS[deployment].get("shard_transport") == "rpc"
        and not rpc_workers_work()
    ):
        pytest.skip("RPC shard workers unavailable in this environment")


def make_service(graph, deployment: str, **overrides) -> QueryService:
    """A service for one matrix cell.

    The result cache is disabled, unless *overrides* sets its size, so
    every surface truly executes (a cached answer would make
    cross-surface equality vacuous); plan and template caches stay on —
    binding reuse across surfaces is exactly the path being verified.
    """
    # REPRO_TRACE=1 re-runs the whole matrix with per-query tracing on
    # (CI's obs-smoke job): answers and reports must stay identical
    # while every submission records its span tree across the wire.
    overrides.setdefault(
        "tracing", os.environ.get("REPRO_TRACE", "") == "1"
    )
    overrides.setdefault("result_cache_size", 0)
    config = ServiceConfig(
        **DEPLOYMENTS[deployment],
        **overrides,
    )
    return QueryService(graph, config)


def ground_queries(graph) -> list[BGPQuery]:
    """Two variable-free single-pattern queries over *graph*: one whose
    triple is there (the answer is the one empty row) and one whose
    triple is not (no rows).  A zero-attribute relation is the shape
    every engine's row count must survive without a column to hold it."""
    s, p, o = min(graph)
    return [
        parse_query(f"SELECT * WHERE {{ {s} {p} {o} }}", name="ground-present"),
        parse_query(
            f"SELECT * WHERE {{ {s} {p} <no-such-object> }}", name="ground-absent"
        ),
    ]


#: canonicalization budget of a surface-parity service: enough for the
#: LUBM stars, too little for an automorphic query
PARITY_BUDGET = 2


#: one template, a university IRI for its constant
ALUMNI = (
    "SELECT ?x WHERE {{ ?x ub:undergraduateDegreeFrom {} . "
    "?x rdf:type ub:GraduateStudent }}"
)


def parity_queries() -> list[BGPQuery]:
    """The surface-parity workload: one cacheable LUBM query, one
    template bound to two constants, and one query whose automorphism
    (?a <-> ?b) takes it past ``PARITY_BUDGET`` — uncacheable."""
    return [
        lubm_queries.query("Q9"),
        parse_query(ALUMNI.format(lubm.university_iri(0)), name="alumni-0"),
        parse_query(ALUMNI.format(lubm.university_iri(3)), name="alumni-3"),
        parse_query(
            "SELECT ?a ?b WHERE { ?a ub:advisor ?c . ?b ub:advisor ?c }",
            name="same-advisor",
        ),
    ]


# -- expected answers ----------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    """Reference answer + report of one query."""

    name: str
    attrs: tuple[str, ...]
    rows: frozenset
    num_jobs: int
    job_signature: str
    levels: tuple[tuple[str, ...], ...]
    response_time: float
    total_work: float
    #: per job (name, map_time, reduce_time, overhead, map_only,
    #: tuples_shuffled, output_tuples, total_work), in report order
    jobs: tuple[tuple, ...]


def _report_fields(report: ExecutionReport) -> tuple:
    return (
        report.num_jobs,
        report.job_signature(),
        tuple(tuple(level) for level in report.levels),
        report.response_time,
        report.total_work,
        tuple(
            (
                j.name,
                j.map_time,
                j.reduce_time,
                j.overhead,
                j.map_only,
                j.tuples_shuffled,
                j.output_tuples,
                j.total_work,
            )
            for j in report.jobs
        ),
    )


def expected_of(name: str, outcome) -> Expected:
    """The answer and report of *outcome* (a service outcome or an
    executor's ``ExecutionResult``) as an expectation."""
    return _expected(name, outcome.attrs, outcome.rows, outcome.report)


def _expected(name: str, attrs, rows, report: ExecutionReport) -> Expected:
    num_jobs, signature, levels, rt, work, jobs = _report_fields(report)
    return Expected(
        name=name,
        attrs=attrs,
        rows=frozenset(rows),
        num_jobs=num_jobs,
        job_signature=signature,
        levels=levels,
        response_time=rt,
        total_work=work,
        jobs=jobs,
    )


#: the node count of a default service, which the reference runs at
NUM_NODES = ServiceConfig().num_nodes


def reference_answers(graph, queries, planned) -> dict[str, Expected]:
    """The reference for each of *queries* over *graph*, by name: the
    answer :func:`~repro.sparql.evaluator.evaluate` gives, and the
    report a bare serial ``PlanExecutor`` over *graph*'s unsharded store
    writes for the plan the query's *planned* outcome ran — the engine
    whose counters every cell's report must equal field by field.  Only
    the outcomes' plans are read: the optimizer's choice is the
    engine's input, not what the matrix checks (every cell must run the
    same plan: its job signature is compared)."""
    with PlanExecutor(partition_graph(graph, NUM_NODES), backend="serial") as serial:
        return {
            q.name: _expected(
                q.name,
                q.distinguished,
                evaluate(q, graph),
                serial.execute(outcome.plan).report,
            )
            for q, outcome in zip(queries, planned, strict=True)
        }


#: passes the submit surface makes over its queries as SPARQL text
#: (``str(q)``) after the pass over the query objects; the second is
#: all statement-cache hits
TEXT_PASSES = 2


def _run_pass(service: QueryService, queries, surface: str, text: bool):
    def sent(q: BGPQuery):
        return str(q) if text else q

    if surface == "submit":
        return [service.submit(sent(q), q.name) for q in queries]
    if surface == "prepare":
        outcomes = []
        for q in queries:
            try:
                outcomes.append(service.prepare(sent(q), q.name).bind().execute())
            except CanonicalizationBudgetExceeded:
                # No template to hold a handle on: prepare() sends such
                # a query to submit.
                outcomes.append(service.submit(sent(q), q.name))
        return outcomes
    if surface == "batch":
        return service.submit_batch([sent(q) for q in queries])
    raise ValueError(f"unknown surface {surface!r}")


def run_surface(
    service: QueryService, queries, surface: str, text_passes: int | None = None
) -> list[tuple[BGPQuery, QueryOutcome]]:
    """Submit *queries* through one of the service's three surfaces:
    once as query objects, then *text_passes* times as SPARQL text
    (default: ``TEXT_PASSES`` on the submit surface, none on the
    others).  A text pass after the first parses and canonicalizes
    nothing: each of its submissions is a statement-cache hit.  Returns
    (query, outcome) pairs in submission order."""
    if text_passes is None:
        text_passes = TEXT_PASSES if surface == "submit" else 0
    outcomes = _run_pass(service, queries, surface, text=False)
    for repeat in range(text_passes):
        misses = StatsSnapshot.read(service.registry).statement_misses
        outcomes += _run_pass(service, queries, surface, text=True)
        if repeat:
            misses = StatsSnapshot.read(service.registry).statement_misses - misses
            assert misses == 0, (surface, "statement misses on a repeat", misses)
    return list(zip(list(queries) * (1 + text_passes), outcomes, strict=True))


def assert_conforms(expected: Expected, outcome: QueryOutcome, where: str) -> None:
    """:func:`assert_result_conforms` for a service outcome, whose own
    job signature must agree too."""
    assert outcome.job_signature == expected.job_signature, where
    assert_result_conforms(expected, outcome, where)


def assert_result_conforms(expected: Expected, outcome, where: str) -> None:
    """Answer equality plus field-wise ExecutionReport consistency, for
    anything with ``attrs``, ``rows`` and ``report`` (a service outcome
    or an executor's ``ExecutionResult``).

    Transport/backend labels (``report.backend``, ``report.shards``,
    ``report.transport`` and the per-shard ``report.shard_*`` counts)
    are the *only* report fields allowed to differ across the matrix —
    they describe how the work ran, everything else describes the work
    itself and, one engine scheduling every cell, must equal the
    reference bit for bit.
    """
    assert outcome.attrs == expected.attrs, where
    assert frozenset(outcome.rows) == expected.rows, where
    num_jobs, signature, levels, rt, work, jobs = _report_fields(outcome.report)
    assert num_jobs == expected.num_jobs, where
    assert signature == expected.job_signature, where
    assert levels == expected.levels, where
    assert rt == expected.response_time, where
    assert work == expected.total_work, where
    assert len(jobs) == len(expected.jobs), where
    for mine, theirs in zip(jobs, expected.jobs):
        assert mine[0] == theirs[0], where  # job name
        assert mine[1] == theirs[1], where  # map_time
        assert mine[2] == theirs[2], where  # reduce_time
        assert mine[3] == theirs[3], where  # overhead
        assert mine[4] == theirs[4], where  # map_only
        assert mine[5] == theirs[5], where  # tuples_shuffled
        assert mine[6] == theirs[6], where  # output_tuples
        assert mine[7] == theirs[7], where  # total_work


#: the StatsSnapshot counters a submission moves
COUNTERS = (
    "submitted", "errors", "plan_hits", "plan_misses", "template_hits",
    "optimizer_runs", "result_hits", "result_misses", "coalesced", "rejected",
)

#: stages a PreparedQuery pays in prepare(), outside any submission: its
#: executes leave no such spans and count as template hits, not misses
PREPARE_TIME_SPANS = ("parse", "canonicalize", "optimize", "prepare")


@dataclass(frozen=True)
class Footprint:
    """What one surface run left behind besides its answers."""

    #: StatsSnapshot counter -> how far the run moved it
    counters: dict[str, int]
    #: span name -> occurrences, over every member's trace (empty when
    #: the service does not trace).  ``flight_wait`` is left out: whether
    #: a batch member meets its template's optimization in flight or in
    #: the cache is timing, not pipeline.
    spans: Counter

    def at_execute_time(self) -> "Footprint":
        """The footprint with prepare()'s share taken out, for
        comparing a surface that prepares with one that does not."""
        counters = dict(self.counters)
        counters["plan_misses"] += counters.pop("template_hits")
        spans = Counter(self.spans)
        for name in PREPARE_TIME_SPANS:
            spans.pop(name, None)
        return Footprint(counters, spans)


def assert_surface_conforms(
    service: QueryService,
    queries,
    reference: dict[str, Expected],
    surface: str,
    where: str = "",
    text_passes: int | None = None,
) -> Footprint:
    """Run one surface over *queries* (see :func:`run_surface`), check
    every outcome, and return the footprint of the run (see
    :func:`assert_one_pipeline`)."""
    # The registry's own view: snapshot_stats() would also probe every
    # rpc shard worker for gauges nobody reads here.
    before = StatsSnapshot.read(service.registry)
    runs = run_surface(service, queries, surface, text_passes)
    after = StatsSnapshot.read(service.registry)
    spans: Counter = Counter()
    #: a coalesced member carries its leader's trace: count it once
    seen: set[str] = set()
    for query, outcome in runs:
        assert not isinstance(outcome, BaseException), (where, surface, outcome)
        assert_conforms(
            reference[query.name], outcome, f"{where}/{surface}/{query.name}"
        )
        assert bool(outcome.trace_id) == service.config.tracing, (where, surface)
        if outcome.trace_id and outcome.trace_id not in seen:
            seen.add(outcome.trace_id)
            trace = service.trace(outcome)
            assert trace is not None, (where, surface, query.name)
            spans.update(s.name for s in trace.spans[1:] if s.name != "flight_wait")
    return Footprint(
        {name: getattr(after, name) - getattr(before, name) for name in COUNTERS},
        spans,
    )


def assert_one_pipeline(
    service: QueryService,
    queries,
    reference: dict[str, Expected],
    where: str = "",
) -> None:
    """The three surfaces are doors onto one pipeline: from the same
    cold caches they leave the same counters and the same spans.

    A warm-up pass first brings the deployment (the rpc connections'
    wire dictionaries) to the state every measured pass then starts
    from; the statement, plan and template caches are emptied before
    each pass.  ``submit_batch`` must match
    ``submit`` exactly; ``prepare`` matches it once prepare()'s own
    share — paid outside any submission — is taken out of both.  Every
    surface sends the queries as objects, then ``TEXT_PASSES`` times
    as text: the doors are one pipeline for text too, statement-cache
    misses and hits alike.
    """
    assert service.config.tracing and not service.config.result_cache_size, where
    run_surface(service, queries, "submit")
    footprints = {}
    for surface in SURFACES:
        service.statement_cache.clear()
        service.plan_cache.clear()
        service.template_cache.clear()
        footprints[surface] = assert_surface_conforms(
            service, queries, reference, surface, where, TEXT_PASSES
        )
    submit = footprints["submit"]
    sent = (1 + TEXT_PASSES) * len(queries)
    assert submit.counters["submitted"] == sent, where
    assert submit.spans["engine"] == sent, (where, submit.spans)
    assert footprints["batch"] == submit, (where, "batch")
    assert (
        footprints["prepare"].at_execute_time() == submit.at_execute_time()
    ), (where, "prepare")


# -- writes --------------------------------------------------------------------

#: the matrix's write batch: two new graduate students of existing
#: departments, so it writes the ub:memberOf files and the rdf:type
#: files of ub:GraduateStudent, nothing else
WRITES = (
    ("<ConformanceGrad0>", RDF_TYPE, "ub:GraduateStudent"),
    ("<ConformanceGrad0>", "ub:memberOf", "<Department0.University0>"),
    ("<ConformanceGrad1>", RDF_TYPE, "ub:GraduateStudent"),
    ("<ConformanceGrad1>", "ub:memberOf", "<Department1.University3>"),
)


def reads_writes(query: BGPQuery) -> bool:
    """Whether a scan of *query* reads a file ``WRITES`` is written to:
    a pattern of a written property, other than an ``rdf:type`` pattern
    naming another class, or a variable property (it reads every file)."""
    written = {p for _, p, _ in WRITES}
    classes = {o for _, p, o in WRITES if p == RDF_TYPE}
    for tp in query.patterns:
        if is_variable(tp.p):
            return True
        if tp.p in written and (
            tp.p != RDF_TYPE or is_variable(tp.o) or tp.o in classes
        ):
            return True
    return False


def write_twin(graph, deployment: str) -> QueryService:
    """A service for the write pass: the result cache on, over a copy
    of *graph* (the pass writes to the service's graph)."""
    return make_service(RDFGraph(graph), deployment, result_cache_size=256)


def run_writes(service: QueryService, queries) -> list[QueryOutcome]:
    """The write pass on a service with its result cache on: submit
    *queries* (objects, then text), give the service ``WRITES``, submit
    them again as text; returns the second outcomes.  Each of those is
    a statement-cache hit — a write leaves the statement cache alone.
    The service's graph is written to."""
    assert service.config.result_cache_size
    run_surface(service, queries, "submit")
    assert service.add_triples(WRITES) == len(WRITES)
    misses = StatsSnapshot.read(service.registry).statement_misses
    outcomes = [service.submit(str(q), q.name) for q in queries]
    assert StatsSnapshot.read(service.registry).statement_misses == misses
    return outcomes


def writes_reference(graph, queries) -> dict[str, Expected]:
    """The reference of every cell's write pass: the evaluator over a
    copy of *graph* (itself left as it is) given ``WRITES``, and the
    reports of the plans an unsharded write twin runs after the write
    (:func:`reference_answers`)."""
    with write_twin(graph, "unsharded") as planner:
        return reference_answers(planner.graph, queries, run_writes(planner, queries))


def assert_writes_conform(
    service: QueryService,
    queries,
    reference: dict[str, Expected],
    where: str = "",
) -> None:
    """After a write, answers equal *reference* (``writes_reference``),
    and a query is served from the result cache exactly when none of
    the files it reads was written: a write invalidates only the
    answers that read what it wrote."""
    outcomes = run_writes(service, queries)
    for query, outcome in zip(queries, outcomes):
        at = f"{where}/writes/{query.name}"
        assert_conforms(reference[query.name], outcome, at)
        assert outcome.result_cache_hit != reads_writes(query), at


def shuffled_rows(results) -> Counter:
    """The rows one job's map *results* shuffle, as one multiset per
    ``(partition, tag)``: where the rows land, whichever task of a task
    group carried them (blocks iterate as rows)."""
    return Counter(
        (partition, tag, row)
        for shuffle, _direct, _metrics in results
        for partition, tag, chunk in shuffle
        for row in chunk
    )


def task_outputs(results) -> list[tuple]:
    """Each map task's own part of its result: its direct output as a
    sorted row list, and its metrics."""
    return [(sorted(direct), metrics) for _shuffle, direct, metrics in results]


def rpc_executor(graph, shards: int = 2, **options) -> ShardedPlanExecutor:
    """A primed rpc ``ShardedPlanExecutor`` over *graph* (``NUM_NODES``
    nodes on *shards* shards) with *options* — the wire format and rpc
    modes a service does not set."""
    executor = ShardedPlanExecutor(
        shard_graph(graph, NUM_NODES, shards), transport="rpc", **options
    )
    executor.prime()
    return executor


def prepare_text(executor, text: str) -> PreparedPlan:
    """The first MSC plan of SPARQL *text*, prepared on *executor*."""
    return executor.prepare(cliquesquare(parse_query(text), MSC).plans[0])


def kill_worker(client) -> None:
    """SIGKILL a shard server process — and the process-pool children
    it forked, if any: they would outlive it, blocked on a queue nobody
    feeds any more, holding the test run's pipes open."""
    process = client.process
    children = [
        int(pid)
        for path in glob.glob(f"/proc/{process.pid}/task/*/children")
        for pid in Path(path).read_text().split()
    ]
    process.kill()
    process.join(timeout=10)
    for pid in children:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)


def assert_stateless_workers(service: QueryService, where: str = "") -> None:
    """The rpc cells' own claim: a shard worker holds its snapshot and
    nothing about plans, so nothing distinguishes the first execution
    of anything from the second.

    For a template, the same template under a new constant, and an
    ad-hoc plan through ``execute_plan``, the first execution ships
    exactly the frames the second does (and answers and reports alike).
    After a worker is killed the retried query conforms and the next
    one ships its usual frame count — a respawn restores the snapshot,
    there is no registry to resync.  And a bare ``TaskInvocation``
    batch, no prepared plan anywhere, runs over rpc like on any other
    backend: against ``SerialBackend`` over the unsharded store, which
    shares no code with a shard worker, its shuffled rows are equal per
    (partition, tag) — a task group ships them on its first task — and
    every task's metrics and direct output are equal.  Call it on a
    service no other thread is using, with the result cache off.
    """
    router = service.executor.router
    assert router.transport == "rpc" and not service.config.result_cache_size, where

    def first_as_second(run, what: str):
        first, second = run(), run()
        frames = first.report.shard_frames
        assert frames is not None and sum(frames) > 0, (where, what)
        assert frames == second.report.shard_frames, (where, what)
        assert first.rows == second.rows, (where, what)
        assert _report_fields(first.report) == _report_fields(second.report), (
            where, what,
        )
        return first

    alumni = [
        parse_query(ALUMNI.format(lubm.university_iri(i)), name=f"alumni-{i}")
        for i in (1, 2)
    ]
    usual = first_as_second(lambda: service.submit(alumni[0]), "template")
    rebound = first_as_second(lambda: service.submit(alumni[1]), "new constant")
    assert rebound.template_hit, where
    assert rebound.template_digest == usual.template_digest, where
    assert rebound.report.shard_frames == usual.report.shard_frames, where
    plan, _ = service.optimize(lubm_queries.query("Q9"))
    first_as_second(lambda: service.execute_plan(plan), "ad-hoc plan")

    expected = expected_of(alumni[0].name, usual)
    victim = router._clients[0]
    failures = router.shard_failures
    kill_worker(victim)
    assert_conforms(expected, service.submit(alumni[0]), f"{where}/retried")
    assert router.shard_failures == failures + 1, where
    assert router._clients[0] is not victim, where
    after = service.submit(alumni[0])
    assert_conforms(expected, after, f"{where}/after-respawn")
    assert after.report.shard_frames == usual.report.shard_frames, where

    num_nodes = service.executor.cluster.num_nodes
    snapshot = service.store.snapshot()
    spec = service.executor.prepare(plan).compiled.jobs[0]
    assert not spec.depends, where
    invocations = [
        TaskInvocation(task.spec, node=task.node)
        for task in job_from_spec(spec, num_nodes).map_tasks
    ]

    def run_on(backend, store) -> list:
        ctx = TaskContext(
            num_nodes=num_nodes, store=store, hdfs=HDFS(num_nodes=num_nodes)
        )
        with backend.execution(ctx, ExecutionReport()) as running:
            return backend.run(invocations, running)

    bare = run_on(router, snapshot)
    unsharded = partition_graph(service.graph, num_nodes).snapshot()
    with SerialBackend() as serial:
        reference = run_on(serial, unsharded)
    assert shuffled_rows(bare) == shuffled_rows(reference), where
    assert task_outputs(bare) == task_outputs(reference), where
    assert shuffled_rows(bare) or any(direct for _s, direct, _m in bare), where
    assert_replicas_equal_the_store(service, where)


# -- one id space ----------------------------------------------------------------


class _DictionaryProbe(MapTaskSpec):
    """A picklable map task returning its worker's dictionary replica as
    one cell that is not a string — so it crosses as the terms
    themselves, never as ids the driver would read in its own
    numbering."""

    def __init__(self, node: int) -> None:
        self.node = node

    def run(self, ctx):
        return [], [(tuple(ctx.store.dictionary),)], TaskMetrics()


def worker_dictionaries(service: QueryService) -> list[tuple[str, ...]]:
    """Each rpc shard worker's dictionary replica, term by term."""
    router = service.executor.router
    snapshot = service.store.snapshot()
    num_nodes = snapshot.num_nodes
    invocations = [
        TaskInvocation(_DictionaryProbe(node), node=node)
        for node in (
            snapshot.table.nodes_of_shard(shard)[0]
            for shard in range(snapshot.num_shards)
        )
    ]
    ctx = TaskContext(num_nodes=num_nodes, store=snapshot, hdfs=HDFS(num_nodes=num_nodes))
    with router.execution(ctx, ExecutionReport()) as running:
        results = router.run(invocations, running)
    return [direct[0][0] for _shuffle, direct, _metrics in results]


def worker_stats(router) -> list:
    """One ``StatsReply`` per shard, from ``router.worker_gauges()``:
    every shard's worker is live and answered its probe."""
    gauges = router.worker_gauges()
    assert [shard for shard, _ in gauges] == list(range(router.num_shards)), gauges
    assert all(reply is not None for _, reply in gauges), gauges
    return [reply for _, reply in gauges]


def assert_replicas_equal_the_store(service: QueryService, where: str = ""):
    """Every worker's dictionary equals ``service.store.dictionary``, in
    length (its ``Stats``) and in content (a probe task); returns the
    ``Stats`` replies."""
    dictionary = service.store.dictionary
    stats = worker_stats(service.executor.router)
    assert [reply.terms for reply in stats] == [len(dictionary)] * len(stats), where
    assert worker_dictionaries(service) == [tuple(dictionary)] * len(stats), where
    return stats


@contextlib.contextmanager
def chunks_received():
    """Every block the driver's codecs read out of a frame while the
    block is open."""
    from repro.columnar.wire import WireCodec

    seen: list = []
    real = WireCodec._view

    def view(self, ids, offset, count, attrs):
        block = real(self, ids, offset, count, attrs)
        seen.append(block)
        return block

    WireCodec._view = view
    try:
        yield seen
    finally:
        WireCodec._view = real


def one_shard_triples(store, shard: int, count: int = 2) -> list[tuple]:
    """*count* triples of fresh terms whose every placement lands on a
    node *shard* owns: a write that touches that shard only."""
    nodes = set(store.nodes_of_shard(shard))
    fresh = (f"<one-shard-{i}>" for i in itertools.count())
    terms = list(
        itertools.islice(
            (t for t in fresh if store.node_of(t) in nodes and t not in store.dictionary),
            3 * count,
        )
    )
    return [tuple(terms[i : i + 3]) for i in range(0, len(terms), 3)]


def assert_one_id_space(service: QueryService, queries, where: str = "") -> None:
    """The rpc cells' numbering claim, checked rather than assumed: the
    store numbers every term once and every worker computes in that
    numbering — at four moments: after warm-up, after an
    ``add_triples`` batch touching one shard only (the untouched shard
    gets the dictionary suffix and no new ``Prime``), after a killed
    worker respawns, and after a grow and a shrink.  At each, every
    worker's dictionary equals ``service.store.dictionary``, the driver
    receives blocks over it and over nothing else, and answers and
    reports equal :func:`reference_answers` over the service's graph as
    written so far (each query's reference runs the plan the service
    ran).  The service's graph is written to.
    """
    router = service.executor.router
    dictionary = service.store.dictionary

    def check(moment: str):
        at = f"{where}/{moment}"
        with chunks_received() as chunks:
            outcomes = [service.submit(query) for query in queries]
        reference = reference_answers(service.graph, queries, outcomes)
        for query, outcome in zip(queries, outcomes):
            assert_conforms(reference[query.name], outcome, f"{at}/{query.name}")
        blocks = [chunk for chunk in chunks if isinstance(chunk, ColumnBlock)]
        assert blocks and all(block.dictionary is dictionary for block in blocks), at
        return assert_replicas_equal_the_store(service, at)

    warm = check("warm")
    size = len(dictionary)
    writes = one_shard_triples(service.store, shard=0)
    assert service.add_triples(writes) == len(writes)
    assert len(dictionary) == size + 3 * len(writes), where
    written = check("one-shard write")
    assert written[0].primes == warm[0].primes + 1, where
    assert written[1].primes == warm[1].primes, where
    assert router._clients[1].terms_shipped >= 3 * len(writes), where

    failures = router.shard_failures
    kill_worker(router._clients[0])
    check("respawned")
    assert router.shard_failures == failures + 1, where

    assert service.rebalance(target_shards=3).new_shards == 3
    check("grown")
    assert service.rebalance(target_shards=2).new_shards == 2
    check("shrunk")


def assert_concurrent_conforms(
    run: Callable[[BGPQuery], object],
    queries,
    reference: dict[str, Expected],
    threads: int = 4,
    where: str = "",
) -> None:
    """The concurrent=N dimension: *threads* driver threads each *run*
    the full workload, rotated so different threads sit on different
    queries at any instant (a mixed concurrent load, not a stampede on
    one key), and every result must conform to the reference
    (:func:`assert_result_conforms`: *run* may be a service's submit or
    an executor running each query's prepared plan).
    """
    queries = list(queries)
    rotations = [
        queries[i % len(queries):] + queries[: i % len(queries)]
        for i in range(threads)
    ]
    results: list[object] = [None] * threads

    def drive(i: int) -> None:
        try:
            results[i] = [run(q) for q in rotations[i]]
        except BaseException as exc:  # surfaced by the main thread
            results[i] = exc

    workers = [
        threading.Thread(target=drive, args=(i,), name=f"conform-driver-{i}")
        for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=600)
    assert all(not w.is_alive() for w in workers), (where, "hung driver")
    for i, outcomes in enumerate(results):
        assert not isinstance(outcomes, BaseException), (where, i, outcomes)
        assert len(outcomes) == len(rotations[i]), (where, i)
        for query, outcome in zip(rotations[i], outcomes):
            assert_result_conforms(
                reference[query.name],
                outcome,
                f"{where}/concurrent{threads}:t{i}/{query.name}",
            )


def assert_rebalance_conforms(
    service: QueryService,
    queries,
    reference: dict[str, Expected],
    plan=(5, 3),
    threads: int = 4,
    where: str = "",
):
    """The rebalance dimension: answers invariant while the topology moves.

    *threads* driver threads keep the rotated workload continuously in
    flight while the main thread walks the shard count through *plan*
    (live grow/shrink migrations).  Every in-flight outcome — started
    before, during, or after a migration — must conform to the
    reference, and after each flip the main thread re-runs the full
    workload at the new epoch.  Returns the
    :class:`~repro.cluster.router.RebalanceReport` per step.
    """
    queries = list(queries)
    rotations = [
        queries[i % len(queries):] + queries[: i % len(queries)]
        for i in range(threads)
    ]
    stop = threading.Event()
    results: list[object] = [None] * threads

    def run(i: int) -> None:
        try:
            outcomes = []
            # Bounded: keep load on until every migration is done, but
            # never spin forever if the main thread dies first.
            while not stop.is_set() and len(outcomes) < 40 * len(queries):
                for query in rotations[i]:
                    outcomes.append((query.name, service.submit(query)))
            results[i] = outcomes
        except BaseException as exc:  # surfaced by the main thread
            results[i] = exc

    workers = [
        threading.Thread(target=run, args=(i,), name=f"rebalance-driver-{i}")
        for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    reports = []
    try:
        for target in plan:
            # Let the drivers get queries in flight against the current
            # epoch before moving it underneath them.
            time.sleep(0.05)
            report = service.rebalance(target_shards=target)
            reports.append(report)
            for query in queries:
                assert_conforms(
                    reference[query.name],
                    service.submit(query),
                    f"{where}/epoch{report.new_epoch}/{query.name}",
                )
    finally:
        stop.set()
    for worker in workers:
        worker.join(timeout=600)
    assert all(not w.is_alive() for w in workers), (where, "hung driver")
    for i, outcomes in enumerate(results):
        assert not isinstance(outcomes, BaseException), (where, i, outcomes)
        assert outcomes, (where, i, "driver made no progress")
        for name, outcome in outcomes:
            assert_conforms(
                reference[name], outcome, f"{where}/rebalance:t{i}/{name}"
            )
    return reports
