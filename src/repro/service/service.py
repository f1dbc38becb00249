"""The concurrent CliqueSquare query service.

A :class:`QueryService` is a long-lived serving layer over one
partitioned store (§5.1) that amortizes optimization across a workload.
Every door — ``submit``, ``BoundQuery.execute``, ``explain_analyze``,
each distinct member of a ``submit_batch``, ``CSQ.run`` — is a thin
caller of **one pipeline**, :meth:`QueryService._serve`::

    parse (if text) → admit → open the trace → instantiate (or mark
    uncacheable) → resolve: result cache / single-flight / plan +
    template caches → project → record stats and the slow ring → close

* *instantiate*: the query's liftable constants are extracted into a
  parameterized :class:`~repro.sparql.canonical.QueryTemplate` whose
  structure signature is constant-independent.  A query the
  canonicalizer gives up on is its own parameterless template with no
  cache key: same road, every cache and flight skipped.
* *resolve*: through the cache hierarchy of :mod:`repro.service.cache`
  — the optimizer+coster pipeline runs once per template and constants
  are late-bound into its compiled task specs — then execution under a
  readers–writer lock (queries read concurrently; :meth:`add_triples`
  and :meth:`rebalance` get exclusive access) on the configured
  :class:`~repro.mapreduce.backends.ExecutionBackend`, over a single
  store or (``ServiceConfig.shards``) the :mod:`repro.cluster` layer.
* *project / record*: the canonical-space answer is mapped back onto
  the query's own variables and the submission is counted in
  :class:`~repro.service.stats.ServiceStats`.

``ServiceConfig.max_inflight`` admission-controls the pipeline: beyond
that many concurrently executing submissions a door raises
:class:`ServiceOverloaded` instead of queueing without bound.  The
classic CSQ system (:mod:`repro.systems.csq`) is a thin session over
this service.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from operator import itemgetter
from typing import Callable, Iterator, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass

from repro.analysis.locks import ReadWriteLock, checked
from repro.cluster import ShardedPlanExecutor, ShardedStore, shard_graph
from repro.columnar.block import HAVE_NUMPY
from repro.columnar.wire import WIRE_FORMATS
from repro.core.algorithm import OptimizerResult, cost_bounded_search
from repro.core.decomposition import MSC, DecompositionOption
from repro.core.logical import LogicalPlan, rewrite_patterns
from repro.cost.cardinality import (
    CardinalityEstimator,
    CatalogStatistics,
    triple_delta,
)
from repro.cost.model import PlanCoster, select_best_plan
from repro.cost.params import DEFAULT_PARAMS, CostParams
from repro.mapreduce.backends import DEFAULT_RPC_PIPELINE, make_backend
from repro.mapreduce.counters import ExecutionReport
from repro.mapreduce.engine import ClusterConfig
from repro.obs.trace import (
    SpanRef,
    Trace,
    TraceSink,
    activate,
    record_remote,
    span,
    stage,
)
from repro.partitioning.triple_partitioner import partition_graph
from repro.physical.executor import ExecutionResult, PlanExecutor, PreparedPlan
from repro.physical.explain import explain as explain_plan
from repro.rdf.graph import RDFGraph
from repro.service.cache import (
    PlanCache,
    PlanEntry,
    ResultCache,
    ResultEntry,
    SingleFlight,
    TemplateCache,
    TemplateEntry,
)
from repro.service.stats import (
    QueryTimings,
    ServiceStats,
    ShardWorkerGauge,
    StatsSnapshot,
)
from repro.sparql.ast import BGPQuery
from repro.sparql.canonical import (
    CanonicalizationBudgetExceeded,
    QueryTemplate,
    extract_template,
)
from repro.sparql.parser import SparqlSyntaxError, parse_query
from repro.systems.base import SystemReport


class ServiceOverloaded(RuntimeError):
    """Raised when the service is at ``max_inflight`` and rejects work.

    Admission control: rejecting instantly at the door (instead of
    queueing without bound) keeps latency predictable under overload —
    the caller sees a typed error and can retry with backoff.  Rejected
    submissions are counted in ``snapshot_stats().rejected``.
    """


@dataclass
class ServiceConfig:
    """Deployment knobs for the query service."""

    num_nodes: int = 7
    option: DecompositionOption = MSC
    max_plans: int | None = 20_000
    timeout_s: float | None = 100.0
    params: CostParams = DEFAULT_PARAMS
    #: LRU capacity of the bound-plan cache (None = unbounded).  Keyed
    #: per *instance* (template + constants), so on constant-varying
    #: workloads it must stay bounded — a miss only re-binds the cached
    #: template (cheap), never re-optimizes.
    plan_cache_size: int | None = 1024
    #: LRU capacity of the result cache (0 disables result caching).
    result_cache_size: int | None = 256
    #: worker threads for submit_batch
    max_workers: int = 8
    #: task execution backend: "columnar" | "serial" | "thread" |
    #: "process" (or an ExecutionBackend instance).  The default is
    #: resolved from the platform: the id-space engine ("columnar", bulk
    #: numpy kernels over dictionary-encoded columns) where numpy is
    #: importable, "serial" otherwise.  SerialBackend is the reference
    #: every other backend is checked against (answers and field-wise
    #: reports, tests/conformance.py), not the fast path.  The pool
    #: backends serve the unsharded store only: "thread" runs a level's
    #: tasks on 4 threads; "process" fans them across one worker
    #: process per available CPU and, where process pools are
    #: unavailable, falls back to serial and records a warning in
    #: ServiceStats.  With shards >= 1 a pool backend is a ValueError.
    backend: str = "columnar" if HAVE_NUMPY else "serial"
    #: individualization budget of the canonicalizer
    canonical_budget: int = 4096
    #: lift constants into parameterized plan templates, so queries that
    #: differ only in constants share one optimizer run.  False keeps
    #: explicit $params working but degenerates the template signature
    #: to the classical constant-inclusive canonical signature (one
    #: optimization per constant combination) — the legacy behaviour,
    #: kept as an ablation/escape hatch.
    enable_templates: bool = True
    #: LRU capacity of the template cache (None = unbounded)
    template_cache_size: int | None = None
    #: number of store shards.  0 keeps the single in-process store; with
    #: N >= 1 the store's nodes are served by N shard workers behind a
    #: ShardRouter (repro.cluster; ownership is a node→shard table that
    #: QueryService.rebalance moves live): map levels run shard-local and
    #: the shuffle between map and reduce is the cross-shard exchange.
    #: Answers and reports are identical for any shard count.  A shard
    #: runs one inline engine: backend must be "serial" or "columnar".
    shards: int = 0
    #: how the shard workers are reached (requires ``shards >= 1``):
    #: "inproc" calls the one engine every shard shares in-process;
    #: "rpc" runs each shard as a long-lived server process behind
    #: repro.cluster.rpc — the worker holds its snapshot and one inline
    #: engine resident and nothing about plans: each level's task
    #: specs and exchange rows cross the localhost socket with the
    #: level.  A crashed worker is respawned (and the failed
    #: request retried) once; sustained failure raises a typed
    #: ShardUnavailable, counted in snapshot_stats().shard_failures.
    shard_transport: str = "inproc"
    #: row encoding of the rpc shard exchanges: "columnar" (default)
    #: ships map inputs, reduce exchange chunks and results as
    #: id buffers in the store's numbering, which every worker holds a
    #: replica of (repro.columnar.wire; id blocks cross without being
    #: decoded or translated where numpy is present); "pickle"
    #: keeps the original pickled tuple-list frames.  Answers and
    #: reports are identical either way; shard_bytes reports the
    #: encoded request sizes.  Ignored unless shard_transport="rpc".
    wire_format: str = "columnar"
    #: outstanding requests per shard rpc connection.  Each frame
    #: carries a request id; a per-connection reader thread matches
    #: replies to waiters, and each shard worker executes up to this
    #: many levels concurrently on a dispatch pool (state-mutating
    #: frames still serialize).  0 = serial request-response (one
    #: outstanding request at a time — the pre-multiplexing baseline).
    #: Ignored unless shard_transport="rpc".
    rpc_pipeline: int = DEFAULT_RPC_PIPELINE
    #: cross-query level coalescing: when > 0 (and coalesce_max_batch
    #: > 1), ExecuteLevels that concurrent queries dispatch to the same
    #: shard within this window are merged into one ExecuteBatch frame
    #: — one encode/send/recv per shard instead of one per query.
    #: Adds up to this much latency to a lone query's level; answers
    #: and reports are unchanged.  Ignored unless shard_transport="rpc".
    coalesce_window_ms: float = 0.0
    #: upper bound on levels merged into one ExecuteBatch frame
    #: (1 = coalescing off).  Ignored unless shard_transport="rpc".
    coalesce_max_batch: int = 1
    #: admission control: maximum concurrently executing submissions.
    #: Beyond it, submit/submit_batch/PreparedQuery.execute raise
    #: ServiceOverloaded instead of queueing.  None = unbounded.
    max_inflight: int | None = None
    #: record a wall-clock span tree per submission (parse/canonicalize/
    #: optimize/bind/execute, engine levels, and — under the rpc
    #: transport — per-shard RPC and worker spans) into the service's
    #: trace sink.  Off by default; the off path costs one contextvar
    #: read per span site.  :meth:`QueryService.explain_analyze` forces
    #: tracing for its own query regardless of this flag.
    tracing: bool = False
    #: submissions whose wall-clock ``total_s`` meets or exceeds this
    #: many seconds land in :meth:`QueryService.slow_queries` (a bounded
    #: ring) with their trace id when tracing was on.  None = disabled.
    slow_query_s: float | None = None


class _Admission:
    """``max_inflight`` as an object: a non-blocking pool of in-flight
    slots that counts what it turns away (``on_reject``)."""

    def __init__(
        self, limit: int | None, on_reject: Callable[[int], None]
    ) -> None:
        self.limit = limit
        self._slots = None if limit is None else threading.Semaphore(limit)
        self._on_reject = on_reject

    def admit(self, submissions: int = 1) -> int:
        """Reserve slots for *submissions* or reject them as a unit;
        returns the slots held, to hand back to :meth:`release`.

        A batch holds at most ``limit`` slots, so one larger than the
        limit stays admissible on an idle service (its thread pool
        bounds true concurrency anyway) — but never fewer than one:
        ``max_inflight=0`` must still reject.
        """
        if self._slots is None or submissions <= 0:
            return 0
        wanted = max(1, min(submissions, self.limit))
        for held in range(wanted):
            if not self._slots.acquire(blocking=False):
                self.release(held)
                self._on_reject(submissions)
                raise ServiceOverloaded(
                    f"service is at max_inflight={self.limit}; "
                    f"rejected {submissions} submission(s)"
                )
        return wanted

    def release(self, slots: int) -> None:
        if slots:
            self._slots.release(slots)


@dataclass
class _Answer:
    """A resolved instance in canonical variable space (shared by
    waiters): the entry the result cache holds, plus how it was come by
    — by default straight out of that cache, at no stage's cost."""

    #: never mutated: every outcome gets its own row set from ``_finish``
    entry: ResultEntry
    plan_hit: bool = True
    template_hit: bool = False
    result_hit: bool = True
    optimize_s: float = 0.0
    bind_s: float = 0.0
    execute_s: float = 0.0


@dataclass(frozen=True)
class _Instance:
    """One fully-bound instance of a template, ready to resolve.

    ``key`` is None for a query the canonicalizer gave up on: it is its
    own parameterless template, served with every cache and flight
    skipped.  ``entry`` is set when the instance comes from a live
    :class:`PreparedQuery` handle: even if the template cache has since
    evicted (or a mutation invalidated) the shared entry, the handle's
    own optimized template is used — a held prepared query never
    re-optimizes.
    """

    template: QueryTemplate
    values: tuple[str, ...]
    key: tuple | None
    entry: "TemplateEntry | None" = None
    #: the clock reads around canonicalization (it runs before the
    #: submission's trace is open; the pipeline records the span)
    canonicalized: tuple[float, float] | None = None


@dataclass
class QueryOutcome:
    """Everything the service knows about one submission.

    This is the one result object of the unified prepare/bind/execute
    surface: ``submit``, ``submit_batch``, ``PreparedQuery.execute`` and
    ``CSQ.run`` all produce it, and :meth:`to_report` derives the
    figure-benchmark :class:`~repro.systems.base.SystemReport` view from
    it — including cache/template provenance (which cache level served
    the submission, which template the plan came from, which parameter
    values were bound).
    """

    query: BGPQuery
    attrs: tuple[str, ...]
    rows: set[tuple]
    plan: LogicalPlan
    report: ExecutionReport
    job_signature: str
    plan_cache_hit: bool
    result_cache_hit: bool
    coalesced: bool
    cacheable: bool
    timings: QueryTimings
    graph_version: int
    #: the submission bound new constants into a cached template
    #: (optimizer skipped; bound-plan cache missed)
    template_hit: bool = False
    #: short digest of the template signature ("" for uncacheable queries)
    template_digest: str = ""
    #: (parameter name, bound constant) pairs, in slot order
    parameters: tuple[tuple[str, str], ...] = ()
    #: id of this submission's trace in ``QueryService.trace_sink``
    #: ("" when tracing was off for the submission)
    trace_id: str = ""

    @property
    def cardinality(self) -> int:
        return len(self.rows)

    @property
    def response_time(self) -> float:
        """Simulated cluster response time (not wall-clock)."""
        return self.report.response_time

    @property
    def num_jobs(self) -> int:
        return self.report.num_jobs

    @property
    def pwoc(self) -> bool:
        return self.job_signature == "M"

    @property
    def provenance(self) -> dict[str, object]:
        """Where this answer came from, for logging/tooling."""
        served_by = (
            "result-cache"
            if self.result_cache_hit
            else "plan-cache"
            if self.plan_cache_hit
            else "template"
            if self.template_hit
            else "optimizer"
        )
        return {
            "served_by": served_by,
            "template": self.template_digest,
            "parameters": self.parameters,
            "coalesced": self.coalesced,
            "graph_version": self.graph_version,
        }

    def to_report(self, system: str = "QueryService") -> SystemReport:
        return SystemReport(
            system=system,
            query_name=self.query.name or str(self.query),
            answers=self.rows,
            response_time=self.response_time,
            num_jobs=self.num_jobs,
            job_signature=self.job_signature,
            pwoc=self.pwoc,
            details={
                "plan": self.plan,
                "report": self.report,
                "outcome": self,
                "provenance": self.provenance,
            },
        )


class PreparedQuery:
    """A canonicalized-once, optimized-once handle on a query shape.

    Obtained from :meth:`QueryService.prepare`.  The query's liftable
    constants (and explicit ``$name`` placeholders) are parameters;
    :meth:`bind` supplies constants — positionally in query-text order,
    or by name — and :meth:`execute` runs a binding without ever
    re-entering the optimizer.  Lifted constants keep their original
    values as defaults, so ``prepare(q).execute()`` answers exactly like
    ``submit(q)``.
    """

    def __init__(
        self,
        service: "QueryService",
        template: QueryTemplate,
        entry: TemplateEntry,
        template_cache_hit: bool,
    ) -> None:
        self._service = service
        self.template = template
        self._entry = entry
        #: the template was already cached when this handle was prepared
        self.template_cache_hit = template_cache_hit

    # -- introspection -----------------------------------------------------

    @property
    def query(self) -> BGPQuery:
        """The source query this handle was prepared from."""
        return self.template.source

    @property
    def name(self) -> str:
        return self.template.source.name

    @property
    def params(self):
        """The template's parameter slots (canonical order)."""
        return self.template.params

    @property
    def param_names(self) -> tuple[str, ...]:
        """User-facing parameter names, in query-text occurrence order."""
        return self.template.param_names

    @property
    def signature(self) -> tuple:
        """The constant-independent template structure signature."""
        return self.template.signature

    def digest(self) -> str:
        return self.template.digest()

    @property
    def plan(self) -> LogicalPlan:
        """The template's cost-selected logical plan (placeholders)."""
        return self._entry.plan

    def __repr__(self) -> str:
        params = ", ".join(f"${n}" for n in self.param_names) or "no params"
        return (
            f"PreparedQuery({self.name or self.template.digest()}, {params})"
        )

    # -- the prepared surface ----------------------------------------------

    def bind(self, *args: str, **kwargs: str) -> "BoundQuery":
        """Bind constants to parameters; unbound lifted constants keep
        their original values.  Positional arguments follow query-text
        occurrence order; keywords use the parameter names (``$uni`` →
        ``uni=...``)."""
        names = self.param_names
        if len(args) > len(names):
            raise ValueError(
                f"{self!r} takes at most {len(names)} positional values, "
                f"got {len(args)}"
            )
        assigned: dict[str, str] = {}
        for name, value in zip(names, args):
            assigned[name] = value
        for name, value in kwargs.items():
            if name not in names:
                raise ValueError(
                    f"unknown parameter {name!r}; {self!r} has "
                    f"{', '.join(names) or 'none'}"
                )
            if name in assigned:
                raise ValueError(f"parameter {name!r} bound twice")
            assigned[name] = value
        values = list(self.template.default_values())
        for i, param in enumerate(self.template.params):
            if param.name in assigned:
                values[i] = assigned[param.name]
        checked = self.template.check_values(tuple(values))
        return BoundQuery(prepared=self, values=checked)

    def execute(self, *args: str, **kwargs: str) -> QueryOutcome:
        """``bind(...).execute()`` in one call."""
        return self.bind(*args, **kwargs).execute()

    def explain(self) -> str:
        """Template provenance plus the three-layer plan explanation."""
        t = self.template
        lines = [
            f"== template {t.digest()} "
            f"({len(t.params)} params; cached={self.template_cache_hit}) ==",
            str(t.query),
        ]
        for p in t.params:
            default = f" = {p.default}" if p.default is not None else ""
            lines.append(f"  {p.placeholder} <- ${p.name} [{p.kind}]{default}")
        e = self._entry
        lines.append(
            f"optimize_s {e.optimize_s:.6f}  plans {e.plan_count}  "
            f"pruned {e.pruned}" + ("  (truncated)" if e.truncated else "")
        )
        lines.append(self._service._explain_plan(e.plan, t.digest()))
        return "\n".join(lines)


@dataclass(frozen=True)
class BoundQuery:
    """A prepared query with every parameter bound: ready to execute."""

    prepared: PreparedQuery
    #: constants in canonical slot order
    values: tuple[str, ...]

    @property
    def query(self) -> BGPQuery:
        """The fully-bound query, in the source query's variable space."""
        return self.prepared.template.bind_source(self.values)

    @property
    def parameters(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (p.name, v)
            for p, v in zip(self.prepared.template.params, self.values)
        )

    def execute(self) -> QueryOutcome:
        """Run through the service's caches; never re-optimizes."""
        started = time.perf_counter()
        prepared = self.prepared
        inst = _Instance(
            template=prepared.template,
            values=self.values,
            key=prepared.template.instance_key(self.values),
            entry=prepared._entry,
        )
        return prepared._service._serve(
            self.query, inst=inst, started=started
        )[0]


class QueryService:
    """A concurrent, caching SPARQL-BGP query service over one store."""

    def __init__(self, graph: RDFGraph, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.graph = graph
        if self.config.shard_transport not in ("inproc", "rpc"):
            raise ValueError(
                f"unknown shard_transport {self.config.shard_transport!r}; "
                "expected 'inproc' or 'rpc'"
            )
        if self.config.shard_transport == "rpc" and not self.config.shards:
            raise ValueError(
                "shard_transport='rpc' requires shards >= 1 "
                "(the RPC boundary sits between router and shard workers)"
            )
        if self.config.wire_format not in WIRE_FORMATS:
            raise ValueError(
                f"unknown wire_format {self.config.wire_format!r}; "
                f"expected one of {WIRE_FORMATS}"
            )
        if self.config.rpc_pipeline < 0:
            raise ValueError(
                f"rpc_pipeline must be >= 0, got {self.config.rpc_pipeline}"
            )
        if self.config.coalesce_window_ms < 0:
            raise ValueError(
                "coalesce_window_ms must be >= 0, "
                f"got {self.config.coalesce_window_ms}"
            )
        if self.config.coalesce_max_batch < 1:
            raise ValueError(
                "coalesce_max_batch must be >= 1, "
                f"got {self.config.coalesce_max_batch}"
            )
        # Before the executor: its failure callbacks are bound to the
        # stats, not to the service — a service -> executor -> service
        # cycle would leave a closed service's stores to the cycle
        # collector instead of freeing them when the last reference goes.
        self.stats = ServiceStats()
        if self.config.shards:
            # Sharded deployment: one §5.1 store, each of N shard workers
            # serving the nodes the store's owner table assigns it.
            self.store = shard_graph(
                graph, self.config.num_nodes, self.config.shards
            )
            self.backend = None
            self.executor: PlanExecutor = ShardedPlanExecutor(
                self.store,
                ClusterConfig(num_nodes=self.config.num_nodes),
                self.config.params,
                backend=self.config.backend,
                transport=self.config.shard_transport,
                on_shard_failure=self.stats.record_shard_failure,
                wire_format=self.config.wire_format,
                rpc_pipeline=self.config.rpc_pipeline,
                coalesce_window_ms=self.config.coalesce_window_ms,
                coalesce_max_batch=self.config.coalesce_max_batch,
            )
        else:
            self.store = partition_graph(graph, self.config.num_nodes)
            self.backend = make_backend(
                self.config.backend, on_fallback=self.stats.record_warning
            )
            self.executor = PlanExecutor(
                self.store,
                ClusterConfig(num_nodes=self.config.num_nodes),
                self.config.params,
                backend=self.backend,
            )
        self.catalog = CatalogStatistics.from_graph(graph)
        self.estimator = CardinalityEstimator(self.catalog)
        self.coster = PlanCoster(self.estimator, self.config.params)
        self.plan_cache = PlanCache(self.config.plan_cache_size)
        self.template_cache = TemplateCache(self.config.template_cache_size)
        self.result_cache = ResultCache(self.config.result_cache_size)
        #: the one metrics registry of the service: ServiceStats keeps
        #: its counters/histograms here, and render_prometheus() syncs
        #: transport gauges into it at scrape time.
        self.registry = self.stats.registry
        #: bounded retention of completed query traces (tracing config
        #: knob or explain_analyze); export via export_chrome_trace().
        self.trace_sink = TraceSink()
        #: recent slow submissions (config.slow_query_s), oldest first.
        #: Advisory ring: appended per query, read racily by
        #: slow_queries() — deque append is atomic, never synchronized.
        self._slow_queries: deque = deque(maxlen=32)
        self._version = 0
        # Queries hold the read side while scanning the partitioned
        # store; add_triples and rebalance take the write side, so a
        # mutation never interleaves with a running scan.
        self._store_lock = ReadWriteLock("QueryService._store_lock")
        #: identical in-flight instances share one computation, and
        #: concurrent optimizations of one template share one search
        self._flights = SingleFlight()
        self._template_flights = SingleFlight()
        self._pool_lock = checked(threading.Lock(), "QueryService._pool_lock")
        self._pool: ThreadPoolExecutor | None = None  # guarded-by: _pool_lock
        # Written only under _pool_lock; read lock-free in _check_open as
        # a monotonic False -> True latch (and under the lock in
        # _ensure_pool, which is why _check_open itself cannot lock).
        self._closed = False
        #: encoded request bytes of the most recent rpc-sharded query
        #: (sum over shards) — surfaced by EXPLAIN's wire line.  Advisory:
        #: written per query, read racily by EXPLAIN, never synchronized.
        self._last_wire_bytes: int | None = None
        self._admission = _Admission(
            self.config.max_inflight, self.stats.record_rejection
        )
        # Start process workers (if any) before serving threads exist:
        # fork-based pools must not be created from a multithreaded
        # batch submission mid-flight.  With shards, every shard's pool
        # is primed against its own snapshot slice.
        self.executor.prime()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._pool_lock:
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            # The executor owns the execution backend (a sharded one's
            # router closes the shards' engine) and closing is
            # idempotent.
            self.executor.close()

    @property
    def sharded(self) -> bool:
        """Is the store sharded (``ServiceConfig.shards`` >= 1)?"""
        return isinstance(self.store, ShardedStore)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            self._check_open()
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.config.max_workers,
                    thread_name_prefix="repro-service",
                )
            return self._pool

    # -- reusable planning/execution steps (uncached) ----------------------

    def optimize(self, query: BGPQuery) -> tuple[LogicalPlan, OptimizerResult]:
        """CliqueSquare search bounded by the cost model + selection of
        the cheapest retained plan (the plan the exhaustive enumeration
        would select)."""
        result = cost_bounded_search(
            query,
            self.coster,
            self.config.option,
            max_plans=self.config.max_plans,
            timeout_s=self.config.timeout_s,
        )
        if not result.plans:
            raise ValueError(
                f"{self.config.option} produced no plan for {query.name or query}"
            )
        best, _ = select_best_plan(result.unique_plans(), self.coster)
        from repro.analysis.plan_check import check_plan_space, plans_checked

        if plans_checked():
            # Opt-in invariant mode: the retained space must still hold
            # a height-optimal plan (HO-partiality survives max_plans
            # truncation); the chosen plan itself is checked in prepare.
            check_plan_space(query, result)
        return best, result

    # -- the prepared-query surface ----------------------------------------

    def prepare(self, query: BGPQuery | str, name: str = "") -> "PreparedQuery":
        """Prepare a query once: canonicalize, extract its parameter
        template, optimize (or fetch the cached template), and return a
        :class:`PreparedQuery` to bind and execute many times.

        Constants already in the query become parameters with those
        constants as defaults; explicit ``$name`` placeholders become
        required parameters.  Raises
        :class:`~repro.sparql.canonical.CanonicalizationBudgetExceeded`
        for pathologically symmetric queries (serve those via
        :meth:`submit`, which takes them down the pipeline uncached).
        """
        self._check_open()
        parsed = self._parse(query, name)
        template = self._extract(parsed)
        entry, hit = self._template_entry(template)
        return PreparedQuery(
            service=self,
            template=template,
            entry=entry,
            template_cache_hit=hit,
        )

    def explain(self, query: BGPQuery | str, name: str = "") -> str:
        """Template signature + three-layer plan explanation of *query*."""
        return self.prepare(query, name).explain()

    def _explain_plan(self, plan: LogicalPlan, digest: str | None) -> str:
        """The three-layer explanation of *plan* as this deployment
        would run it: engine, shard map, transport and wire."""
        store = self.store
        config = self.config
        sharded = self.sharded
        # The engine the config resolves to (the default differs with
        # and without numpy), by its registered name either way.
        backend = (
            config.backend
            if isinstance(config.backend, str)
            else config.backend.name
        )
        rpc = sharded and config.shard_transport == "rpc"
        return explain_plan(
            plan,
            backend=backend,
            template=digest,
            shard_map=store.node_shards if sharded else None,
            shard_triples=store.triples_per_shard() if sharded else None,
            transport=config.shard_transport if sharded else None,
            rows="columnar" if backend == "columnar" else "tuple",
            wire=config.wire_format if rpc else None,
            wire_bytes=self._last_wire_bytes if rpc else None,
        )

    # -- legacy plan-level escape hatches ----------------------------------

    def execute_plan(self, plan: LogicalPlan) -> ExecutionResult:
        """Run an arbitrary logical plan under the store's read lock.

        Low-level escape hatch for hand-built plans (figure baselines);
        queries should go through prepare/bind/execute or submit.
        """
        return self.execute_prepared(self.executor.prepare(plan))

    def execute_prepared(self, prepared: PreparedPlan) -> ExecutionResult:
        """Run an already-prepared plan under the store's read lock."""
        with self._store_lock.read():
            return self.executor.execute_prepared(prepared)

    # -- mutation ----------------------------------------------------------

    @property
    def graph_version(self) -> int:
        return self._version

    def add_triples(self, triples) -> int:
        """Add triples to the live graph; returns the number of new ones.

        Bumps the graph version (lazily invalidating every cached
        result), maintains catalog statistics *incrementally* — the
        catalog is copied once per batch and a per-triple delta applied
        for each genuinely new triple, O(batch + |P|) instead of the
        former O(|G|) full recompute.  Cached plans stay: they are
        correct on any graph, only their cost ranking ages.
        """
        self._check_open()
        with self._store_lock.write():
            added = 0
            catalog: CatalogStatistics | None = None
            try:
                for triple in triples:
                    s, p, o = triple
                    # The delta must be probed before insertion (it asks
                    # "is this value new?"); None means the triple is
                    # already present and the graph won't change.
                    delta = triple_delta(self.graph, s, p, o)
                    if delta is None:
                        continue
                    self.graph.add(s, p, o)
                    if catalog is None:
                        catalog = self.catalog.copy()
                    catalog.apply_delta(delta)
                    self.store.add((s, p, o))
                    added += 1
            finally:
                # Even if a later triple is rejected mid-batch, whatever
                # was applied must invalidate cached results and refresh
                # the statistics — otherwise stale answers keep serving.
                if added:
                    self._version += 1
                    # Swap in a fresh catalog/estimator/coster trio
                    # rather than mutating in place: an optimize() racing
                    # this mutation keeps its consistent pre-mutation
                    # view and writes its memoized cardinalities into the
                    # discarded estimator, not the new one.
                    assert catalog is not None
                    self.catalog = catalog
                    self.estimator = CardinalityEstimator(self.catalog)
                    self.coster = PlanCoster(self.estimator, self.config.params)
                    self.stats.record_mutation()
                    # Rebuild a process worker pool (re-prime rpc shard
                    # workers) now, while the write lock quiesces every
                    # query thread: a fork-based pool must not be
                    # (re)created mid-batch from a pool thread, and the
                    # workers' store snapshot is stale anyway.  rpc
                    # re-primes only the shards the batch actually
                    # touched (snapshot tokens are per shard).
                    self.executor.prime()
        return added

    # -- topology ----------------------------------------------------------

    def rebalance(
        self,
        target_shards: int | None = None,
        moves: "Sequence[tuple[int, int, int]] | None" = None,
    ):
        """Move shard ownership live: grow, shrink, or shed skew.

        Requires a sharded deployment.  Pass *target_shards* for a
        minimal resize plan, or explicit ``(node, src, dst)`` *moves*
        (e.g. from :meth:`suggest_rebalance`).  The migration runs
        under the store's **write lock**: in-flight queries against the
        old epoch drain first, queries submitted meanwhile block, and
        both resume against the flipped table — answers are identical
        before, during and after.  Over the RPC transport only the
        moved nodes' file maps cross the wire; a mid-migration
        failure rolls the table back and raises typed, leaving the old
        topology serving.  Returns a
        :class:`~repro.cluster.router.RebalanceReport`.
        """
        self._check_open()
        if not self.sharded:
            raise ValueError(
                "rebalance requires a sharded deployment "
                "(ServiceConfig(shards=N))"
            )
        with self._trace("rebalance", time.perf_counter()):
            # Acquiring the write lock *is* the drain: it blocks until
            # every in-flight query (a reader) finishes and holds new
            # ones out until the table has flipped.
            with span("rebalance:drain"):
                lock = self._store_lock.write()
                lock.__enter__()
            try:
                with span(
                    "rebalance:migrate",
                    target_shards=-1 if target_shards is None else target_shards,
                ):
                    report = self.executor.rebalance(target_shards, moves)
            finally:
                lock.__exit__(None, None, None)
        # A move onto a shard the resize just created primes it; the
        # rest are deltas onto shards already serving.
        moved = len(report.moves)
        primed = sum(1 for _, _, dst in report.moves if dst >= report.old_shards)
        phases = {
            "plan": moved,
            "prime": primed,
            "delta": moved - primed,
            "flip": moved if report.new_epoch > report.old_epoch else 0,
        }
        self.stats.record_rebalance(phases)
        return report

    def suggest_rebalance(self, max_moves: int = 1):
        """A skew-shedding plan from live worker load, or ``()``.

        Feeds the RPC shard workers' ``tasks_run`` gauges (PR 9
        telemetry) into :func:`~repro.cluster.ownership.plan_skew`; without
        live gauges (inproc transport, cold fleet) it falls back to
        stored triples per shard.  The plan is advice — pass it to
        :meth:`rebalance` to act on it.
        """
        self._check_open()
        if not self.sharded:
            raise ValueError(
                "suggest_rebalance requires a sharded deployment "
                "(ServiceConfig(shards=N))"
            )
        load = {
            gauge.shard: float(gauge.tasks_run)
            for gauge in self._shard_worker_gauges()
            if not gauge.stale
        }
        return self.executor.suggest_rebalance(
            load=load or None, max_moves=max_moves
        )

    # -- serving -----------------------------------------------------------

    def submit(self, query: BGPQuery | str, name: str = "") -> QueryOutcome:
        """Answer one fully-bound query.

        Raises :class:`ServiceOverloaded` without doing any work when
        the service is already at ``max_inflight`` submissions.
        """
        return self._serve(query, name)[0]

    def _serve(
        self,
        query: BGPQuery | str,
        name: str = "",
        *,
        inst: _Instance | None = None,
        started: float | None = None,
        admitted: bool = False,
        force_trace: bool = False,
    ) -> tuple[QueryOutcome, _Answer]:
        """The one serving pipeline; every door is a thin caller.

        parse (if text) → admit → open the trace → instantiate, or mark
        uncacheable → resolve → project → record → close the trace.
        Callers that have already paid for a stage pass its product:
        a :class:`BoundQuery` and a batch leader their *inst*, a batch
        its own *started* (members measure submission-to-availability)
        and *admitted* (the batch was admitted as a unit).  The answer
        rides along for a batch to project its duplicates from.

        The trace is rooted at *started* and its root is the active
        contextvar span for everything below — down to RPC frames and
        shard-worker spans; stages that ran before it opened (parse,
        a batch's canonicalization) are recorded from their clock
        reads.  A pool thread serving a batch leader gets a trace of
        its own: the contextvar is per-thread.
        """
        self._check_open()
        if started is None:
            started = time.perf_counter()
        parsed = self._parse(query, name)
        parsed_at = time.perf_counter()
        if inst is None:
            self._reject_unbound(parsed)
        slots = 0 if admitted else self._admission.admit()
        try:
            with self._trace(
                parsed.name or "query", started, force_trace
            ) as ref:
                if inst is None:
                    inst = self._instantiate(parsed)
                trace_id = ""
                if ref is not None:
                    trace_id = ref.trace_id
                    ctx = ref.ctx()
                    if parsed is not query:
                        record_remote(ctx, "parse", started, parsed_at)
                    if inst.canonicalized is not None:
                        record_remote(ctx, "canonicalize", *inst.canonicalized)
                answer, coalesced = self._resolve(inst)
                outcome = self._finish(
                    parsed, inst, answer, coalesced, started, trace_id
                )
                return outcome, answer
        finally:
            self._admission.release(slots)

    @contextmanager
    def _trace(
        self, name: str, started: float, force: bool = False
    ) -> Iterator[SpanRef | None]:
        """The one trace bracket: when tracing is on (config or
        *force*), a trace rooted at *started* is open and active for
        the body, and its root is closed from the wall-clock total."""
        if not (force or self.config.tracing):
            yield None
            return
        ref = self.trace_sink.start_trace(name, epoch=started)
        try:
            with activate(ref):
                yield ref
        finally:
            self.trace_sink.finish_trace(
                ref.trace_id, time.perf_counter() - started
            )

    def _parse(self, query: BGPQuery | str, name: str = "") -> BGPQuery:
        """Parse a query string; every failure surfaces as a
        :class:`~repro.sparql.parser.SparqlSyntaxError` carrying the
        query *name*, and is recorded as a service error."""
        if isinstance(query, BGPQuery):
            return query
        try:
            return parse_query(query, name)
        except SparqlSyntaxError:
            self.stats.record_error()
            raise
        except ValueError as exc:
            self.stats.record_error()
            raise SparqlSyntaxError(str(exc), name=name) from exc

    def _reject_unbound(self, parsed: BGPQuery) -> None:
        unbound = parsed.placeholders()
        if unbound:
            self.stats.record_error()
            raise ValueError(
                f"query {parsed.name or parsed} has unbound parameters "
                f"{', '.join(unbound)}; prepare() it and bind them"
            )

    def _extract(self, parsed: BGPQuery) -> QueryTemplate:
        return extract_template(
            parsed,
            self.config.canonical_budget,
            lift_constants=self.config.enable_templates,
        )

    def _instantiate(self, parsed: BGPQuery) -> _Instance:
        """Template + default binding vector for a fully-bound query.

        A query past the canonicalization budget has no signature to
        share a cache entry under: it becomes its own parameterless
        template in its own variable space, with no key.
        """
        t0 = time.perf_counter()
        try:
            template = self._extract(parsed)
        except CanonicalizationBudgetExceeded:
            template = QueryTemplate(
                query=parsed,
                signature=(),
                params=(),
                mapping={v: v for v in parsed.variables()},
                source=parsed,
            )
            return _Instance(
                template, (), None, canonicalized=(t0, time.perf_counter())
            )
        values = template.check_values(template.default_values())
        return _Instance(
            template,
            values,
            template.instance_key(values),
            canonicalized=(t0, time.perf_counter()),
        )

    def submit_batch(
        self, queries, *, return_exceptions: bool = False
    ) -> list[QueryOutcome | BaseException]:
        """Answer many independent queries, concurrently.

        Queries sharing an instance key (same template, same constants)
        are *coalesced*: each distinct instance goes down the pipeline
        once, on the shared thread pool, and every duplicate is
        projected from its leader's answer; queries sharing only a
        *template* (same shape, different constants) still
        single-flight the optimizer — on a repeated workload mix a
        batch therefore does strictly less work than submitting its
        members one by one.

        Queries are independent, so with ``return_exceptions`` a failing
        member (parse error, planning error) yields its exception object
        in the result list instead of aborting the rest of the batch; by
        default the first failure propagates.

        Admission control treats the batch as one unit: it reserves one
        in-flight slot per member — capped at ``max_inflight``, so a
        batch larger than the limit is still admissible on an otherwise
        idle service (its internal thread pool bounds true concurrency
        anyway) — or the whole batch is rejected with
        :class:`ServiceOverloaded` (which always propagates —
        ``return_exceptions`` covers per-query failures, not refusal to
        start).

        Batch timings measure submission-to-availability: each member's
        ``total_s`` starts when the batch is submitted.  Under tracing a
        coalesced member carries its leader's ``trace_id``.
        """
        self._check_open()
        started = time.perf_counter()
        members: list[BGPQuery | BaseException] = []
        for q in queries:
            try:
                parsed = self._parse(q)
                self._reject_unbound(parsed)
                members.append(parsed)
            except ValueError as exc:
                if not return_exceptions:
                    raise
                members.append(exc)
        if not members:
            return []
        slots = self._admission.admit(
            sum(1 for m in members if isinstance(m, BGPQuery))
        )
        try:
            pool = self._ensure_pool()
            #: instance key -> the pipeline run of the first member with it
            leaders: dict[tuple, Future] = {}
            #: per member: its exception, or (query, instance, run, leads it)
            runs: list = []
            for member in members:
                if isinstance(member, BaseException):
                    runs.append(member)
                    continue
                inst = self._instantiate(member)
                run = None if inst.key is None else leaders.get(inst.key)
                leads = run is None
                if leads:
                    run = pool.submit(
                        self._serve, member,
                        inst=inst, started=started, admitted=True,
                    )
                    if inst.key is not None:
                        leaders[inst.key] = run
                runs.append((member, inst, run, leads))
            outcomes: list[QueryOutcome | BaseException] = []
            for item in runs:
                if isinstance(item, BaseException):
                    outcomes.append(item)
                    continue
                query, inst, run, leads = item
                try:
                    outcome, answer = run.result()
                except Exception as exc:
                    # Whoever computed already recorded the error.
                    if not return_exceptions:
                        raise
                    outcomes.append(exc)
                    continue
                if not leads:
                    outcome = self._finish(
                        query, inst, answer, True, started, outcome.trace_id
                    )
                outcomes.append(outcome)
            return outcomes
        finally:
            self._admission.release(slots)

    def snapshot_stats(self) -> StatsSnapshot:
        return self.stats.snapshot(
            self._version,
            templates_cached=len(self.template_cache),
            shard_workers=self._shard_worker_gauges(),
        )

    def _shard_worker_gauges(self) -> tuple[ShardWorkerGauge, ...]:
        """Load gauges of the RPC shard workers (best-effort: a shard
        never spawned or already reaped is absent; a worker whose probe
        failed mid-flight — dead, mid-respawn — surfaces as a *stale*
        gauge rather than silently disappearing or raising)."""
        try:
            probes = self.executor.backend.worker_gauges()
        except Exception:
            return ()
        return tuple(
            ShardWorkerGauge.from_reply(shard, reply) for shard, reply in probes
        )

    # -- observability surfaces --------------------------------------------

    def explain_analyze(self, query: BGPQuery | str, name: str = "") -> str:
        """Run *query* with tracing forced on; render plan + span tree.

        The EXPLAIN section shows the plan the submission ran (an
        uncacheable query's included); the trace
        section shows where the wall-clock actually went — driver
        stages (parse/canonicalize/optimize/bind/execute), engine
        levels, and (under the rpc transport) per-shard RPC spans with
        the workers' own queue-wait/lock-wait/bind/execute/encode
        breakdown shipped back on the replies.  The trace stays in
        ``trace_sink`` for :meth:`export_chrome_trace`.
        """
        outcome, _ = self._serve(query, name, force_trace=True)
        sections = [
            self._explain_plan(outcome.plan, outcome.template_digest or None)
        ]
        trace = self.trace_sink.get(outcome.trace_id)
        if trace is not None:
            sections.append(f"== trace {trace.trace_id} ==\n{trace.render()}")
        return "\n\n".join(sections)

    def trace(self, outcome: QueryOutcome) -> Trace | None:
        """The recorded span tree of *outcome* — None when tracing was
        off for the submission or the sink has since evicted it."""
        return self.trace_sink.get(outcome.trace_id)

    def export_chrome_trace(
        self, path: str, trace_ids: "list[str] | None" = None
    ) -> int:
        """Write retained traces (default: all) as Chrome trace-event
        JSON for chrome://tracing / ui.perfetto.dev; returns the event
        count written."""
        return self.trace_sink.export_chrome_trace(path, trace_ids)

    def slow_queries(self) -> list[dict]:
        """The most recent submissions at or over
        ``ServiceConfig.slow_query_s`` (bounded ring, oldest first)."""
        return list(self._slow_queries)

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the service's registry.

        Service counters and latency histograms are recorded on the hot
        path; transport-side gauges (shard worker load, driver wire
        counters, trace retention) are synced in here, at scrape time,
        so frames never pay a registry write.
        """
        registry = self.registry
        registry.gauge(
            "repro_traces_retained", "Completed traces held by the sink."
        ).set(len(self.trace_sink.trace_ids()))
        caches = registry.gauge(
            "repro_cache_entries",
            "Entries per service cache.",
            labels=("cache",),
        )
        caches.labels(cache="plan").set(len(self.plan_cache))
        caches.labels(cache="template").set(len(self.template_cache))
        caches.labels(cache="result").set(len(self.result_cache))
        workers = registry.gauge(
            "repro_shard_worker",
            "Point-in-time RPC shard worker load (stale=1: probe failed).",
            labels=("shard", "field"),
        )
        for gauge in self._shard_worker_gauges():
            readings = asdict(gauge)
            shard = str(readings.pop("shard"))
            if gauge.stale:
                readings = {"stale": True}
            for name, value in readings.items():
                workers.labels(shard=shard, field=name).set(float(value))
        try:
            wire = self.executor.backend.wire_stats()
        except Exception:
            wire = []
        link = registry.gauge(
            "repro_shard_wire",
            "Driver-side transport counters per shard connection.",
            labels=("shard", "field"),
        )
        for shard, stats in wire:
            for name, value in stats.items():
                link.labels(shard=str(shard), field=name).set(float(value))
        return registry.render_prometheus()

    # -- internals ---------------------------------------------------------

    def _resolve(self, inst: _Instance) -> tuple[_Answer, bool]:
        """Answer a bound instance, via caches and single-flight (or,
        without a key, by computing it outright).  Returns ``(answer,
        coalesced)``; ``coalesced`` is True for a flight's waiters."""
        if inst.key is None:
            return self._compute(inst), False
        while True:
            entry = self.result_cache.get_current(inst.key, self._version)
            if entry is not None:
                return _Answer(entry), False
            answer, reused = self._flights.run(
                inst.key, lambda: self._compute(inst)
            )
            if reused and answer.entry.version != self._version:
                # The flight predates a mutation that committed after we
                # joined; its rows are stale for us. Recompute at the
                # current version instead of serving them.
                continue
            return answer, reused

    def _template_entry(
        self,
        template: QueryTemplate,
        seed: TemplateEntry | None = None,
        cacheable: bool = True,
    ) -> tuple[TemplateEntry, bool]:
        """The optimized-once entry for *template* (single-flight).

        Returns ``(entry, hit)``; ``hit`` is True when the caller did
        not pay for the optimization (cache hit, another thread's
        in-flight optimization, or a caller-held *seed* entry from a
        live PreparedQuery whose template the cache has since dropped —
        the seed is used directly, without resurrecting it into the
        shared cache, so mutation-triggered invalidation stays
        effective for everyone else).  An uncacheable query's template
        is built for it alone.
        """
        if not cacheable:
            return self._build_template_entry(template), False
        entry = self.template_cache.get(template.signature)
        if entry is not None:
            return entry, True
        if seed is not None:
            return seed, True

        def build() -> TemplateEntry:
            # Cached before the flight closes: a latecomer finds one or
            # the other, never neither.
            built = self._build_template_entry(template)
            self.template_cache.put(template.signature, built)
            return built

        return self._template_flights.run(template.signature, build)

    def _build_template_entry(self, template: QueryTemplate) -> TemplateEntry:
        """Optimize a template once and prepare its parameterized plan.

        Plan selection *sniffs* the extracting query's own constants
        (classical prepared-statement parameter sniffing): the optimizer
        and cost model see exactly the query that would have been
        optimized without templates, and the chosen plan is then lifted
        back to placeholder form.  When sniffing is impossible (explicit
        placeholders without defaults, or constant-collapsed duplicate
        patterns) the template itself is optimized, costing placeholders
        like average-selectivity constants.
        """
        self.stats.record_optimizer_run()
        with stage("optimize") as optimize:
            defaults = template.default_values()
            plan: LogicalPlan | None = None
            if template.arity and all(v is not None for v in defaults):
                values = tuple(defaults)  # type: ignore[arg-type]
                bound_query = template.bind_canonical(values)
                # Bound pattern -> template pattern, to lift the chosen
                # plan back to placeholder form.  Binding may collapse
                # two distinct template patterns into one (duplicate
                # patterns modulo constants) — the optimizer would then
                # plan only one of them, so fall back to optimizing the
                # template directly.
                pairs: dict = {}
                collapse = False
                for btp, ttp in zip(bound_query.patterns, template.query.patterns):
                    if btp in pairs and pairs[btp] != ttp:
                        collapse = True
                        break
                    pairs.setdefault(btp, ttp)
                if not collapse:
                    bound_plan, optimizer = self.optimize(bound_query)
                    plan = LogicalPlan(
                        root=rewrite_patterns(
                            bound_plan.root, lambda tp: pairs[tp]
                        ),
                        query=template.query,
                    )
            if plan is None:
                plan, optimizer = self.optimize(template.query)
            prepared = self.executor.prepare(plan)
            optimize.set(
                plans=optimizer.plan_count,
                pruned=optimizer.pruned,
                truncated=optimizer.truncated,
            )
        return TemplateEntry(
            plan=plan,
            prepared=prepared,
            optimize_s=optimize.seconds,
            plan_count=optimizer.plan_count,
            pruned=optimizer.pruned,
            truncated=optimizer.truncated,
        )

    def _compute(self, inst: _Instance) -> _Answer:
        """Plan (from the caches when the instance has a key), bind,
        execute.  Whoever computes records the error a failure is."""
        cacheable = inst.key is not None
        try:
            entry = self.plan_cache.get(inst.key) if cacheable else None
            plan_hit = entry is not None
            template_hit = False
            optimize_s = bind_s = 0.0
            if entry is None:
                tentry, template_hit = self._template_entry(
                    inst.template, inst.entry, cacheable
                )
                with stage("bind", template_hit=template_hit) as bind:
                    prepared = tentry.prepared.bind(
                        inst.template.substitution(inst.values)
                    )
                bind_s = bind.seconds
                if not template_hit:
                    optimize_s = tentry.optimize_s
                entry = PlanEntry(
                    plan=prepared.plan,
                    prepared=prepared,
                    plan_count=tentry.plan_count,
                    truncated=tentry.truncated,
                )
                if cacheable:
                    self.plan_cache.put(inst.key, entry)
            # The wait for the read side is part of the stage.
            with stage("execute", plan_hit=plan_hit) as execute:
                with self._store_lock.read():
                    version = self._version
                    result = self.executor.execute_prepared(entry.prepared)
        except BaseException:
            self.stats.record_error()
            raise
        found = ResultEntry(
            version=version,
            attrs=result.attrs,
            rows=result.rows,
            plan=entry.plan,
            report=result.report,
            job_signature=result.job_signature(),
        )
        if cacheable:
            self.result_cache.put(inst.key, found)
        return _Answer(
            found,
            plan_hit=plan_hit,
            template_hit=template_hit,
            result_hit=False,
            optimize_s=optimize_s,
            bind_s=bind_s,
            execute_s=execute.seconds,
        )

    def _finish(
        self,
        query: BGPQuery,
        inst: _Instance,
        answer: _Answer,
        coalesced: bool,
        started: float,
        trace_id: str,
    ) -> QueryOutcome:
        """The pipeline's tail: map a canonical-space answer back onto
        *query*'s variables, then count the submission (stats, slow
        ring).  A batch calls it for the duplicates of a leader."""
        entry = answer.entry
        mapping = inst.template.mapping
        index = [entry.attrs.index(mapping[v]) for v in query.distinguished]
        if index == list(range(len(entry.attrs))):
            rows = set(entry.rows)
        elif len(index) == 1:
            rows = set(zip(map(itemgetter(index[0]), entry.rows)))
        else:
            rows = set(map(itemgetter(*index), entry.rows))
        cacheable = inst.key is not None
        canonicalized = inst.canonicalized
        timings = QueryTimings(
            canonicalize_s=(
                0.0
                if canonicalized is None
                else canonicalized[1] - canonicalized[0]
            ),
            optimize_s=answer.optimize_s,
            bind_s=answer.bind_s,
            execute_s=answer.execute_s,
            total_s=time.perf_counter() - started,
        )
        outcome = QueryOutcome(
            query=query,
            attrs=tuple(query.distinguished),
            rows=rows,
            plan=entry.plan,
            report=entry.report,
            job_signature=entry.job_signature,
            plan_cache_hit=answer.plan_hit,
            result_cache_hit=answer.result_hit,
            coalesced=coalesced,
            cacheable=cacheable,
            timings=timings,
            graph_version=entry.version,
            template_hit=answer.template_hit,
            template_digest=inst.template.digest() if cacheable else "",
            parameters=tuple(
                (p.name, v)
                for p, v in zip(inst.template.params, inst.values)
            ),
            trace_id=trace_id,
        )
        if entry.report.shard_bytes is not None:
            self._last_wire_bytes = sum(entry.report.shard_bytes)
        self.stats.record_query(
            timings,
            plan_hit=answer.plan_hit,
            result_hit=answer.result_hit,
            template_hit=answer.template_hit,
            coalesced=coalesced,
        )
        limit = self.config.slow_query_s
        if limit is not None and timings.total_s >= limit:
            self._slow_queries.append(
                {
                    "query": query.name or str(query),
                    "total_s": timings.total_s,
                    "execute_s": timings.execute_s,
                    "rows": len(rows),
                    "served_by": outcome.provenance["served_by"],
                    "trace_id": trace_id,
                }
            )
        return outcome
