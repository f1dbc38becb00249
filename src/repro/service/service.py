"""The concurrent CliqueSquare query service.

A :class:`QueryService` is a long-lived serving layer over one
partitioned store (§5.1) that amortizes optimization across a workload.
Its native currency is the *prepared query*: every submission — ad-hoc
``submit``, ``submit_batch``, ``CSQ.run``, or an explicit
:meth:`QueryService.prepare` — routes through one
**prepare → bind → execute** pipeline:

* *prepare*: the query's liftable constants are extracted into a
  parameterized :class:`~repro.sparql.canonical.QueryTemplate` whose
  structure signature is constant-independent; the optimizer+coster
  pipeline runs once per template and its prepared (translated +
  compiled) plan is memoized in a
  :class:`~repro.service.cache.TemplateCache`.  Queries that differ only
  in constants — the dominant repetition pattern of production SPARQL
  workloads — therefore trigger exactly one optimizer invocation.
* *bind*: concrete constants are late-bound into the template's
  compiled task specs (the selection predicates inside
  ``ChainMapSpec``/``MapOnlySpec`` chains) without re-planning; bound
  plans are memoized per instance in a
  :class:`~repro.service.cache.PlanCache`, and fully-bound answers in an
  LRU :class:`~repro.service.cache.ResultCache` invalidated by a graph
  version counter whenever triples are added.
* *execute*: runs under a readers–writer lock (any number of queries
  read concurrently; :meth:`add_triples` gets exclusive access) on a
  pluggable :class:`~repro.mapreduce.backends.ExecutionBackend`
  (``ServiceConfig.backend``): by default the id-space engine
  (``"columnar"``) where numpy imports and ``"serial"`` where it does
  not; ``"process"`` fans each query's map/reduce tasks out across
  worker processes — with automatic serial fallback (recorded as a
  stats warning) where pools are unavailable.
  A process pool receives each template once and only small binding
  substitutions after it.

:meth:`QueryService.submit_batch` schedules independent queries on a
shared thread pool and *coalesces* duplicates: queries with the same
instance key execute once and fan their answer out, and queries sharing
only a template single-flight the optimization.  Every submission is
recorded in :class:`~repro.service.stats.ServiceStats`, which breaks
plan-level outcomes into full plan-cache hits, template hits, and cold
optimizations.

The classic CSQ system (:mod:`repro.systems.csq`) is a thin session over
this service.  Two deployment knobs scale it out and keep it stable
under load:

* ``ServiceConfig.shards=N`` replaces the single store with the
  :mod:`repro.cluster` distribution layer — N shard workers each hold a
  slice of the §5.1 layout, a shard router behind the one MapReduce
  engine runs each task on the shard owning its node (map levels
  shard-local, a cross-shard exchange at the shuffle), and shards
  receive a template once with per-query bindings after it.  Answers
  and reports are identical for any shard count.
* ``ServiceConfig.max_inflight=K`` admission-controls the service:
  beyond K concurrently executing submissions, ``submit`` /
  ``submit_batch`` / ``PreparedQuery.execute`` raise
  :class:`ServiceOverloaded` instead of queueing without bound.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from operator import itemgetter
from typing import AbstractSet, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

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
    Trace,
    TraceSink,
    activate,
    current_ref,
    record_remote,
    span,
    trace_ctx,
)
from repro.partitioning.triple_partitioner import partition_graph
from repro.physical.executor import ExecutionResult, PlanExecutor, PreparedPlan
from repro.physical.explain import explain as explain_plan
from repro.rdf.graph import RDFGraph, Triple
from repro.service.cache import (
    PlanCache,
    PlanEntry,
    ResultCache,
    ResultEntry,
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
    #: reports, tests/conformance.py), not the fast path.  "process"
    #: fans the map/reduce tasks of each query across worker processes;
    #: where process pools are unavailable it falls back to serial and
    #: records a warning in ServiceStats.
    backend: str = "columnar" if HAVE_NUMPY else "serial"
    #: workers for the thread/process execution backend (None = auto:
    #: 4 threads, or one process per available CPU)
    backend_workers: int | None = None
    #: individualization budget of the canonicalizer
    canonical_budget: int = 4096
    #: drop cached plans when the graph (hence statistics) changes
    invalidate_plans_on_mutation: bool = False
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
    #: N >= 1 the store is hash-partitioned across N shard workers behind
    #: a ShardRouter (repro.cluster): map levels run shard-local and
    #: the shuffle between map and reduce is the cross-shard exchange.
    #: Answers and reports are identical for any shard count.  With backend="process" every shard gets a worker
    #: pool of its own (backend_workers is split across shards).
    shards: int = 0
    #: width of the slot ring behind the sharded store's node→shard map
    #: (repro.cluster.slots).  Nodes hash onto ``max(slots, num_nodes)``
    #: slots and a versioned SlotTable maps slots to shards, so
    #: :meth:`QueryService.rebalance` can grow/shrink/deskew the
    #: topology by moving slot ownership — answers are invariant across
    #: every table version.  Ignored unless ``shards >= 1``.
    slots: int = 64
    #: how the shard workers are reached (requires ``shards >= 1``):
    #: "inproc" calls per-shard execution backends in-process; "rpc"
    #: runs each shard as a long-lived server process behind
    #: repro.cluster.rpc — the worker holds its snapshot, registered
    #: templates and a local backend resident, and per query only bound
    #: constant vectors, level metadata and exchange rows cross the
    #: localhost socket.  A crashed worker is respawned (and the failed
    #: request retried) once; sustained failure raises a typed
    #: ShardUnavailable, counted in snapshot_stats().shard_failures.
    shard_transport: str = "inproc"
    #: row encoding of the rpc shard exchanges: "columnar" (default)
    #: ships map inputs, reduce exchange chunks and results as
    #: dictionary-encoded id buffers plus a delta of terms the worker's
    #: resident snapshot doesn't hold (repro.columnar.wire; id blocks
    #: cross without being decoded where numpy is present); "pickle"
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


@dataclass
class _Answer:
    """A resolved query in canonical variable space (shared by waiters)."""

    attrs: tuple[str, ...]
    #: the executor's answer set itself, never mutated: every outcome
    #: gets its own copy from ``_project``
    rows: AbstractSet[tuple]
    plan: LogicalPlan
    report: ExecutionReport
    job_signature: str
    plan_hit: bool
    template_hit: bool
    result_hit: bool
    optimize_s: float
    execute_s: float
    bind_s: float
    version: int


@dataclass
class _Flight:
    """Single-flight slot: first submitter computes, the rest wait."""

    done: threading.Event = field(default_factory=threading.Event)
    value: object | None = None
    error: BaseException | None = None


@dataclass(frozen=True)
class _Instance:
    """One fully-bound instance of a template, ready to resolve.

    ``entry`` is set when the instance comes from a live
    :class:`PreparedQuery` handle: even if the template cache has since
    evicted (or a mutation invalidated) the shared entry, the handle's
    own optimized template is used — a held prepared query never
    re-optimizes.
    """

    template: QueryTemplate
    values: tuple[str, ...]
    key: tuple
    entry: "TemplateEntry | None" = None


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
        store = self._service.store
        config = self._service.config
        sharded = isinstance(store, ShardedStore)
        # The engine the config resolves to (the default differs with
        # and without numpy), by its registered name either way.
        backend = (
            config.backend
            if isinstance(config.backend, str)
            else config.backend.name
        )
        rpc = sharded and config.shard_transport == "rpc"
        lines.append(
            explain_plan(
                self._entry.plan,
                backend=backend,
                template=t.digest(),
                shard_map=store.node_shards if sharded else None,
                shard_triples=store.triples_per_shard() if sharded else None,
                transport=config.shard_transport if sharded else None,
                rows="columnar" if backend == "columnar" else "tuple",
                wire=config.wire_format if rpc else None,
                wire_bytes=self._service._last_wire_bytes if rpc else None,
            )
        )
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

    @property
    def instance_key(self) -> tuple:
        return self.prepared.template.instance_key(self.values)

    def execute(self) -> QueryOutcome:
        """Run through the service's caches; never re-optimizes."""
        return self.prepared._service._execute_bound(self)


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
        if self.config.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.config.slots}")
        # Before the executor: its failure callbacks are bound to the
        # stats, not to the service — a service -> executor -> service
        # cycle would leave a closed service's stores to the cycle
        # collector instead of freeing them when the last reference goes.
        self.stats = ServiceStats()
        if self.config.shards:
            # Sharded deployment: N shard workers each hold one slice of
            # the §5.1 layout; the global catalog is aggregated from the
            # shards' placement-disjoint local statistics.
            self.store = shard_graph(
                graph,
                self.config.num_nodes,
                self.config.shards,
                slots=self.config.slots,
            )
            self.catalog = self.store.aggregate_statistics()
            self.backend = None
            self.executor: PlanExecutor | ShardedPlanExecutor = (
                ShardedPlanExecutor(
                    self.store,
                    ClusterConfig(num_nodes=self.config.num_nodes),
                    self.config.params,
                    backend=self.config.backend,
                    backend_workers=self.config.backend_workers,
                    on_fallback=self.stats.record_warning,
                    transport=self.config.shard_transport,
                    on_shard_failure=self.stats.record_shard_failure,
                    wire_format=self.config.wire_format,
                    rpc_pipeline=self.config.rpc_pipeline,
                    coalesce_window_ms=self.config.coalesce_window_ms,
                    coalesce_max_batch=self.config.coalesce_max_batch,
                )
            )
        else:
            self.store = partition_graph(graph, self.config.num_nodes)
            self.catalog = CatalogStatistics.from_graph(graph)
            self.backend = make_backend(
                self.config.backend,
                num_workers=self.config.backend_workers,
                on_fallback=self.stats.record_warning,
            )
            self.executor = PlanExecutor(
                self.store,
                ClusterConfig(num_nodes=self.config.num_nodes),
                self.config.params,
                backend=self.backend,
            )
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
        self._flights_lock = checked(
            threading.Lock(), "QueryService._flights_lock"
        )
        self._flights: dict[tuple, _Flight] = {}  # guarded-by: _flights_lock
        self._template_flights: dict[tuple, _Flight] = {}  # guarded-by: _flights_lock
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
        self._inflight = (
            None
            if self.config.max_inflight is None
            else threading.Semaphore(self.config.max_inflight)
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
            # The executor owns the execution backend(s) — per-shard in
            # a sharded deployment — and closing is idempotent.
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

    # -- admission control -------------------------------------------------

    def _admit(self, permits: int = 1, submissions: int | None = None) -> None:
        """Reserve *permits* in-flight slots or reject the submission.

        Non-blocking: when fewer than *permits* slots are free the
        whole reservation rolls back and :class:`ServiceOverloaded` is
        raised (a batch is admitted or rejected as a unit).
        ``submissions`` is what the rejection counter records — for a
        batch, its member count rather than its (clamped) permit count.
        """
        sem = self._inflight
        if sem is None or permits <= 0:
            return
        acquired = 0
        for _ in range(permits):
            if sem.acquire(blocking=False):
                acquired += 1
                continue
            for _ in range(acquired):
                sem.release()
            self.stats.record_rejection(
                permits if submissions is None else submissions
            )
            raise ServiceOverloaded(
                f"service is at max_inflight={self.config.max_inflight}; "
                f"rejected {submissions or permits} submission(s)"
            )

    def _release(self, permits: int = 1) -> None:
        sem = self._inflight
        if sem is None:
            return
        for _ in range(permits):
            sem.release()

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
        :meth:`submit`, which falls back to an uncached path).
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
        prepared = self.prepare(query, name)
        assert isinstance(prepared, PreparedQuery)
        return prepared.explain()

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
        former O(|G|) full recompute — and, if configured, drops cached
        plans so later queries re-optimize against the new statistics.
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
                    if self.config.invalidate_plans_on_mutation:
                        # The optimizer's output lives in the template
                        # cache; bound instances in the plan cache.  Both
                        # must go for later queries to re-optimize
                        # against the new statistics.
                        self.template_cache.clear()
                        self.plan_cache.clear()
                    self.stats.record_mutation()
                    # Rebuild process worker pools now, while the write
                    # lock quiesces every query thread: a fork-based pool
                    # must not be (re)created mid-batch from a pool
                    # thread, and the workers' store snapshot is stale
                    # anyway.  Sharded stores rebuild only the pools of
                    # shards the batch actually touched (snapshot tokens
                    # are per shard).
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
        minimal resize plan, or explicit ``(slot, src, dst)`` *moves*
        (e.g. from :meth:`suggest_rebalance`).  The migration runs
        under the store's **write lock**: in-flight queries against the
        old epoch drain first, queries submitted meanwhile block, and
        both resume against the flipped table — answers are identical
        before, during and after.  Over the RPC transport only the
        moved slots' snapshot slices cross the wire; a mid-migration
        failure rolls the store back and raises typed, leaving the old
        topology serving.  Returns a
        :class:`~repro.cluster.router.RebalanceReport`.
        """
        self._check_open()
        if not isinstance(self.executor, ShardedPlanExecutor):
            raise ValueError(
                "rebalance requires a sharded deployment "
                "(ServiceConfig(shards=N))"
            )
        started = time.perf_counter()
        if not self.config.tracing:
            report = self._rebalance_locked(target_shards, moves)
        else:
            ref = self.trace_sink.start_trace("rebalance", epoch=started)
            try:
                with activate(ref):
                    report = self._rebalance_locked(target_shards, moves)
            finally:
                self.trace_sink.finish_trace(
                    ref.trace_id, time.perf_counter() - started
                )
        phases = {
            "plan": report.slots_moved,
            "prime": sum(
                1
                for _slot, _src, dst in report.moves
                if dst >= report.old_shards
            ),
            "delta": sum(
                1
                for _slot, _src, dst in report.moves
                if dst < report.old_shards
            ),
            "flip": report.slots_moved if report.new_epoch > report.old_epoch else 0,
        }
        self.stats.record_rebalance(phases)
        return report

    def _rebalance_locked(self, target_shards, moves):
        # Acquiring the write lock *is* the drain: it blocks until
        # every in-flight query (a reader) finishes and holds new ones
        # out until the table has flipped.
        with span("rebalance:drain"):
            lock = self._store_lock.write()
            lock.__enter__()
        try:
            with span(
                "rebalance:migrate",
                target_shards=target_shards if target_shards is not None else -1,
            ):
                return self.executor.rebalance(target_shards, moves)
        finally:
            lock.__exit__(None, None, None)

    def suggest_rebalance(self, max_moves: int = 1):
        """A skew-shedding plan from live worker load, or ``()``.

        Feeds the RPC shard workers' ``tasks_run`` gauges (PR 9
        telemetry) into :func:`~repro.cluster.slots.plan_skew`; without
        live gauges (inproc transport, cold fleet) it falls back to
        stored triples per shard.  The plan is advice — pass it to
        :meth:`rebalance` to act on it.
        """
        self._check_open()
        if not isinstance(self.executor, ShardedPlanExecutor):
            raise ValueError(
                "suggest_rebalance requires a sharded deployment "
                "(ServiceConfig(shards=N))"
            )
        load: dict[int, float] = {}
        for gauge in self._shard_worker_gauges():
            if not gauge.stale:
                load[gauge.shard] = float(gauge.tasks_run)
        return self.executor.suggest_rebalance(
            load=load or None, max_moves=max_moves
        )

    # -- serving -----------------------------------------------------------

    def submit(self, query: BGPQuery | str, name: str = "") -> QueryOutcome:
        """Answer one fully-bound query (prepare → bind → execute).

        Raises :class:`ServiceOverloaded` without doing any work when
        the service is already at ``max_inflight`` submissions.
        """
        self._check_open()
        started = time.perf_counter()
        parsed = self._parse(query, name)
        parsed_at = time.perf_counter()
        self._reject_unbound(parsed)
        self._admit()
        try:
            return self._submit_parsed(parsed, started, parsed_at=parsed_at)
        finally:
            self._release()

    def _submit_parsed(
        self,
        parsed: BGPQuery,
        started: float,
        parsed_at: float | None = None,
        force_trace: bool = False,
    ) -> QueryOutcome:
        """Serve an already-parsed, admitted query.

        When tracing is on (config or *force_trace*), a trace rooted at
        *started* is opened around the whole submission: the root is
        installed as the active contextvar span, so every stage below —
        down to RPC frames and shard-worker spans — lands in it, and
        the root's duration is closed from the authoritative wall-clock
        total.  Batch pool threads call this too; each call gets its
        own trace (the contextvar is per-thread/context).
        """
        if not (force_trace or self.config.tracing):
            return self._serve_parsed(parsed, started)
        ref = self.trace_sink.start_trace(parsed.name or "query", epoch=started)
        if parsed_at is not None:
            record_remote(ref.ctx(), "parse", started, parsed_at)
        try:
            with activate(ref):
                return self._serve_parsed(parsed, started)
        finally:
            self.trace_sink.finish_trace(
                ref.trace_id, time.perf_counter() - started
            )

    def _serve_parsed(self, parsed: BGPQuery, started: float) -> QueryOutcome:
        try:
            t0 = time.perf_counter()
            inst = self._instantiate(parsed)
            canonicalize_s = time.perf_counter() - t0
        except CanonicalizationBudgetExceeded:
            return self._submit_uncacheable(parsed, started)
        record_remote(trace_ctx(), "canonicalize", t0, time.perf_counter())
        answer, coalesced = self._resolve(inst)
        outcome = self._project(parsed, inst, answer, coalesced, started)
        outcome.timings = replace(outcome.timings, canonicalize_s=canonicalize_s)
        self._record(outcome, coalesced)
        return outcome

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
        """Template + default binding vector for a fully-bound query."""
        template = self._extract(parsed)
        values = template.check_values(template.default_values())
        return _Instance(
            template=template,
            values=values,
            key=template.instance_key(values),
        )

    def _record(self, outcome: QueryOutcome, coalesced: bool) -> None:
        if outcome.report.shard_bytes is not None:
            self._last_wire_bytes = sum(outcome.report.shard_bytes)
        self.stats.record_query(
            outcome.timings,
            plan_hit=outcome.plan_cache_hit,
            result_hit=outcome.result_cache_hit,
            template_hit=outcome.template_hit,
            coalesced=coalesced,
        )
        self._note_slow(outcome)

    def _note_slow(self, outcome: QueryOutcome) -> None:
        limit = self.config.slow_query_s
        if limit is None or outcome.timings.total_s < limit:
            return
        self._slow_queries.append(
            {
                "query": outcome.query.name or str(outcome.query),
                "total_s": outcome.timings.total_s,
                "execute_s": outcome.timings.execute_s,
                "rows": len(outcome.rows),
                "served_by": outcome.provenance["served_by"],
                "trace_id": outcome.trace_id,
            }
        )

    def _execute_bound(self, bound: "BoundQuery") -> QueryOutcome:
        """Serve a :class:`BoundQuery` (extraction already paid)."""
        self._check_open()
        started = time.perf_counter()
        inst = _Instance(
            template=bound.prepared.template,
            values=bound.values,
            key=bound.instance_key,
            entry=bound.prepared._entry,
        )
        self._admit()
        ref = (
            self.trace_sink.start_trace(
                bound.query.name or "prepared", epoch=started
            )
            if self.config.tracing
            else None
        )
        try:
            with activate(ref):
                answer, coalesced = self._resolve(inst)
                outcome = self._project(
                    bound.query, inst, answer, coalesced, started
                )
        finally:
            self._release()
            if ref is not None:
                self.trace_sink.finish_trace(
                    ref.trace_id, time.perf_counter() - started
                )
        self._record(outcome, coalesced)
        return outcome

    def submit_batch(
        self, queries, *, dedup: bool = True, return_exceptions: bool = False
    ) -> list[QueryOutcome | BaseException]:
        """Answer many independent queries, concurrently.

        With ``dedup`` (the default), queries sharing an instance key
        (same template, same constants) are *coalesced*: each distinct
        instance binds and executes once and every duplicate reuses the
        answer; queries sharing only a *template* (same shape, different
        constants) still single-flight the optimizer — on a repeated
        workload mix a batch therefore does strictly less work than
        submitting its members one by one.

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
        ``total_s`` starts when the batch is submitted.
        """
        self._check_open()
        batch_started = time.perf_counter()
        items: list[BGPQuery | BaseException] = []
        for q in queries:
            try:
                parsed = self._parse(q)
                self._reject_unbound(parsed)
                items.append(parsed)
            except ValueError as exc:
                if not return_exceptions:
                    raise
                items.append(exc)
        if not items:
            return []
        members = sum(1 for it in items if not isinstance(it, BaseException))
        permits = members
        if self.config.max_inflight is not None and members:
            # Cap at the limit so an oversized batch stays admissible on
            # an idle service, but never below one slot — max_inflight=0
            # must still reject.
            permits = max(1, min(members, self.config.max_inflight))
        self._admit(permits, submissions=members)
        try:
            return self._run_batch(
                items, batch_started, dedup=dedup,
                return_exceptions=return_exceptions,
            )
        finally:
            self._release(permits)

    def _run_batch(
        self,
        items: list,
        batch_started: float,
        *,
        dedup: bool,
        return_exceptions: bool,
    ) -> list:
        """Execute an admitted batch (see :meth:`submit_batch`)."""
        if len(items) == 1:
            only = items[0]
            if isinstance(only, BaseException):
                return [only]
            try:
                return [self._submit_parsed(only, batch_started)]
            except Exception as exc:
                if not return_exceptions:
                    raise
                return [exc]
        pool = self._ensure_pool()
        if not dedup:
            futures = [
                None
                if isinstance(it, BaseException)
                else pool.submit(self._submit_parsed, it, batch_started)
                for it in items
            ]
            outcomes: list[QueryOutcome | BaseException] = []
            for item, future in zip(items, futures):
                if future is None:
                    outcomes.append(item)
                    continue
                try:
                    outcomes.append(future.result())
                except Exception as exc:
                    if not return_exceptions:
                        raise
                    outcomes.append(exc)
            return outcomes
        #: per member: ("err", exc) | ("unc", future) | ("ok", query, inst, canon_s)
        entries: list[tuple] = []
        flights: dict[tuple, object] = {}
        for item in items:
            if isinstance(item, BaseException):
                entries.append(("err", item))
                continue
            t0 = time.perf_counter()
            try:
                inst = self._instantiate(item)
            except CanonicalizationBudgetExceeded:
                entries.append(
                    ("unc", pool.submit(self._submit_uncacheable, item, batch_started))
                )
                continue
            entries.append(("ok", item, inst, time.perf_counter() - t0))
            if inst.key not in flights:
                flights[inst.key] = pool.submit(self._resolve, inst)
        outcomes = []
        leaders: set[tuple] = set()
        for entry in entries:
            if entry[0] == "err":
                outcomes.append(entry[1])
                continue
            if entry[0] == "unc":
                try:
                    outcomes.append(entry[1].result())
                except Exception as exc:
                    # _submit_uncacheable already recorded the error.
                    if not return_exceptions:
                        raise
                    outcomes.append(exc)
                continue
            _, query, inst, canonicalize_s = entry
            try:
                answer, coalesced = flights[inst.key].result()
            except Exception as exc:
                # The flight leader already recorded the error.
                if not return_exceptions:
                    raise
                outcomes.append(exc)
                continue
            coalesced = coalesced or inst.key in leaders
            leaders.add(inst.key)
            outcome = self._project(query, inst, answer, coalesced, batch_started)
            outcome.timings = replace(
                outcome.timings, canonicalize_s=canonicalize_s
            )
            self._record(outcome, coalesced)
            outcomes.append(outcome)
        return outcomes

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
        if self.config.shard_transport != "rpc" or not self.config.shards:
            return ()
        try:
            probes = self.executor.router.worker_gauges()  # type: ignore[union-attr]
        except Exception:
            return ()
        gauges = []
        for shard, reply in probes:
            if reply is None:
                gauges.append(
                    ShardWorkerGauge(
                        shard=shard,
                        inflight=0,
                        queue_depth=0,
                        max_concurrency=0,
                        peak_inflight=0,
                        tasks_run=0,
                        batches=0,
                        deduped=0,
                        stale=True,
                    )
                )
                continue
            gauges.append(
                ShardWorkerGauge(
                    shard=shard,
                    inflight=reply.inflight,
                    queue_depth=reply.queue_depth,
                    max_concurrency=reply.pipeline,
                    peak_inflight=reply.peak_inflight,
                    tasks_run=reply.tasks_run,
                    batches=reply.batches,
                    deduped=reply.deduped,
                )
            )
        return tuple(gauges)

    # -- observability surfaces --------------------------------------------

    def explain_analyze(self, query: BGPQuery | str, name: str = "") -> str:
        """Run *query* with tracing forced on; render plan + span tree.

        The EXPLAIN section shows what the optimizer chose; the trace
        section shows where the wall-clock actually went — driver
        stages (parse/canonicalize/optimize/bind/execute), engine
        levels, and (under the rpc transport) per-shard RPC spans with
        the workers' own queue-wait/lock-wait/bind/execute/encode
        breakdown shipped back on the replies.  The trace stays in
        ``trace_sink`` for :meth:`export_chrome_trace`.
        """
        self._check_open()
        started = time.perf_counter()
        parsed = self._parse(query, name)
        parsed_at = time.perf_counter()
        self._reject_unbound(parsed)
        self._admit()
        try:
            outcome = self._submit_parsed(
                parsed, started, parsed_at=parsed_at, force_trace=True
            )
        finally:
            self._release()
        sections = [self.explain(parsed)]
        trace = self.trace_sink.get(outcome.trace_id)
        if trace is not None:
            sections.append(f"== trace {trace.trace_id} ==\n{trace.render()}")
        return "\n\n".join(sections)

    def trace(self, outcome: QueryOutcome) -> Trace | None:
        """The recorded span tree of *outcome* — None when tracing was
        off for the submission or the sink has since evicted it."""
        if not outcome.trace_id:
            return None
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
        self._sync_transport_metrics()
        return self.registry.render_prometheus()

    def _sync_transport_metrics(self) -> None:
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
        workers = self._shard_worker_gauges()
        if not workers:
            return
        fields = registry.gauge(
            "repro_shard_worker",
            "Point-in-time RPC shard worker load (stale=1: probe failed).",
            labels=("shard", "field"),
        )
        for g in workers:
            shard = str(g.shard)
            fields.labels(shard=shard, field="stale").set(1.0 if g.stale else 0.0)
            if g.stale:
                continue
            for name, value in (
                ("inflight", g.inflight),
                ("queue_depth", g.queue_depth),
                ("max_concurrency", g.max_concurrency),
                ("peak_inflight", g.peak_inflight),
                ("tasks_run", g.tasks_run),
                ("batches", g.batches),
                ("deduped", g.deduped),
            ):
                fields.labels(shard=shard, field=name).set(float(value))
        try:
            wire = self.executor.router.wire_stats()  # type: ignore[union-attr]
        except Exception:
            return
        link = registry.gauge(
            "repro_shard_wire",
            "Driver-side transport counters per shard connection.",
            labels=("shard", "field"),
        )
        for shard, stats in wire:
            for name, value in stats.items():
                link.labels(shard=str(shard), field=name).set(float(value))

    # -- internals ---------------------------------------------------------

    def _single_flight(
        self, flights: dict, key, compute, on_error=None
    ) -> tuple[object, bool]:
        """Run *compute* once per concurrent *key*: the first caller
        computes, the rest wait and share the value (or the raised
        error).  Returns ``(value, reused)``; ``reused`` is True for
        waiters."""
        with self._flights_lock:
            flight = flights.get(key)
            leader = flight is None
            if leader:
                flight = flights[key] = _Flight()
        if not leader:
            with span("flight_wait"):
                flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value, True
        try:
            value = compute()
            flight.value = value
            return value, False
        except BaseException as exc:
            flight.error = exc
            if on_error is not None:
                on_error()
            raise
        finally:
            with self._flights_lock:
                flights.pop(key, None)
            flight.done.set()

    def _resolve(self, inst: _Instance) -> tuple[_Answer, bool]:
        """Answer a bound instance, via caches and single-flight."""
        while True:
            entry = self.result_cache.get_current(inst.key, self._version)
            if entry is not None:
                return (
                    _Answer(
                        attrs=entry.attrs,
                        rows=entry.rows,
                        plan=entry.plan,
                        report=entry.report,
                        job_signature=entry.job_signature,
                        plan_hit=True,
                        template_hit=False,
                        result_hit=True,
                        optimize_s=0.0,
                        execute_s=0.0,
                        bind_s=0.0,
                        version=entry.version,
                    ),
                    False,
                )
            answer, reused = self._single_flight(
                self._flights,  # lint: disable=LOCK001 — reference only; _single_flight mutates it under _flights_lock
                inst.key,
                lambda: self._compute(inst),
                on_error=self.stats.record_error,
            )
            assert isinstance(answer, _Answer)
            if reused and answer.version != self._version:
                # The flight predates a mutation that committed after we
                # joined; its rows are stale for us. Recompute at the
                # current version instead of serving them.
                continue
            return answer, reused

    def _template_entry(
        self, template: QueryTemplate, seed: TemplateEntry | None = None
    ) -> tuple[TemplateEntry, bool]:
        """The optimized-once entry for *template* (single-flight).

        Returns ``(entry, hit)``; ``hit`` is True when the caller did
        not pay for the optimization (cache hit, another thread's
        in-flight optimization, or a caller-held *seed* entry from a
        live PreparedQuery whose template the cache has since dropped —
        the seed is used directly, without resurrecting it into the
        shared cache, so mutation-triggered invalidation stays
        effective for everyone else).
        """
        entry = self.template_cache.get(template.signature)
        if entry is not None:
            return entry, True
        if seed is not None:
            return seed, True

        def build() -> TemplateEntry:
            built = self._build_template_entry(template)
            self.template_cache.put(template.signature, built)
            return built

        entry, reused = self._single_flight(
            self._template_flights,  # lint: disable=LOCK001 — reference only; _single_flight mutates it under _flights_lock
            template.signature,
            build,
        )
        assert isinstance(entry, TemplateEntry)
        return entry, reused

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
        t0 = time.perf_counter()
        defaults = template.default_values()
        plan: LogicalPlan | None = None
        if template.arity and all(v is not None for v in defaults):
            values = tuple(defaults)  # type: ignore[arg-type]
            bound_query = template.bind_canonical(values)
            # Bound pattern -> template pattern, to lift the chosen plan
            # back to placeholder form.  Binding may collapse two
            # distinct template patterns into one (duplicate patterns
            # modulo constants) — the optimizer would then plan only one
            # of them, so fall back to optimizing the template directly.
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
        if isinstance(self.executor, ShardedPlanExecutor):
            # Ship the template's job structure to every shard once;
            # each query afterwards sends only its binding-substituted
            # task specs (the snapshot already lives in the shard pools).
            self.executor.register_template(prepared)
        optimize_s = time.perf_counter() - t0
        record_remote(
            trace_ctx(),
            "optimize",
            t0,
            time.perf_counter(),
            plans=optimizer.plan_count,
            pruned=optimizer.pruned,
            truncated=optimizer.truncated,
        )
        return TemplateEntry(
            template=template,
            plan=plan,
            prepared=prepared,
            optimize_s=optimize_s,
            plan_count=optimizer.plan_count,
            pruned=optimizer.pruned,
            truncated=optimizer.truncated,
        )

    def _compute(self, inst: _Instance) -> _Answer:
        entry = self.plan_cache.get(inst.key)
        plan_hit = entry is not None
        template_hit = False
        optimize_s = 0.0
        bind_s = 0.0
        if entry is None:
            tentry, template_hit = self._template_entry(
                inst.template, inst.entry
            )
            t0 = time.perf_counter()
            with span("bind", template_hit=template_hit):
                prepared = tentry.prepared.bind(
                    inst.template.substitution(inst.values)
                )
            bind_s = time.perf_counter() - t0
            if not template_hit:
                optimize_s = tentry.optimize_s
            entry = PlanEntry(
                plan=prepared.plan,
                prepared=prepared,
                optimize_s=optimize_s,
                plan_count=tentry.plan_count,
                truncated=tentry.truncated,
            )
            self.plan_cache.put(inst.key, entry)
        t0 = time.perf_counter()
        with self._store_lock.read():
            version = self._version
            with span("execute", plan_hit=plan_hit):
                result = self.executor.execute_prepared(entry.prepared)
        execute_s = time.perf_counter() - t0
        answer = _Answer(
            attrs=result.attrs,
            rows=result.rows,
            plan=entry.plan,
            report=result.report,
            job_signature=result.job_signature(),
            plan_hit=plan_hit,
            template_hit=template_hit,
            result_hit=False,
            optimize_s=optimize_s,
            execute_s=execute_s,
            bind_s=bind_s,
            version=version,
        )
        self.result_cache.put(
            inst.key,
            ResultEntry(
                version=version,
                attrs=answer.attrs,
                rows=answer.rows,
                plan=answer.plan,
                report=answer.report,
                job_signature=answer.job_signature,
            ),
        )
        return answer

    def _project(
        self,
        query: BGPQuery,
        inst: _Instance,
        answer: _Answer,
        coalesced: bool,
        started: float,
    ) -> QueryOutcome:
        """Map a canonical-space answer back onto *query*'s variables."""
        mapping = inst.template.mapping
        wanted = [mapping[v] for v in query.distinguished]
        index = [answer.attrs.index(c) for c in wanted]
        if index == list(range(len(answer.attrs))):
            rows = set(answer.rows)
        elif len(index) == 1:
            rows = set(zip(map(itemgetter(index[0]), answer.rows)))
        else:
            rows = set(map(itemgetter(*index), answer.rows))
        total_s = time.perf_counter() - started
        ref = current_ref()
        return QueryOutcome(
            query=query,
            attrs=tuple(query.distinguished),
            rows=rows,
            plan=answer.plan,
            report=answer.report,
            job_signature=answer.job_signature,
            plan_cache_hit=answer.plan_hit,
            result_cache_hit=answer.result_hit,
            coalesced=coalesced,
            cacheable=True,
            timings=QueryTimings(
                optimize_s=answer.optimize_s,
                execute_s=answer.execute_s,
                bind_s=answer.bind_s,
                total_s=total_s,
            ),
            graph_version=answer.version,
            template_hit=answer.template_hit,
            template_digest=inst.template.digest(),
            parameters=tuple(
                (p.name, v)
                for p, v in zip(inst.template.params, inst.values)
            ),
            trace_id="" if ref is None else ref.trace_id,
        )

    def _submit_uncacheable(
        self, query: BGPQuery, started: float
    ) -> QueryOutcome:
        """Serve a query the canonicalizer gave up on, bypassing caches."""
        self.stats.record_optimizer_run()
        t0 = time.perf_counter()
        try:
            with span("optimize", cacheable=False):
                plan, _ = self.optimize(query)
                prepared = self.executor.prepare(plan)
        except Exception:
            self.stats.record_error()
            raise
        optimize_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        with self._store_lock.read():
            version = self._version
            with span("execute"):
                result = self.executor.execute_prepared(prepared)
        execute_s = time.perf_counter() - t0
        timings = QueryTimings(
            optimize_s=optimize_s,
            execute_s=execute_s,
            total_s=time.perf_counter() - started,
        )
        self.stats.record_query(timings, plan_hit=False, result_hit=False)
        ref = current_ref()
        outcome = QueryOutcome(
            query=query,
            attrs=result.attrs,
            rows=set(result.rows),
            plan=plan,
            report=result.report,
            job_signature=result.job_signature(),
            plan_cache_hit=False,
            result_cache_hit=False,
            coalesced=False,
            cacheable=False,
            timings=timings,
            graph_version=version,
            trace_id="" if ref is None else ref.trace_id,
        )
        self._note_slow(outcome)
        return outcome
