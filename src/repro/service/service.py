"""The concurrent CliqueSquare query service.

A :class:`QueryService` is a long-lived serving layer over one
partitioned store (§5.1) that amortizes optimization across a workload.
It is three parts, split along the lock tiers of
:data:`repro.analysis.hierarchy.LOCK_RANKS`, each a class with its own
state that calls the others directly: the front door
(:mod:`repro.service.front`), the serving pipeline every door runs
(:mod:`repro.service.pipeline`, orchestration tier) and administration
(:mod:`repro.service.admin`, engine-state tier).  This module keeps the
config, construction, lifecycle and the observability surfaces, which
read the service's one set of books, its
:class:`~repro.obs.metrics.MetricsRegistry`.  The classic CSQ system
(:mod:`repro.systems.csq`) is a thin session over this service.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable

from repro.analysis.locks import checked
from repro.cluster import ShardedPlanExecutor, ShardedStore, shard_graph
from repro.columnar.block import HAVE_NUMPY
from repro.core.decomposition import MSC, DecompositionOption
from repro.core.logical import LogicalPlan
from repro.cost.params import DEFAULT_PARAMS, CostParams
from repro.mapreduce.backends import inline_backend
from repro.mapreduce.engine import ClusterConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace
from repro.partitioning.triple_partitioner import partition_graph
from repro.physical.executor import PlanExecutor
from repro.physical.explain import explain as explain_plan
from repro.rdf.graph import RDFGraph
from repro.service.admin import Administration
from repro.service.front import FrontDoor
from repro.service.pipeline import Pipeline, QueryOutcome
from repro.service.stats import ShardWorkerGauge, StatsSnapshot, event_counters
from repro.sparql.ast import BGPQuery


@dataclass
class ServiceConfig:
    """Deployment knobs for the query service.

    A service runs one inline engine (``backend``) on one of three
    deployments (``shards`` / ``shard_transport``).  What the perf
    ledger still probes but no deployment needs — the pickle wire, the
    rpc concurrency modes and the thread / process pools — are
    arguments of :class:`~repro.cluster.ShardedPlanExecutor` and
    :class:`~repro.physical.executor.PlanExecutor`, not fields here.
    """

    num_nodes: int = 7
    option: DecompositionOption = MSC
    max_plans: int | None = 20_000
    timeout_s: float | None = 100.0
    params: CostParams = DEFAULT_PARAMS
    #: LRU capacity of the bound-plan cache (None = unbounded).  Keyed
    #: per *instance* (template + constants), so on constant-varying
    #: workloads it must stay bounded — a miss only re-binds the cached
    #: template (cheap), never re-optimizes.  The statement cache (parse
    #: + canonicalization per distinct submission) has the same bound.
    plan_cache_size: int | None = 1024
    #: LRU capacity of the result cache (0 disables result caching).
    result_cache_size: int | None = 256
    #: worker threads for submit_batch
    max_workers: int = 8
    #: the engine that runs every task, by name: "columnar" or "serial"
    #: (mapreduce.backends.INLINE_BACKENDS), the same on every
    #: deployment — unsharded, the service's executor runs it; sharded,
    #: each shard worker builds one.  The default is resolved from the
    #: platform: the id-space engine ("columnar", bulk numpy kernels
    #: over dictionary-encoded columns) where numpy is importable,
    #: "serial" otherwise.  SerialBackend is the reference every engine
    #: is checked against (answers and field-wise reports,
    #: tests/conformance.py), not the fast path.  A pool name ("thread",
    #: "process") or an ExecutionBackend instance is a ValueError: the
    #: pools lost every ledger probe and serve a bare PlanExecutor only.
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
    #: Answers and reports are identical for any shard count.
    shards: int = 0
    #: how the shard workers are reached (requires ``shards >= 1``).
    #: A worker holds its snapshot and one inline engine, nothing about
    #: plans, and gets each level as one frame (repro.cluster.rpc):
    #: "inproc" keeps it in the driver process and hands it frames as
    #: objects; "rpc" runs it as a long-lived server process behind a
    #: localhost socket.  Over rpc, rows cross as id buffers in the
    #: store's numbering (the columnar wire), each connection carries up
    #: to DEFAULT_RPC_PIPELINE outstanding levels and concurrent queries'
    #: levels are not coalesced; ShardedPlanExecutor keeps the other
    #: wire and modes for the ledger's probes.  A crashed server is
    #: respawned (the failed request retried) once; sustained failure
    #: raises a typed ShardUnavailable, counted in
    #: snapshot_stats().shard_failures.
    shard_transport: str = "inproc"
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

    def validate(self) -> None:
        """Refuse a field that sizes the service, naming it."""
        for field, least in (
            ("num_nodes", 1),
            ("max_workers", 1),
            ("shards", 0),
            ("max_inflight", 0),
            ("plan_cache_size", 0),
            ("result_cache_size", 0),
            ("template_cache_size", 0),
        ):
            value = getattr(self, field)
            if value is not None and value < least:
                raise ValueError(f"{field} must be >= {least}, got {value}")
        if self.shard_transport not in ("inproc", "rpc"):
            raise ValueError(
                f"unknown shard_transport {self.shard_transport!r}; "
                "expected 'inproc' or 'rpc'"
            )
        if self.shard_transport == "rpc" and not self.shards:
            raise ValueError(
                "shard_transport='rpc' requires shards >= 1 "
                "(the RPC boundary sits between router and shard workers)"
            )


def _count_shard_failures(
    registry: MetricsRegistry, warnings: list[str]
) -> Callable[[int, str], None]:
    """The rpc transport's failure callback: count the failure and keep
    its warning, together.  It closes over the books, not the service —
    a service -> executor -> service cycle would leave a closed
    service's stores to the cycle collector instead of freeing them
    when the last reference goes."""
    failures = event_counters(registry, "shard_failures")["shard_failures"]

    def on_shard_failure(shard: int, message: str) -> None:
        warning = f"shard {shard} worker failure: {message}"
        with registry.update_lock:
            failures.inc()
            if warning not in warnings:
                warnings.append(warning)

    return on_shard_failure


class QueryService(FrontDoor, Pipeline, Administration):
    """A concurrent, caching SPARQL-BGP query service over one store:
    a front door, a serving pipeline and administration (one class
    each) over the engine and the books this class constructs."""

    def __init__(self, graph: RDFGraph, config: ServiceConfig | None = None) -> None:
        self.config = config = config or ServiceConfig()
        config.validate()
        backend = inline_backend(config.backend)
        #: the one set of books: every part counts into it, and
        #: render_prometheus() syncs transport gauges into it at scrape
        #: time
        self.registry = MetricsRegistry()
        self._started = time.monotonic()
        #: operational warnings (shard worker failures), deduplicated;
        #: appended and read under registry.update_lock
        self._warnings: list[str] = []
        on_shard_failure = _count_shard_failures(self.registry, self._warnings)
        if config.shards:
            # Sharded deployment: one §5.1 store, each of N shard workers
            # serving the nodes the store's owner table assigns it.
            self.store = shard_graph(graph, config.num_nodes, config.shards)
            self.executor: PlanExecutor = ShardedPlanExecutor(
                self.store,
                ClusterConfig(num_nodes=config.num_nodes),
                config.params,
                backend=backend,
                transport=config.shard_transport,
                on_shard_failure=on_shard_failure,
            )
        else:
            self.store = partition_graph(graph, config.num_nodes)
            self.executor = PlanExecutor(
                self.store,
                ClusterConfig(num_nodes=config.num_nodes),
                config.params,
                backend=backend,
            )
        Administration.__init__(self, graph, config, self.registry)
        FrontDoor.__init__(self, config, self.registry)
        Pipeline.__init__(self, config, self.registry)
        self._pool_lock = checked(threading.Lock(), "QueryService._pool_lock")
        self._pool: ThreadPoolExecutor | None = None  # guarded-by: _pool_lock
        # Written only under _pool_lock; read lock-free in _check_open as
        # a monotonic False -> True latch (and under the lock in
        # _ensure_pool, which is why _check_open itself cannot lock).
        self._closed = False
        # With shards, every shard worker starts and is primed with its
        # own view of the store before serving threads exist: a forked
        # rpc server must not be created from a multithreaded batch
        # submission mid-flight.
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

    # -- observability surfaces --------------------------------------------

    def snapshot_stats(self) -> StatsSnapshot:
        """The books as a :class:`StatsSnapshot`, with live worker gauges."""
        return StatsSnapshot.read(
            self.registry,
            graph_version=self._version,
            templates_cached=len(self.template_cache),
            uptime_s=time.monotonic() - self._started,
            warnings=self._warnings,
            shard_workers=self._shard_worker_gauges(),
        )

    def _shard_worker_gauges(self) -> tuple[ShardWorkerGauge, ...]:
        """Load gauges of the shard workers (best-effort: a shard
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
        # and without numpy).
        backend = config.backend
        rpc = sharded and config.shard_transport == "rpc"
        return explain_plan(
            plan,
            backend=backend,
            template=digest,
            shard_map=store.node_shards if sharded else None,
            shard_triples=store.triples_per_shard() if sharded else None,
            transport=config.shard_transport if sharded else None,
            rows="columnar" if backend == "columnar" else "tuple",
            wire=self.executor.router.wire_format if rpc else None,
            wire_bytes=self._last_wire_bytes if rpc else None,
        )

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
        caches.labels(cache="statement").set(len(self.statement_cache))
        caches.labels(cache="plan").set(len(self.plan_cache))
        caches.labels(cache="template").set(len(self.template_cache))
        caches.labels(cache="result").set(len(self.result_cache))
        registry.gauge(
            "repro_result_cache_stale_drops",
            "Result-cache entries dropped at a read because a file they "
            "read had been written since.",
        ).set(self.result_cache.stale_drops)
        workers = registry.gauge(
            "repro_shard_worker",
            "Point-in-time shard worker load (stale=1: probe failed).",
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
