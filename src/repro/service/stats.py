"""Service telemetry views: per-query timings and the aggregate snapshot.

A service keeps one set of books, its
:class:`~repro.obs.metrics.MetricsRegistry`.  Each event a submission,
a write or a rebalance moves is a child of
``repro_service_events_total{event=...}``, each stage latency a sample
of ``repro_query_stage_seconds{stage=...}``, and the nodes a rebalance
handles count in ``repro_node_moves_total{phase=...}``.  A
:class:`StatsSnapshot` is a read-only view of those families plus the
shard workers' gauges: counters, and a latency series' ``count`` /
``mean`` / ``total``, are exact over the service's life; percentiles
are exact nearest-rank over the series' reservoir (its last
:data:`~repro.obs.metrics.RESERVOIR` samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.obs.metrics import Counter, Histogram, MetricsRegistry, nearest_rank

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.frames import StatsReply

#: the family every service event counts in, by ``event`` label (the
#: name of the :class:`StatsSnapshot` field that reads it)
EVENTS = "repro_service_events_total"
#: the per-stage latency family, by ``stage`` label
STAGES = "repro_query_stage_seconds"
#: stale cached answers the delta rule brought forward (no labels)
PATCHES = "repro_result_patches_total"


def event_counters(registry: MetricsRegistry, *events: str) -> dict[str, Counter]:
    """The ``repro_service_events_total`` children of *events*."""
    family = registry.counter(
        EVENTS, "Lifetime service event counts by kind.", labels=("event",)
    )
    return {event: family.labels(event=event) for event in events}


def stage_histograms(
    registry: MetricsRegistry, *stages: str
) -> dict[str, Histogram]:
    """The ``repro_query_stage_seconds`` children of *stages*."""
    family = registry.histogram(
        STAGES,
        "Per-stage query latency (optimize/bind/execute/total).",
        labels=("stage",),
    )
    return {stage: family.labels(stage=stage) for stage in stages}


@dataclass(frozen=True)
class LatencySummary:
    """Summary of one latency series, in seconds.

    ``count``/``mean``/``total`` cover the *entire* series;
    ``p50``/``p95``/``p99`` are nearest-rank percentiles over the most
    recent ``windowed`` samples (the histogram's reservoir).
    """

    count: int = 0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    mean: float = 0.0
    total: float = 0.0
    #: how many samples the percentiles were computed over
    windowed: int = 0


def _latency(window: tuple[int, float, list[float]] | None) -> LatencySummary:
    """The summary of one :meth:`Histogram.window` reading."""
    if window is None or not window[0]:
        return LatencySummary()
    count, total, recent = window
    ordered = sorted(recent)
    return LatencySummary(
        count=count,
        p50=nearest_rank(ordered, 50),
        p95=nearest_rank(ordered, 95),
        p99=nearest_rank(ordered, 99),
        mean=total / count,
        total=total,
        windowed=len(ordered),
    )


@dataclass(frozen=True)
class QueryTimings:
    """Wall-clock breakdown of one submission, in seconds."""

    canonicalize_s: float = 0.0
    optimize_s: float = 0.0
    #: binding constants into the template's compiled plan (template
    #: extraction itself is under canonicalize_s)
    bind_s: float = 0.0
    execute_s: float = 0.0
    total_s: float = 0.0


@dataclass(frozen=True)
class ShardWorkerGauge:
    """Point-in-time load of one live shard worker (either transport).

    Sampled by :meth:`QueryService.snapshot_stats` from the workers'
    telemetry so overload is observable *before* admission control
    rejects: a queue depth persistently above zero means levels are
    waiting behind the worker's dispatch pool.
    """

    shard: int
    #: levels currently executing on the worker's dispatch pool
    inflight: int = 0
    #: levels accepted but not yet started
    queue_depth: int = 0
    #: dispatch-pool size (the concurrency ceiling)
    max_concurrency: int = 0
    #: high-water mark of ``inflight`` over the worker's life
    peak_inflight: int = 0
    tasks_run: int = 0
    #: the probe failed (dead/unresponsive worker): the numbers are
    #: zeros, not a live reading — a snapshot never raises mid-probe
    stale: bool = False

    @classmethod
    def from_reply(
        cls, shard: int, reply: "StatsReply | None"
    ) -> "ShardWorkerGauge":
        """The gauge of one probe; a failed probe (``None``) is stale."""
        if reply is None:
            return cls(shard=shard, stale=True)
        return cls(
            shard=shard,
            inflight=reply.inflight,
            queue_depth=reply.queue_depth,
            max_concurrency=reply.pipeline,
            peak_inflight=reply.peak_inflight,
            tasks_run=reply.tasks_run,
        )


@dataclass(frozen=True)
class StatsSnapshot:
    """Immutable aggregate view of a service's lifetime (:meth:`read`).

    Each counter field but ``graph_version``, ``templates_cached`` and
    ``result_patches`` reads the ``repro_service_events_total`` child
    labelled ``event=<field name>``.
    """

    submitted: int
    errors: int
    plan_hits: int
    plan_misses: int
    result_hits: int
    result_misses: int
    coalesced: int
    mutations: int
    graph_version: int
    uptime_s: float
    optimize: LatencySummary
    bind: LatencySummary
    execute: LatencySummary
    total: LatencySummary
    #: operational warnings (e.g. an execution backend falling back)
    warnings: tuple[str, ...] = ()
    #: submissions that skipped the optimizer by binding a cached
    #: template (the bound-plan cache itself missed)
    template_hits: int = 0
    #: distinct templates currently held by the template cache
    templates_cached: int = 0
    #: times the CliqueSquare optimizer actually ran (template builds —
    #: via submit or an explicit prepare() — plus uncacheable queries).
    #: The three-way split of submission outcomes is ``plan_hits`` (full
    #: bound-plan cache hit), ``template_hits`` (new constants bound
    #: into a cached template), ``plan_misses`` (cold submission).
    optimizer_runs: int = 0
    #: submissions rejected by admission control (max_inflight reached);
    #: rejected submissions are not counted in ``submitted``
    rejected: int = 0
    #: shard worker failures observed by the RPC transport (each worker
    #: death, failed respawn or post-respawn failure counts once; a
    #: single transparent respawn therefore shows up as 1)
    shard_failures: int = 0
    #: point-in-time load gauges of the live shard workers, in process
    #: or over rpc (empty when unsharded or when no worker is up)
    shard_workers: tuple[ShardWorkerGauge, ...] = ()
    #: completed topology rebalances (grow, shrink or skew-shedding)
    rebalances: int = 0
    #: submissions (and prepare() calls) whose parse + canonicalization
    #: the statement cache answered / that paid for it
    statement_hits: int = 0
    statement_misses: int = 0
    #: result misses that patched a stale cached answer from the write
    #: delta log instead of recomputing it (``repro_result_patches_total``)
    result_patches: int = 0

    @property
    def plan_hit_rate(self) -> float:
        seen = self.plan_hits + self.plan_misses
        return self.plan_hits / seen if seen else 0.0

    @property
    def result_hit_rate(self) -> float:
        seen = self.result_hits + self.result_misses
        return self.result_hits / seen if seen else 0.0

    @property
    def throughput_qps(self) -> float:
        return self.submitted / self.uptime_s if self.uptime_s > 0 else 0.0

    @classmethod
    def read(
        cls,
        registry: MetricsRegistry,
        *,
        graph_version: int = 0,
        templates_cached: int = 0,
        uptime_s: float = 0.0,
        warnings: Sequence[str] = (),
        shard_workers: tuple[ShardWorkerGauge, ...] = (),
    ) -> "StatsSnapshot":
        """The view of *registry*'s service families.  Under its
        ``update_lock``: a submission's counters and samples are seen
        all or none, and so is a warning beside its failure count."""
        events = registry.children(EVENTS)
        stages = registry.children(STAGES)
        patches = registry.children(PATCHES)
        with registry.update_lock:
            counts = {event: int(c.value) for (event,), c in events.items()}
            counts["result_patches"] = sum(int(c.value) for c in patches.values())
            windows = {stage: h.window() for (stage,), h in stages.items()}
            warned = tuple(warnings)
        return cls(
            **counts,
            graph_version=graph_version,
            templates_cached=templates_cached,
            uptime_s=uptime_s,
            optimize=_latency(windows.get("optimize")),
            bind=_latency(windows.get("bind")),
            execute=_latency(windows.get("execute")),
            total=_latency(windows.get("total")),
            warnings=warned,
            shard_workers=shard_workers,
        )

    def format(self) -> str:
        """A compact human-readable rendering."""
        lines = [
            f"queries: {self.submitted} ({self.errors} errors, "
            f"{self.coalesced} coalesced, {self.rejected} rejected), "
            f"mutations: {self.mutations} (graph v{self.graph_version}), "
            f"shard failures: {self.shard_failures}, "
            f"rebalances: {self.rebalances}",
            f"plan cache:   {self.plan_hits} full hits, "
            f"{self.template_hits} template hits, "
            f"{self.plan_misses} cold submissions "
            f"({self.templates_cached} templates cached, "
            f"{self.optimizer_runs} optimizer runs)",
            f"result cache: {self.result_hits}/{self.result_hits + self.result_misses} hits "
            f"({100 * self.result_hit_rate:.1f}%), "
            f"{self.result_patches} misses patched",
            f"statements:   {self.statement_hits}/"
            f"{self.statement_hits + self.statement_misses} hits "
            "(parse + canonicalize skipped)",
            f"throughput:   {self.throughput_qps:.1f} q/s over {self.uptime_s:.2f}s",
        ]
        for label, summary in (
            ("optimize", self.optimize),
            ("bind", self.bind),
            ("execute", self.execute),
            ("total", self.total),
        ):
            window = (
                f", window={summary.windowed}"
                if summary.windowed != summary.count
                else ""
            )
            lines.append(
                f"{label:>8} latency: p50={1e3 * summary.p50:.2f}ms "
                f"p95={1e3 * summary.p95:.2f}ms p99={1e3 * summary.p99:.2f}ms "
                f"(n={summary.count}{window}) "
                f"mean={1e3 * summary.mean:.2f}ms total={summary.total:.3f}s"
            )
        for gauge in self.shard_workers:
            if gauge.stale:
                lines.append(
                    f"shard {gauge.shard} worker: STALE (probe failed)"
                )
                continue
            lines.append(
                f"shard {gauge.shard} worker: "
                f"{gauge.inflight}/{gauge.max_concurrency} inflight "
                f"(queue {gauge.queue_depth}, peak {gauge.peak_inflight}), "
                f"{gauge.tasks_run} tasks"
            )
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)
