"""Service telemetry: per-query timings and aggregate statistics.

The service records one :class:`QueryTimings` per submission and folds
it into a :class:`ServiceStats` accumulator; :meth:`ServiceStats.snapshot`
produces an immutable summary (hit rates, latency percentiles,
throughput) suitable for logging or assertion in benchmarks.

The accumulator is backed by a :class:`repro.obs.metrics.MetricsRegistry`
(counters for event totals, fixed-bucket histograms for the latency
series), so the same numbers are exposed via
``QueryService.render_prometheus()``.  Percentiles are computed over a
bounded reservoir of the most recent ``window`` samples per series (a
long-lived service does not grow without bound); ``count``/``mean``/
``total`` come from the histograms and are therefore *exact over the
whole series* — the pre-obs implementation silently computed them over
the window too, under-reporting totals once a series wrapped.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.locks import checked
from repro.obs.metrics import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.rpc import StatsReply


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]); 0.0 on no samples."""
    if not samples:
        return 0.0
    if not 0 <= p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class LatencySummary:
    """Summary of one latency series, in seconds.

    ``count``/``mean``/``total`` cover the *entire* series;
    ``p50``/``p95``/``p99`` are nearest-rank percentiles over the most
    recent ``windowed`` samples (the bounded reservoir).
    """

    count: int
    p50: float
    p95: float
    p99: float
    mean: float
    total: float
    #: how many samples the percentiles were computed over
    windowed: int = 0

    @classmethod
    def of(cls, samples: list[float]) -> "LatencySummary":
        """Summary of an in-memory series (window == whole series)."""
        return cls._over(len(samples), sum(samples), samples)

    @classmethod
    def of_series(
        cls, histogram: Histogram, window: list[float]
    ) -> "LatencySummary":
        """Exact running totals from *histogram*, percentiles from the
        recent *window* reservoir."""
        return cls._over(histogram.count, histogram.sum, window)

    @classmethod
    def _over(
        cls, count: int, total: float, window: list[float]
    ) -> "LatencySummary":
        if count == 0:
            return cls(count=0, p50=0.0, p95=0.0, p99=0.0, mean=0.0, total=0.0)
        return cls(
            count=count,
            p50=percentile(window, 50),
            p95=percentile(window, 95),
            p99=percentile(window, 99),
            mean=total / count,
            total=total,
            windowed=len(window),
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
    #: coalesced ExecuteBatch frames served
    batches: int = 0
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
            batches=reply.batches,
        )


@dataclass(frozen=True)
class StatsSnapshot:
    """Immutable aggregate view of a service's lifetime."""

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
            f"({100 * self.result_hit_rate:.1f}%)",
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
                f"{gauge.tasks_run} tasks, {gauge.batches} batches"
            )
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)


#: StatsSnapshot counter field -> ``repro_service_events_total`` label.
_EVENTS = (
    "submitted",
    "errors",
    "plan_hits",
    "plan_misses",
    "template_hits",
    "optimizer_runs",
    "result_hits",
    "result_misses",
    "coalesced",
    "mutations",
    "rejected",
    "shard_failures",
    "rebalances",
    "statement_hits",
    "statement_misses",
)

#: Latency series recorded per query stage.
_STAGES = ("optimize", "bind", "execute", "total")


@dataclass
class ServiceStats:
    """Mutable accumulator behind the service front end.

    Counters and latency histograms live in a
    :class:`~repro.obs.metrics.MetricsRegistry` (families
    ``repro_service_events_total{event=...}`` and
    ``repro_query_stage_seconds{stage=...}``); the bounded per-stage
    deques only feed the windowed percentiles.  ``_lock`` serializes
    writers so one query's multi-counter update is not interleaved.
    """

    window: int = 4096
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    warnings: list = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=lambda: checked(threading.Lock(), "ServiceStats._lock"),
        repr=False,
    )
    _started: float = field(default_factory=time.monotonic, repr=False)

    def __post_init__(self) -> None:
        events = self.registry.counter(
            "repro_service_events_total",
            "Lifetime service event counts by kind.",
            labels=("event",),
        )
        self._events = {name: events.labels(event=name) for name in _EVENTS}
        stages = self.registry.histogram(
            "repro_query_stage_seconds",
            "Per-stage query latency (optimize/bind/execute/total).",
            labels=("stage",),
        )
        self._series = {name: stages.labels(stage=name) for name in _STAGES}
        self._windows = {
            name: deque(maxlen=self.window) for name in _STAGES
        }
        self._node_moves = self.registry.counter(
            "repro_node_moves_total",
            "Nodes handled by topology rebalances, by migration phase.",
            labels=("phase",),
        )

    def _count(self, event: str, amount: int = 1) -> None:
        self._events[event].inc(amount)

    def _observe(self, stage: str, value: float) -> None:
        self._series[stage].observe(value)
        self._windows[stage].append(value)

    def record_query(
        self,
        timings: QueryTimings,
        *,
        plan_hit: bool,
        result_hit: bool,
        template_hit: bool = False,
        coalesced: bool = False,
    ) -> None:
        with self._lock:
            self._count("submitted")
            if coalesced:
                self._count("coalesced")
            if result_hit:
                self._count("result_hits")
                # A result hit never consults the plan cache.
            else:
                self._count("result_misses")
                if coalesced:
                    # The submission rode a flight another query started:
                    # it paid for neither optimization nor execution, so
                    # count it as amortized (a hit) and record no samples.
                    self._count("plan_hits")
                elif plan_hit:
                    self._count("plan_hits")
                    self._observe("execute", timings.execute_s)
                elif template_hit:
                    # New constants bound into a cached template: the
                    # optimizer was skipped, only bind + execute ran.
                    self._count("template_hits")
                    self._observe("bind", timings.bind_s)
                    self._observe("execute", timings.execute_s)
                else:
                    self._count("plan_misses")
                    self._observe("optimize", timings.optimize_s)
                    self._observe("bind", timings.bind_s)
                    self._observe("execute", timings.execute_s)
            self._observe("total", timings.total_s)

    def record_statement(self, hit: bool) -> None:
        """Count one statement-cache lookup (parse + canonicalize)."""
        self._count("statement_hits" if hit else "statement_misses")

    def record_error(self) -> None:
        self._count("errors")

    def record_rejection(self, count: int = 1) -> None:
        """Count submissions turned away by admission control."""
        self._count("rejected", count)

    def record_shard_failure(self, shard: int, message: str) -> None:
        """A shard worker died (or failed to respawn) under the RPC
        transport; surfaced through admission stats and warnings."""
        self._count("shard_failures")
        self.record_warning(f"shard {shard} worker failure: {message}")

    def record_optimizer_run(self) -> None:
        """Count one actual CliqueSquare optimizer invocation."""
        self._count("optimizer_runs")

    def record_mutation(self) -> None:
        self._count("mutations")

    def record_rebalance(self, phases: dict[str, int]) -> None:
        """Count one topology rebalance; *phases* maps migration phase
        (``plan``/``prime``/``delta``/``flip``) → nodes handled there,
        feeding ``repro_node_moves_total{phase=...}``."""
        with self._lock:
            self._count("rebalances")
            for phase, count in phases.items():
                self._node_moves.labels(phase=phase).inc(count)

    def record_warning(self, message: str) -> None:
        """Record an operational warning (deduplicated, kept forever)."""
        with self._lock:
            if message not in self.warnings:
                self.warnings.append(message)

    def _summary(self, stage: str) -> LatencySummary:
        return LatencySummary.of_series(
            self._series[stage], list(self._windows[stage])
        )

    def snapshot(
        self,
        graph_version: int = 0,
        templates_cached: int = 0,
        shard_workers: tuple[ShardWorkerGauge, ...] = (),
    ) -> StatsSnapshot:
        with self._lock:
            # _EVENTS names the StatsSnapshot counter fields.
            return StatsSnapshot(
                **{name: int(c.value) for name, c in self._events.items()},
                templates_cached=templates_cached,
                graph_version=graph_version,
                uptime_s=time.monotonic() - self._started,
                optimize=self._summary("optimize"),
                bind=self._summary("bind"),
                execute=self._summary("execute"),
                total=self._summary("total"),
                warnings=tuple(self.warnings),
                shard_workers=shard_workers,
            )
