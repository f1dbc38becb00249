"""The serving pipeline: every door of the service runs
:meth:`Pipeline._serve`.

Resolving goes through the cache hierarchy of
:mod:`repro.service.cache` — the optimizer+coster pipeline runs once
per template, and constants are late-bound into its compiled task specs
— then executes under the store's read lock on the configured engine,
over a single store or the :mod:`repro.cluster` layer.
``ServiceConfig.max_inflight`` admission-controls the pipeline: beyond
that many concurrently executing submissions a door raises
:class:`ServiceOverloaded` instead of queueing without bound.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator

from repro.core.algorithm import OptimizerResult, cost_bounded_search
from repro.core.logical import LogicalPlan, rewrite_patterns
from repro.cost.model import select_best_plan
from repro.mapreduce.counters import ExecutionReport
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.trace import SpanRef, TraceSink, activate, record_remote, stage
from repro.partitioning.layout import read_keys
from repro.physical.executor import ExecutionResult, PreparedPlan
from repro.service.cache import (
    PlanCache,
    PlanEntry,
    ResultCache,
    ResultEntry,
    SingleFlight,
    TemplateCache,
    TemplateEntry,
)
from repro.service.front import _Clocks, _Instance
from repro.service.stats import QueryTimings, event_counters, stage_histograms
from repro.sparql.ast import BGPQuery
from repro.sparql.canonical import QueryTemplate
from repro.systems.base import SystemReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.service import ServiceConfig


class ServiceOverloaded(RuntimeError):
    """Raised when the service is at ``max_inflight`` and rejects work.

    Admission control: rejecting instantly at the door (instead of
    queueing without bound) keeps latency predictable under overload —
    the caller sees a typed error and can retry with backoff.  Rejected
    submissions are counted in ``snapshot_stats().rejected``.
    """


class _Admission:
    """``max_inflight`` as an object: a non-blocking pool of in-flight
    slots that counts what it turns away in *rejected*."""

    def __init__(self, limit: int | None, rejected: Counter) -> None:
        self.limit = limit
        self._slots = None if limit is None else threading.Semaphore(limit)
        self._rejected = rejected

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
                self._rejected.inc(submissions)
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
    #: the graph version the answer was computed at; it stays valid
    #: until one of the files its scans read is written
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


class Pipeline:
    """The serving pipeline of a
    :class:`~repro.service.service.QueryService`.

    It owns the plan, template and result caches, the single-flight
    registries, admission, the trace sink and the slow ring, and counts
    each submission once.  It takes instances from the front door
    (``_instance``) and reads the engine state the administration part
    writes (``_store_lock``, ``_version``, ``coster``).
    """

    def __init__(self, config: "ServiceConfig", registry: MetricsRegistry) -> None:
        self.plan_cache = PlanCache(config.plan_cache_size)
        self.template_cache = TemplateCache(config.template_cache_size)
        self.result_cache = ResultCache(config.result_cache_size)
        #: identical in-flight instances share one computation, and
        #: concurrent optimizations of one template share one search
        self._flights = SingleFlight()
        self._template_flights = SingleFlight()
        self._counts = event_counters(
            registry,
            "submitted", "coalesced", "result_hits", "result_misses",
            "plan_hits", "plan_misses", "template_hits", "optimizer_runs",
            "rejected", "errors",
        )
        self._stage_seconds = stage_histograms(
            registry, "optimize", "bind", "execute", "total"
        )
        self._admission = _Admission(config.max_inflight, self._counts["rejected"])
        #: bounded retention of completed query traces (tracing config
        #: knob or explain_analyze); export via export_chrome_trace().
        self.trace_sink = TraceSink()
        #: recent slow submissions (config.slow_query_s), oldest first.
        #: Advisory ring: appended per query, read racily by
        #: slow_queries() — deque append is atomic, never synchronized.
        self._slow_queries: deque = deque(maxlen=32)
        #: encoded request bytes of the most recent sharded query
        #: (sum over shards) — surfaced by EXPLAIN's wire line.  Advisory:
        #: written per query, read racily by EXPLAIN, never synchronized.
        self._last_wire_bytes: int | None = None

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
        clocks: _Clocks | None = None,
        started: float | None = None,
        admitted: bool = False,
        force_trace: bool = False,
    ) -> tuple[QueryOutcome, _Answer]:
        """The one serving pipeline; every door is a thin caller.

        front door (parse + instantiate, or a statement-cache hit) →
        admit → open the trace → resolve → project → count → close the
        trace.  Callers that have already paid for a stage pass its
        product: a :class:`~repro.service.front.BoundQuery` its *inst*
        (no clock reads: it parsed nothing), a batch leader its *inst*
        and *clocks* (with a query object), a batch its own *started*
        (members measure submission-to-availability) and *admitted*
        (the batch was admitted as a unit).  The answer rides along for
        a batch to project its duplicates from.

        The trace is rooted at *started* and its root is the active
        contextvar span for everything below — down to RPC frames and
        shard-worker spans; the stages that ran before it opened (parse,
        canonicalize) are recorded from their clock reads, zero-width
        and ``cached=True`` on a statement-cache hit.  A pool thread
        serving a batch leader gets a trace of its own: the contextvar
        is per-thread.
        """
        self._check_open()
        if started is None:
            started = time.perf_counter()
        if inst is None:
            query, inst, clocks = self._instance(query, name)
        slots = 0 if admitted else self._admission.admit()
        try:
            with self._trace(
                query.name or "query", started, force_trace
            ) as ref:
                trace_id = ""
                if ref is not None:
                    trace_id = ref.trace_id
                    if clocks is not None:
                        ctx = ref.ctx()
                        marks = {"cached": True} if clocks.cached else {}
                        if clocks.parsed is not None:
                            record_remote(ctx, "parse", *clocks.parsed, **marks)
                        record_remote(
                            ctx, "canonicalize", *clocks.canonicalized, **marks
                        )
                answer, coalesced = self._resolve(inst)
                outcome = self._finish(
                    query, inst, clocks, answer, coalesced, started, trace_id
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
        #: per member: its exception, or (query, instance, clock reads)
        members: list[tuple[BGPQuery, _Instance, _Clocks] | BaseException] = []
        for q in queries:
            try:
                members.append(self._instance(q))
            except ValueError as exc:
                if not return_exceptions:
                    raise
                members.append(exc)
        if not members:
            return []
        slots = self._admission.admit(
            sum(1 for m in members if not isinstance(m, BaseException))
        )
        try:
            pool = self._ensure_pool()
            #: instance key -> the pipeline run of the first member with it
            leaders: dict[tuple, Future] = {}
            #: per member: its exception, or (member, run, leads it)
            runs: list = []
            for member in members:
                if isinstance(member, BaseException):
                    runs.append(member)
                    continue
                query, inst, clocks = member
                run = None if inst.key is None else leaders.get(inst.key)
                leads = run is None
                if leads:
                    run = pool.submit(
                        self._serve, query, inst=inst, clocks=clocks,
                        started=started, admitted=True,
                    )
                    if inst.key is not None:
                        leaders[inst.key] = run
                runs.append((member, run, leads))
            outcomes: list[QueryOutcome | BaseException] = []
            for item in runs:
                if isinstance(item, BaseException):
                    outcomes.append(item)
                    continue
                (query, inst, clocks), run, leads = item
                try:
                    outcome, answer = run.result()
                except Exception as exc:
                    # Whoever computed already counted the error.
                    if not return_exceptions:
                        raise
                    outcomes.append(exc)
                    continue
                if not leads:
                    outcome = self._finish(
                        query, inst, clocks, answer, True, started,
                        outcome.trace_id,
                    )
                outcomes.append(outcome)
            return outcomes
        finally:
            self._admission.release(slots)

    # -- resolve -----------------------------------------------------------

    def _resolve(self, inst: _Instance) -> tuple[_Answer, bool]:
        """Answer a bound instance, via caches and single-flight (or,
        without a key, by computing it outright).  Returns ``(answer,
        coalesced)``; ``coalesced`` is True for a flight's waiters."""
        if inst.key is None:
            return self._compute(inst), False
        stamp_of = self.store.file_stamp
        while True:
            entry = self.result_cache.get_current(inst.key, stamp_of)
            if entry is not None:
                return _Answer(entry), False
            answer, reused = self._flights.run(
                inst.key, lambda: self._compute(inst)
            )
            found = answer.entry
            if reused and stamp_of(found.footprint) != found.stamp:
                # The flight predates a write to a file it read that
                # committed after we joined; its rows are stale for us.
                # Recompute at the current version instead of serving them.
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
        live PreparedQuery whose template the cache's LRU has since
        dropped — the seed is used directly, without resurrecting it
        into the shared cache).  An uncacheable query's template is
        built for it alone.
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
        self._counts["optimizer_runs"].inc()
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
        execute.  Whoever computes counts the error a failure is."""
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
                    footprint=read_keys(prepared.plan.query.patterns),
                    plan_count=tentry.plan_count,
                    truncated=tentry.truncated,
                )
                if cacheable:
                    self.plan_cache.put(inst.key, entry)
            # The wait for the read side is part of the stage.
            with stage("execute", plan_hit=plan_hit) as execute:
                with self._store_lock.read():
                    version = self._version
                    stamp = self.store.file_stamp(entry.footprint)
                    result = self.executor.execute_prepared(entry.prepared)
        except BaseException:
            self._counts["errors"].inc()
            raise
        found = ResultEntry(
            version=version,
            footprint=entry.footprint,
            stamp=stamp,
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

    # -- the tail ------------------------------------------------------------

    def _finish(
        self,
        query: BGPQuery,
        inst: _Instance,
        clocks: _Clocks | None,
        answer: _Answer,
        coalesced: bool,
        started: float,
        trace_id: str,
    ) -> QueryOutcome:
        """The pipeline's tail: map a canonical-space answer back onto
        *query*'s variables, then count the submission (registry, slow
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
        timings = QueryTimings(
            canonicalize_s=(
                0.0
                if clocks is None
                else clocks.canonicalized[1] - clocks.canonicalized[0]
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
        counts = self._counts
        seconds = self._stage_seconds
        # One submission's events and stage samples, seen together.
        with self.registry.update_lock:
            counts["submitted"].inc()
            if coalesced:
                counts["coalesced"].inc()
            if answer.result_hit:
                # A result hit never consults the plan cache.
                counts["result_hits"].inc()
            else:
                counts["result_misses"].inc()
                if coalesced:
                    # The submission rode a flight another query started:
                    # it paid for neither optimization nor execution, so
                    # count it as amortized (a hit) and sample no stage.
                    counts["plan_hits"].inc()
                elif answer.plan_hit:
                    counts["plan_hits"].inc()
                    seconds["execute"].observe(timings.execute_s)
                elif answer.template_hit:
                    # New constants bound into a cached template: the
                    # optimizer was skipped, only bind + execute ran.
                    counts["template_hits"].inc()
                    seconds["bind"].observe(timings.bind_s)
                    seconds["execute"].observe(timings.execute_s)
                else:
                    counts["plan_misses"].inc()
                    seconds["optimize"].observe(timings.optimize_s)
                    seconds["bind"].observe(timings.bind_s)
                    seconds["execute"].observe(timings.execute_s)
            seconds["total"].observe(timings.total_s)
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
