"""Observability (repro.obs) and its service surfaces.

Covers: the tracing core (span nesting, noop-when-off, bounded sink,
Chrome export), the metrics registry (counters/gauges/histograms +
Prometheus exposition), service-level tracing (explain_analyze, slow
query log, per-query trace ids, contextvar isolation under concurrent
submissions), and — under the rpc transport — cross-process span
propagation: the service's own, including the respawn-retry span when
a worker dies mid-workload and stale worker gauges when a probe fails,
and a bare executor's over the wire matrix {pickle, columnar} ×
{pipelined, coalesced}.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    SpanAccumulator,
    TraceSink,
    activate,
    attach_worker_spans,
    current_ref,
    record_remote,
    span,
    trace_ctx,
)
from repro.service import QueryService, ServiceConfig
from tests.conformance import needs_rpc, prepare_text, rpc_executor, shard_client
from tests.conftest import make_university_graph

STAR_QUERY = (
    "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
    "?p rdf:type ub:FullProfessor . ?s rdf:type ub:Student }"
)

CHAIN_QUERY = (
    "SELECT ?p ?d WHERE { ?p ub:worksFor ?d . "
    "?p rdf:type ub:FullProfessor }"
)


#: automorphic: past a tiny canonicalization budget, so uncacheable
SYMMETRIC_QUERY = "SELECT ?a ?b WHERE { ?a ub:advisor ?b . ?b ub:advisor ?a }"


@pytest.fixture(scope="module")
def university():
    return make_university_graph()


def traced_service(graph, **overrides) -> QueryService:
    config = ServiceConfig(
        tracing=True,
        result_cache_size=overrides.pop("result_cache_size", 0),
        **overrides,
    )
    return QueryService(graph, config)


# -- tracing core --------------------------------------------------------------


class TestTraceCore:
    def test_spans_nest_under_the_active_ref(self):
        sink = TraceSink()
        t0 = time.perf_counter()
        ref = sink.start_trace("root", epoch=t0)
        with activate(ref):
            with span("outer", k=1):
                with span("inner"):
                    pass
        sink.finish_trace(ref.trace_id, time.perf_counter() - t0)
        trace = sink.get(ref.trace_id)
        # Completed spans append at exit: root first, then by finish time.
        assert {s.name for s in trace.spans} == {"root", "outer", "inner"}
        outer, inner = trace.find("outer")[0], trace.find("inner")[0]
        assert inner.parent_id == outer.span_id
        assert outer.attrs == {"k": 1}
        assert "outer" in trace.render()

    def test_span_is_noop_without_an_active_trace(self):
        assert current_ref() is None
        assert trace_ctx() is None
        with span("ignored") as s:
            s.set(k=1)  # must not raise on the shared no-op span

    def test_sink_evicts_oldest_and_caps_spans(self):
        sink = TraceSink(max_traces=2, span_cap=3)
        ids = []
        for i in range(3):
            ref = sink.start_trace(f"t{i}", epoch=0.0)
            ids.append(ref.trace_id)
            with activate(ref):
                for _ in range(5):  # over the cap: root + 2 kept
                    with span("s"):
                        pass
            sink.finish_trace(ref.trace_id, 1.0)
        assert sink.get(ids[0]) is None  # evicted
        trace = sink.get(ids[2])
        assert len(trace.spans) == 3
        assert trace.truncated == 3
        # record_remote against the evicted trace is a silent no-op
        assert record_remote((ids[0], 1), "late", 0.0, 0.1) is None

    def test_record_remote_attaches_from_any_thread(self):
        sink = TraceSink()
        ref = sink.start_trace("root", epoch=0.0)
        out = []
        thread = threading.Thread(
            target=lambda: out.append(
                record_remote(ref.ctx(), "remote", 1.0, 2.0, shard=3)
            )
        )
        thread.start()
        thread.join()
        assert out[0] is not None
        remote = sink.get(ref.trace_id).find("remote")[0]
        assert remote.start_s == pytest.approx(1.0)
        assert remote.duration_s == pytest.approx(1.0)
        assert remote.attrs["shard"] == 3

    def test_worker_spans_reanchor_at_the_rpc_window(self):
        sink = TraceSink()
        ref = sink.start_trace("root", epoch=0.0)
        rpc = record_remote(ref.ctx(), "rpc:level", 10.0, 11.0)
        # Worker records are relative to the worker's own frame-receipt
        # t0 (a different clock origin); attach re-anchors them at the
        # driver's rpc span start.
        acc = SpanAccumulator(t0=500.0)
        acc.record("queue_wait", 500.0, 500.25)
        ix = acc.record("execute", 500.25, 500.75, tasks=2)
        acc.record("task", 500.3, 500.5, parent=ix, index=0)
        attach_worker_spans(rpc, acc.packed(), anchor=10.0, shard=1)
        trace = sink.get(ref.trace_id)
        queue = trace.find("queue_wait")[0]
        assert queue.start_s == pytest.approx(10.0)
        assert queue.duration_s == pytest.approx(0.25)
        task = trace.find("task")[0]
        execute = trace.find("execute")[0]
        assert task.parent_id == execute.span_id
        assert all(s.attrs["shard"] == 1 for s in (queue, execute, task))

    def test_chrome_export_is_valid_trace_event_json(self, tmp_path):
        sink = TraceSink()
        ref = sink.start_trace("root", epoch=0.0)
        with activate(ref):
            with span("child"):
                pass
        sink.finish_trace(ref.trace_id, 0.5)
        path = tmp_path / "trace.json"
        count = sink.export_chrome_trace(str(path))
        events = json.loads(path.read_text())["traceEvents"]
        assert count == len(events)
        complete = [e for e in events if e.get("ph") == "X"]
        assert {e["name"] for e in complete} == {"root", "child"}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)


# -- metrics registry ----------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "Hits.", labels=("kind",))
        c.labels(kind="a").inc()
        c.labels(kind="a").inc(2)
        c.labels(kind="b").inc()
        g = reg.gauge("depth", "Queue depth.")
        g.set(4.0)
        h = reg.histogram("latency_seconds", "Latency.")
        for v in (0.5, 0.25, 0.25):
            h.observe(v)
        text = reg.render_prometheus()
        assert 'hits_total{kind="a"} 3' in text
        assert "depth 4" in text
        assert "latency_seconds_count 3" in text
        assert "latency_seconds_sum 1" in text
        assert 'le="+Inf"' in text
        snap = reg.snapshot()
        assert set(snap) >= {"hits_total", "depth", "latency_seconds"}
        assert snap["latency_seconds"]["series"][0]["count"] == 3

    def test_counters_only_go_up(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c_total").inc(-1)


# -- service tracing (in-process deployments) ---------------------------------


class TestServiceTracing:
    def test_tracing_off_records_nothing(self, university):
        with QueryService(university, ServiceConfig()) as service:
            outcome = service.submit(STAR_QUERY)
            assert outcome.trace_id == ""
            assert service.trace(outcome) is None
            assert service.trace_sink.trace_ids() == []

    def test_traced_submission_covers_every_driver_stage(self, university):
        with traced_service(university) as service:
            outcome = service.submit(STAR_QUERY, name="star")
            trace = service.trace(outcome)
            assert trace is not None and outcome.trace_id == trace.trace_id
            names = {s.name for s in trace.spans}
            assert {
                "star", "parse", "canonicalize", "optimize", "bind",
                "execute", "level",
            } <= names
            root = trace.spans[0]
            assert root.duration_s == pytest.approx(
                outcome.timings.total_s, rel=0.25, abs=0.05
            )
            # Children fit inside the root's window.
            assert all(
                s.start_s + s.duration_s <= root.duration_s + 0.05
                for s in trace.spans
            )

    def test_traced_sharded_inproc_has_shard_and_merge_spans(self, university):
        """A sharded submission is the engine's own span tree with one
        ``inproc:level`` span per shard beneath each phase, carrying the
        in-process worker's own breakdown as rpc's ``rpc:level`` does —
        and, with no per-shard reports left to fold, no ``merge`` span."""
        with traced_service(university, shards=2) as service:
            trace = service.trace(service.submit(STAR_QUERY))
            names = {s.name for s in trace.spans}
            assert {
                "prepare", "engine", "level", "map_phase", "reduce_phase",
                "inproc:level", "state_lock_wait", "execute", "task",
            } <= names
            assert "merge" not in names and "rpc:level" not in names
            by_id = {s.span_id: s for s in trace.spans}
            for shard_span in trace.find("inproc:level"):
                phase = by_id[shard_span.parent_id]
                assert phase.name == f"{shard_span.attrs['phase']}_phase"
            shards = {s.attrs["shard"] for s in trace.find("inproc:level")}
            assert shards == {0, 1}
            # The worker's spans (the driver's own ``execute`` stage
            # aside) nest under the level span of their shard.
            for worker_span in trace.find("state_lock_wait"):
                level = by_id[worker_span.parent_id]
                assert level.name == "inproc:level"
                assert worker_span.attrs["shard"] == level.attrs["shard"]

    def test_explain_analyze_renders_plan_and_spans(self, university):
        with QueryService(university, ServiceConfig()) as service:
            text = service.explain_analyze(STAR_QUERY, name="star")
            assert "== trace" in text
            for stage in ("parse", "canonicalize", "optimize", "execute"):
                assert stage in text
            # Forced tracing retained the trace even though the config
            # flag is off; ordinary submissions stay untraced.
            assert len(service.trace_sink.trace_ids()) == 1
            assert service.submit(STAR_QUERY).trace_id == ""

    def test_statement_hit_records_zero_width_cached_spans(self, university):
        """A repeat is a statement-cache hit: its trace still holds one
        parse and one canonicalize span, zero-width and marked cached,
        and explain_analyze shows them."""
        with traced_service(university) as service:
            cold = service.trace(service.submit(STAR_QUERY, name="star"))
            warm = service.trace(service.submit(STAR_QUERY, name="star"))
            for stage in ("parse", "canonicalize"):
                (miss,) = cold.find(stage)
                (hit,) = warm.find(stage)
                assert "cached" not in miss.attrs
                assert hit.attrs == {"cached": True}
                assert hit.duration_s == 0.0
            text = service.explain_analyze(STAR_QUERY, name="star")
            assert "parse  0.000 ms  [cached=True]" in text
            assert "canonicalize  0.000 ms  [cached=True]" in text

    def test_slow_query_log_catches_over_threshold(self, university):
        with traced_service(university, slow_query_s=0.0) as service:
            outcome = service.submit(STAR_QUERY, name="slow")
            entries = service.slow_queries()
            assert entries and entries[-1]["query"] == "slow"
            assert entries[-1]["trace_id"] == outcome.trace_id
            assert entries[-1]["total_s"] >= 0.0
        with traced_service(university, slow_query_s=1e9) as service:
            service.submit(STAR_QUERY)
            assert service.slow_queries() == []

    def test_prometheus_exposition_counts_queries(self, university):
        with traced_service(university) as service:
            service.submit(STAR_QUERY)
            service.submit(CHAIN_QUERY)
            text = service.render_prometheus()
            assert 'repro_service_events_total{event="submitted"} 2' in text
            assert 'repro_query_stage_seconds_count{stage="total"} 2' in text
            assert "repro_traces_retained 2" in text
            assert 'repro_cache_entries{cache="plan"} 2' in text

    def test_contextvar_isolation_under_thread_interleave(self, university):
        """8 threads × distinct queries: every submission gets its own
        trace, and no span leaks into another thread's trace."""
        with traced_service(university) as service:
            outcomes: dict[int, object] = {}
            errors: list[BaseException] = []

            def work(i: int) -> None:
                try:
                    outcomes[i] = service.submit(
                        CHAIN_QUERY, name=f"q{i}"
                    )
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors and len(outcomes) == 8
            ids = {o.trace_id for o in outcomes.values()}
            assert len(ids) == 8
            for i, outcome in outcomes.items():
                trace = service.trace(outcome)
                assert trace.name == f"q{i}"
                # Exactly this submission's stages — one canonicalize,
                # one root; nothing interleaved from sibling threads.
                assert len(trace.find("canonicalize")) == 1
                assert trace.spans[0].name == f"q{i}"

    def test_batch_members_trace_independently(self, university):
        with traced_service(university) as service:
            outcomes = service.submit_batch([STAR_QUERY, CHAIN_QUERY])
            ids = [o.trace_id for o in outcomes]
            assert all(ids) and len(set(ids)) == 2

    def test_every_batch_member_is_traced(self, university):
        """Cacheable or not, leader or coalesced duplicate: a member of
        a default batch names a trace the service still holds (a
        duplicate its leader's), and the slow ring records it."""
        with traced_service(
            university, canonical_budget=2, slow_query_s=0.0
        ) as service:
            batch = [SYMMETRIC_QUERY, CHAIN_QUERY, CHAIN_QUERY, SYMMETRIC_QUERY]
            outcomes = service.submit_batch(batch)
            assert [o.cacheable for o in outcomes] == [False, True, True, False]
            assert [o.coalesced for o in outcomes] == [False, False, True, False]
            for outcome in outcomes:
                trace = service.trace(outcome)
                assert trace is not None and trace.find("execute")
            assert outcomes[2].trace_id == outcomes[1].trace_id
            assert len({o.trace_id for o in outcomes}) == 3
            assert sorted(e["trace_id"] for e in service.slow_queries()) == (
                sorted(o.trace_id for o in outcomes)
            )

    def test_explain_analyze_renders_the_outcome_it_produced(self, university):
        """One submission, no second prepare: an uncacheable query gets
        its plan and span tree back instead of a budget error after it
        ran, and a cacheable one costs no phantom template-cache hit."""
        with QueryService(
            university, ServiceConfig(canonical_budget=2)
        ) as service:
            text = service.explain_analyze(SYMMETRIC_QUERY, name="sym")
            assert "== logical plan" in text and "== trace" in text
            assert "template" not in text.splitlines()[0]
            snapshot = service.snapshot_stats()
            assert (snapshot.submitted, snapshot.errors) == (1, 0)
            text = service.explain_analyze(CHAIN_QUERY)
            assert "; template " in text.splitlines()[0]
            assert service.snapshot_stats().submitted == 2
            assert service.template_cache.hits == 0


# -- rpc propagation matrix ----------------------------------------------------


def _assert_rpc_trace(trace, shards=(0, 1)):
    """The acceptance shape: per-level rpc spans carrying the workers'
    own breakdown, re-anchored inside the driver's rpc window, between
    the driver's own wire spans — together at least nine tenths of the
    level, so a slow hop always says where it was slow."""
    rpc_levels = trace.find("rpc:level")
    assert rpc_levels, trace.render()
    assert {s.attrs["shard"] for s in rpc_levels} == set(shards)
    for name in (
        "wire:encode", "decode", "queue_wait", "state_lock_wait",
        "execute", "wire:decode",
    ):
        spans = trace.find(name)
        assert spans, f"missing span {name}:\n{trace.render()}"
    by_id = {s.span_id: s for s in trace.spans}
    for rpc in rpc_levels:
        children = [
            s for s in trace.spans if s.parent_id == rpc.span_id
        ]
        assert children, "worker spans must nest under their rpc span"
        for child in children:
            assert child.start_s >= rpc.start_s - 1e-6
            assert child.attrs.get("shard") == rpc.attrs["shard"]
        assert {"wire:encode", "decode", "wire:decode"} <= {
            child.name for child in children
        }
        accounted = sum(child.duration_s for child in children)
        assert accounted >= 0.9 * rpc.duration_s, trace.render()
    # Worker execute spans carry task counts; driver total bounds all.
    root = trace.spans[0]
    assert all(
        s.start_s <= root.duration_s + 0.1 for s in trace.spans
    ), trace.render()
    assert by_id  # silence linters; the mapping itself was the check


def traced_execution(sink, executor, prepared, name: str):
    """Run one prepared plan on *executor* under a fresh trace of *sink*
    (the root a service opens per submission); returns the trace."""
    t0 = time.perf_counter()
    ref = sink.start_trace(name, epoch=t0)
    with activate(ref):
        executor.execute_prepared(prepared)
    sink.finish_trace(ref.trace_id, time.perf_counter() - t0)
    return sink.get(ref.trace_id)


@needs_rpc
class TestRpcTracePropagation:
    # The wire and the modes the service does not run (it ships the
    # columnar wire, default pipeline, no coalescing) at the level that
    # still offers them: a bare ShardedPlanExecutor under a trace.

    @pytest.mark.parametrize("wire", ["pickle", "columnar"])
    @pytest.mark.parametrize(
        "mode",
        ["pipelined", "coalesced"],
    )
    def test_worker_spans_ship_back_over_the_wire(
        self, university, wire, mode
    ):
        options = dict(wire_format=wire)
        if mode == "coalesced":
            options.update(coalesce_window_ms=4.0, coalesce_max_batch=4)
        with rpc_executor(university, **options) as executor:
            sink = TraceSink()
            plan = prepare_text(executor, STAR_QUERY)
            trace = traced_execution(sink, executor, plan, "rpc-star")
            _assert_rpc_trace(trace)

    def test_coalesced_queries_fan_spans_back_per_flight(self, university):
        with rpc_executor(
            university, coalesce_window_ms=25.0, coalesce_max_batch=8
        ) as executor:
            sink = TraceSink()
            plans = [prepare_text(executor, q) for q in (STAR_QUERY, CHAIN_QUERY)]
            traces: list = [None, None]

            def run(i: int) -> None:
                traces[i] = traced_execution(sink, executor, plans[i], f"q{i}")

            threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert all(t is not None for t in traces)
            for trace in traces:
                _assert_rpc_trace(trace)
            # A genuinely shared batch marks its members; whether the
            # two queries' levels actually landed in one window is
            # timing-dependent, so only check the attr's consistency.
            for trace in traces:
                for s in trace.find("rpc:level"):
                    assert s.attrs.get("coalesced", 1) >= 1

    def test_worker_kill_mid_workload_records_retry_span(self, university):
        from repro.cluster import RpcShardRouter

        with traced_service(
            university, shards=2, shard_transport="rpc"
        ) as service:
            first = service.trace(service.submit(STAR_QUERY, name="rpc-star"))
            _assert_rpc_trace(first)
            names = {s.name for s in first.spans}
            assert {"parse", "canonicalize", "optimize", "execute"} <= names
            router = service.executor.router
            assert isinstance(router, RpcShardRouter)
            victim = shard_client(router, 0)
            victim.process.kill()
            victim.process.join(timeout=10)
            # Defeat the pre-send liveness check so the death is
            # discovered *in flight* — the mid-workload crash shape —
            # and the request exercises the respawn-retry path instead
            # of recovering before the first send.
            victim.alive = lambda: True
            outcome = service.submit(STAR_QUERY, name="retried")
            trace = service.trace(outcome)
            retries = trace.find("rpc:retry")
            assert retries, trace.render()
            assert retries[0].attrs["shard"] == 0
            assert retries[0].duration_s > 0
            # The retried level still shipped its worker breakdown.
            _assert_rpc_trace(trace)

    def test_failed_probe_surfaces_as_stale_gauge(self, university):
        with traced_service(
            university, shards=2, shard_transport="rpc"
        ) as service:
            service.submit(STAR_QUERY)
            router = service.executor.router
            live = router.worker_gauges()
            assert [s for s, _ in live] == [0, 1]
            assert all(r is not None for _, r in live)
            # Simulate a probe failing mid-flight (worker dying between
            # the liveness check and the Stats request).
            router.worker_gauges = lambda: [(0, None), (1, live[1][1])]
            snapshot = service.snapshot_stats()
            gauges = snapshot.shard_workers
            assert [g.shard for g in gauges] == [0, 1]
            assert gauges[0].stale and not gauges[1].stale
            assert "shard 0 worker: STALE (probe failed)" in snapshot.format()
            text = service.render_prometheus()
            assert 'repro_shard_worker{shard="0",field="stale"} 1' in text
