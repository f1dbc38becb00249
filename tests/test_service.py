"""Tests for repro.service: caching, invalidation, concurrency, stats."""

from __future__ import annotations

import gc
import math
import random
import re
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import plan_check
from repro.obs.metrics import DEFAULT_BUCKETS, RESERVOIR, Histogram, nearest_rank
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import RDF_TYPE
from repro.service import cache
from repro.service.cache import LRUCache
from repro.service import QueryService, ServiceConfig, ServiceOverloaded
from repro.sparql.evaluator import evaluate
from repro.sparql.parser import SparqlSyntaxError, parse_query
from repro.systems.csq import CSQ
from repro.workloads import lubm, lubm_queries
from repro.workloads.synthetic import random_query

ALL_NAMES = [f"Q{i}" for i in range(1, 15)]


@pytest.fixture(scope="module")
def graph():
    return lubm.generate(lubm.LUBMConfig(universities=4))


@pytest.fixture(scope="module")
def service(graph):
    with QueryService(graph) as svc:
        yield svc


def _rename(query, prefix):
    renamed = {v: f"?{prefix}{i}" for i, v in enumerate(query.variables())}
    body = " . ".join(
        " ".join(renamed.get(t, t) for t in (tp.s, tp.p, tp.o))
        for tp in query.patterns
    )
    head = " ".join(renamed[v] for v in query.distinguished)
    return parse_query(f"SELECT {head} WHERE {{ {body} }}")


class TestAnswers:
    def test_matches_csq_run_for_every_lubm_query(self, graph, service):
        """Acceptance: bit-identical answers to the classic CSQ path."""
        csq = CSQ(graph, ServiceConfig(num_nodes=service.config.num_nodes))
        for name in ALL_NAMES:
            q = lubm_queries.query(name)
            assert service.submit(q).rows == csq.run(q).answers, name

    def test_matches_reference_evaluator(self, graph, service):
        for name in ALL_NAMES:
            q = lubm_queries.query(name)
            assert service.submit(q).rows == evaluate(q, graph), name

    def test_accepts_query_strings(self, service):
        out = service.submit(
            "SELECT ?d WHERE { ?p ub:worksFor ?d }", name="adhoc"
        )
        assert out.query.name == "adhoc"
        assert out.cardinality > 0


class TestPlanCache:
    def test_repeat_hits_plan_cache(self, graph):
        with QueryService(graph, ServiceConfig(result_cache_size=0)) as svc:
            q = lubm_queries.query("Q9")
            cold = svc.submit(q)
            warm = svc.submit(q)
            assert not cold.plan_cache_hit
            assert warm.plan_cache_hit and not warm.result_cache_hit
            assert warm.timings.optimize_s == 0.0
            assert warm.rows == cold.rows

    def test_isomorphic_queries_share_plan(self, graph):
        with QueryService(graph, ServiceConfig(result_cache_size=0)) as svc:
            q = lubm_queries.query("Q6")
            cold = svc.submit(q)
            warm = svc.submit(_rename(q, "zz"))
            assert warm.plan_cache_hit
            assert warm.rows == cold.rows
            assert len(svc.plan_cache) == 1

    def test_column_order_follows_each_query(self, graph):
        with QueryService(graph, ServiceConfig(result_cache_size=0)) as svc:
            rows_xy = svc.submit(
                "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }"
            ).rows
            rows_yx = svc.submit(
                "SELECT ?s ?p WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }"
            ).rows
            assert rows_xy == {(p, s) for s, p in rows_yx}


class TestResultCache:
    def test_repeat_hits_result_cache(self, graph):
        with QueryService(graph) as svc:
            q = lubm_queries.query("Q2")
            cold = svc.submit(q)
            warm = svc.submit(q)
            assert not cold.result_cache_hit
            assert warm.result_cache_hit
            assert warm.rows == cold.rows

    def test_mutation_invalidates_results(self):
        graph = lubm.generate(lubm.LUBMConfig(universities=4))
        with QueryService(graph) as svc:
            q = parse_query(
                "SELECT ?x WHERE { ?x rdf:type ub:AssistantProfessor . "
                f"?x ub:doctoralDegreeFrom {lubm.UNIVERSITY0} }}"
            )
            before = svc.submit(q)
            assert svc.submit(q).result_cache_hit
            added = svc.add_triples(
                [
                    ("<NewProf>", "rdf:type", "ub:AssistantProfessor"),
                    ("<NewProf>", "ub:doctoralDegreeFrom", lubm.UNIVERSITY0),
                ]
            )
            assert added == 2
            assert svc.graph_version == before.graph_version + 1
            after = svc.submit(q)
            assert not after.result_cache_hit
            assert after.rows == before.rows | {("<NewProf>",)}
            # The stale answer was patched: no plan consulted, so check
            # that plans survive mutation (still correct, possibly
            # re-costed) in the cache itself.
            assert after.result_patched
            assert after.provenance["served_by"] == "result-patch"
            assert after.graph_version == svc.graph_version
            assert len(svc.plan_cache) == 1
            assert svc.snapshot_stats().optimizer_runs == 1

    def test_unrelated_write_keeps_the_hit(self):
        graph = lubm.generate(lubm.LUBMConfig(universities=4))
        with QueryService(graph) as svc:
            q = lubm_queries.query("Q2")
            before = svc.submit(q)
            assert svc.add_triples([("<NewProf>", "ub:worksFor", "<Dept>")]) == 1
            after = svc.submit(q)
            assert after.result_cache_hit
            assert after.rows == before.rows == evaluate(q, graph)
            # "computed at": the answer predates the write it survived
            assert after.graph_version == before.graph_version
            assert svc.graph_version == before.graph_version + 1

    def test_type_write_drops_only_readers_of_its_files(self):
        graph = lubm.generate(lubm.LUBMConfig(universities=4))
        with QueryService(graph) as svc:
            professors = parse_query(
                "SELECT ?x WHERE { ?x rdf:type ub:AssistantProfessor . "
                f"?x ub:doctoralDegreeFrom {lubm.UNIVERSITY0} }}"
            )
            classes = parse_query(
                "SELECT ?x ?c WHERE { ?x rdf:type ?c . "
                f"?x ub:doctoralDegreeFrom {lubm.UNIVERSITY0} }}"
            )
            svc.submit(professors)
            svc.submit(classes)
            svc.add_triples([("<NewGrad>", "rdf:type", "ub:GraduateStudent")])
            kept = svc.submit(professors)
            patched = svc.submit(classes)
            assert kept.result_cache_hit and not patched.result_cache_hit
            assert not kept.result_patched and patched.result_patched
            assert kept.rows == evaluate(professors, graph)
            assert patched.rows == evaluate(classes, graph)
            assert svc.result_cache.stale_drops == 0
            assert svc.snapshot_stats().result_patches == 1
            exposition = svc.render_prometheus()
            assert "repro_result_cache_stale_drops 0" in exposition
            assert "repro_result_patches_total 1" in exposition

    def test_variable_property_query_is_dropped_by_any_write(self):
        graph = lubm.generate(lubm.LUBMConfig(universities=4))
        with QueryService(graph) as svc:
            q = parse_query(
                f"SELECT ?p ?o WHERE {{ {lubm.UNIVERSITY0} ?p ?o }}"
            )
            before = svc.submit(q)
            assert svc.submit(q).result_cache_hit
            svc.add_triples([("<s>", "<brand-new-p>", "<o>")])
            after = svc.submit(q)
            assert not after.result_cache_hit
            assert after.rows == before.rows == evaluate(q, graph)

    def test_mutation_refreshes_statistics(self, graph):
        svc = QueryService(lubm.generate(lubm.LUBMConfig(universities=4)))
        before = svc.catalog.triple_count
        svc.add_triples([("<s>", "<brand-new-p>", "<o>")])
        assert svc.catalog.triple_count == before + 1
        assert "<brand-new-p>" in svc.catalog.per_property
        assert svc.estimator.stats is svc.catalog
        svc.close()

    def test_duplicate_add_is_noop(self, graph):
        svc = QueryService(lubm.generate(lubm.LUBMConfig(universities=4)))
        triple = next(iter(svc.graph))
        version = svc.graph_version
        assert svc.add_triples([triple]) == 0
        assert svc.graph_version == version
        svc.close()


#: the differential test's vocabulary: two properties the queries read,
#: one only the variable-property query reads, rdf:type over three
#: classes (one no query names)
NODES = tuple(f"<n{i}>" for i in range(4))
CLASSES = ("ub:C1", "ub:C2", "ub:C3")
BASE = (
    ("<n0>", "ub:p1", "<n1>"),
    ("<n1>", "ub:p2", "<n2>"),
    ("<n2>", "ub:p1", "<n3>"),
    ("<n1>", RDF_TYPE, "ub:C1"),
    ("<n2>", RDF_TYPE, "ub:C2"),
    ("<n3>", "ub:p3", "<n0>"),
)
#: query text -> the file keys it reads (None: every file)
DIFFERENTIAL_QUERIES = {
    "SELECT ?x ?z WHERE { ?x ub:p1 ?y . ?y ub:p2 ?z }": {
        ("ub:p1", None), ("ub:p2", None),
    },
    "SELECT ?x WHERE { ?x rdf:type ub:C1 . ?x ub:p2 ?y }": {
        (RDF_TYPE, "ub:C1"), ("ub:p2", None),
    },
    "SELECT ?x ?c WHERE { ?x rdf:type ?c }": {(RDF_TYPE, None)},
    "SELECT ?y WHERE { <n0> ub:p1 ?y }": {("ub:p1", None)},
    "SELECT ?x ?p WHERE { ?x ?p ?y . ?y rdf:type ub:C2 }": None,
}

triples = st.one_of(
    st.tuples(
        st.sampled_from(NODES),
        st.sampled_from(("ub:p1", "ub:p2", "ub:p3")),
        st.sampled_from(NODES),
    ),
    st.tuples(
        st.sampled_from(NODES), st.just(RDF_TYPE), st.sampled_from(CLASSES)
    ),
    st.sampled_from(BASE),  # a duplicate: no file moves
)
steps = st.lists(
    st.tuples(
        st.lists(triples, max_size=3),
        st.lists(st.sampled_from(sorted(DIFFERENTIAL_QUERIES)), max_size=5),
    ),
    min_size=1,
    max_size=6,
)


@pytest.mark.parametrize("shards", [0, 2])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(steps=steps)
def test_writes_and_reads_match_the_evaluator(shards, steps):
    """Interleaved add_triples batches and submits answer what the
    evaluator does on a mirror graph, and a submit is a result-cache hit
    exactly when its query ran before and no file it reads was written
    since (a duplicate triple writes nothing)."""
    mirror = RDFGraph(BASE)
    queries = {text: parse_query(text) for text in DIFFERENTIAL_QUERIES}
    fresh: set[str] = set()
    with QueryService(RDFGraph(BASE), ServiceConfig(shards=shards)) as svc:
        for batch, reads in steps:
            added = [t for t in dict.fromkeys(batch) if mirror.add(*t)]
            assert svc.add_triples(batch) == len(added)
            written = {(p, None) for _, p, _ in added}
            written |= {(p, o) for _, p, o in added if p == RDF_TYPE}
            for text in list(fresh):
                keys = DIFFERENTIAL_QUERIES[text]
                if written and (keys is None or keys & written):
                    fresh.discard(text)
            for text in reads:
                outcome = svc.submit(queries[text])
                assert outcome.rows == evaluate(queries[text], mirror), text
                assert outcome.result_cache_hit == (text in fresh), text
                fresh.add(text)


class TestConcurrency:
    def test_eight_way_parallel_submission_identical_answers(self, graph):
        """Acceptance: concurrency changes nothing about the answers."""
        with QueryService(graph) as svc:
            expected = {
                name: evaluate(lubm_queries.query(name), graph)
                for name in ALL_NAMES
            }
            mix = [lubm_queries.query(n) for n in ALL_NAMES * 2]
            random.Random(11).shuffle(mix)
            results: dict[int, set] = {}
            errors: list[BaseException] = []
            barrier = threading.Barrier(8)

            def worker(worker_id: int) -> None:
                try:
                    barrier.wait()
                    for i, q in enumerate(mix):
                        out = svc.submit(q)
                        assert out.rows == expected[q.name], q.name
                    results[worker_id] = set()
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(results) == 8
            snap = svc.snapshot_stats()
            assert snap.submitted == 8 * len(mix)
            # Every shape optimized at most once (single-flight + cache).
            assert snap.plan_misses <= len(ALL_NAMES)

    def test_submit_batch_coalesces_duplicates(self, graph):
        with QueryService(
            graph, ServiceConfig(result_cache_size=0, max_workers=4)
        ) as svc:
            mix = [lubm_queries.query(n) for n in ("Q2", "Q3", "Q2", "Q3", "Q2")]
            outcomes = svc.submit_batch(mix)
            assert [o.query.name for o in outcomes] == [q.name for q in mix]
            assert sum(o.coalesced for o in outcomes) == 3
            expected = {
                n: evaluate(lubm_queries.query(n), graph)
                for n in ("Q2", "Q3")
            }
            for out in outcomes:
                assert out.rows == expected[out.query.name]


class TestStats:
    def test_snapshot_counts_and_rates(self, graph):
        with QueryService(graph) as svc:
            q = lubm_queries.query("Q2")
            svc.submit(q)
            svc.submit(q)
            snap = svc.snapshot_stats()
            assert snap.submitted == 2
            assert snap.result_hits == 1 and snap.result_misses == 1
            assert snap.plan_misses == 1
            assert 0.0 < snap.result_hit_rate <= 0.5
            assert snap.throughput_qps > 0
            assert snap.total.count == 2
            assert "plan cache" in snap.format()

    def test_snapshot_and_prometheus_read_one_set_of_books(self, graph):
        """``snapshot_stats()`` and ``render_prometheus()`` are two views
        of one registry: every event counter, and every stage's sample
        count, read the same after a mixed run."""
        text = "SELECT ?d WHERE { ?p ub:worksFor ?d }"
        with QueryService(graph, ServiceConfig(max_inflight=1)) as svc:
            svc.submit(lubm_queries.query("Q2"))
            svc.submit(text)
            svc.submit(text)
            svc.submit_batch([text, lubm_queries.query("Q4"), text])
            svc.prepare(
                "SELECT ?p WHERE { ?p ub:worksFor ?d . "
                "?d ub:subOrganizationOf $uni }"
            ).execute(uni=lubm.university_iri(0))
            with pytest.raises(SparqlSyntaxError):
                svc.submit("SELECT ?x WHERE { ?x ub:worksFor")
            # An admission rejection: a submission knocks while another
            # holds the one in-flight slot.
            resolve = svc._resolve

            def knock(inst):
                with pytest.raises(ServiceOverloaded):
                    svc.submit(text)
                return resolve(inst)

            svc._resolve = knock
            svc.submit(lubm_queries.query("Q1"))
            del svc._resolve
            snap = svc.snapshot_stats()
            page = svc.render_prometheus()
        events = dict(
            re.findall(
                r'^repro_service_events_total\{event="(\w+)"\} (\d+)$',
                page,
                re.M,
            )
        )
        assert len(events) == 15
        assert {e: getattr(snap, e) for e in events} == {
            e: int(v) for e, v in events.items()
        }
        assert snap.rejected == 1 and snap.errors == 1
        assert snap.submitted == 8 and snap.coalesced == 1
        stages = dict(
            re.findall(
                r'^repro_query_stage_seconds_count\{stage="(\w+)"\} (\d+)$',
                page,
                re.M,
            )
        )
        assert set(stages) == {"optimize", "bind", "execute", "total"}
        for stage, count in stages.items():
            assert getattr(snap, stage).count == int(count), stage

    def test_percentile_nearest_rank(self):
        """A histogram's quantiles are exact nearest-rank over its
        reservoir, the last RESERVOIR samples; count and sum cover the
        whole series."""

        def quantile(histogram, q):
            return nearest_rank(sorted(histogram.window()[2]), q)

        histogram = Histogram(DEFAULT_BUCKETS)
        assert quantile(histogram, 99) == 0.0
        for sample in (4.0, 1.0, 3.0, 2.0):
            histogram.observe(sample)
        assert quantile(histogram, 50) == 2.0
        assert quantile(histogram, 100) == 4.0
        assert quantile(histogram, 0) == 1.0
        with pytest.raises(ValueError):
            quantile(histogram, 101)
        histogram = Histogram(DEFAULT_BUCKETS)
        # An outlier, then 1 .. RESERVOIR: one sample past the reservoir.
        samples = [1e9] + [float(i) for i in range(1, RESERVOIR + 1)]
        for sample in samples:
            histogram.observe(sample)
        assert histogram.count == RESERVOIR + 1
        assert histogram.sum == sum(samples)
        recent = histogram.window()[2]
        assert len(recent) == RESERVOIR and 1e9 not in recent
        assert quantile(histogram, 100) == RESERVOIR
        assert quantile(histogram, 50) == RESERVOIR // 2
        assert quantile(histogram, 95) == math.ceil(0.95 * RESERVOIR)


class TestLRUCache:
    def test_eviction_order(self):
        cache: LRUCache[str, int] = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_size_zero_disables(self):
        cache: LRUCache[str, int] = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


class TestLifecycleAndFailure:
    def test_failed_mutation_still_invalidates(self):
        """A mid-batch invalid triple must not leave stale cached results."""
        svc = QueryService(lubm.generate(lubm.LUBMConfig(universities=4)))
        q = lubm_queries.query("Q2")
        svc.submit(q)
        assert svc.submit(q).result_cache_hit
        with pytest.raises(ValueError):
            svc.add_triples(
                [
                    # Q2 reads this property's files.
                    ("<ok>", "ub:doctoralDegreeFrom", "<o>"),
                    ('"literal"', "<p>", "<o>"),  # rejected by validation
                ]
            )
        # The valid prefix was applied, so the version must have moved on.
        assert svc.graph_version == 1
        after = svc.submit(q)
        assert not after.result_cache_hit
        assert after.rows == evaluate(q, svc.graph)
        svc.close()

    def test_closed_service_rejects_work(self, graph):
        svc = QueryService(graph)
        q = lubm_queries.query("Q2")
        svc.submit(q)
        svc.close()
        with pytest.raises(RuntimeError):
            svc.submit(q)
        with pytest.raises(RuntimeError):
            svc.submit_batch([q, q])
        # One member takes the no-pool fast path: still refused.
        with pytest.raises(RuntimeError):
            svc.submit_batch([q])
        with pytest.raises(RuntimeError):
            svc.add_triples([("<s>", "<p>", "<o>")])

    @pytest.mark.parametrize("shards", [0, 2])
    def test_closed_service_is_freed_without_the_cycle_collector(self, graph, shards):
        # The executor's failure callbacks are bound to the stats, not to
        # the service: no service -> executor -> service cycle, so the
        # stores go when the last reference does, not at some later gen-2
        # collection (which made peak memory differ from run to run).
        gc.collect()
        gc.disable()
        try:
            svc = QueryService(graph, ServiceConfig(shards=shards))
            svc.submit(lubm_queries.query("Q2"))
            refs = [weakref.ref(o) for o in (svc, svc.store, svc.executor)]
            svc.close()
            del svc
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


class TestBatchErrorIsolation:
    def test_return_exceptions_isolates_failures(self, graph):
        with QueryService(graph) as svc:
            good = lubm_queries.query("Q2")
            outcomes = svc.submit_batch(
                [good, "SELECT ?x WHERE { ?x p }", good],
                return_exceptions=True,
            )
            assert len(outcomes) == 3
            assert outcomes[0].rows == outcomes[2].rows
            assert isinstance(outcomes[1], ValueError)

    def test_default_propagates_first_failure(self, graph):
        with QueryService(graph) as svc:
            with pytest.raises(ValueError):
                svc.submit_batch(
                    [lubm_queries.query("Q2"), "SELECT ?x WHERE { ?x p }"]
                )

    def test_batch_timings_populated(self, graph):
        with QueryService(graph, ServiceConfig(result_cache_size=0)) as svc:
            outcomes = svc.submit_batch(
                [lubm_queries.query("Q2"), lubm_queries.query("Q2")]
            )
            for out in outcomes:
                assert out.timings.total_s > 0
            assert any(o.timings.canonicalize_s > 0 for o in outcomes)


class TestMutationSwapsCostModel:
    def test_estimator_and_coster_rebuilt(self, graph):
        svc = QueryService(lubm.generate(lubm.LUBMConfig(universities=4)))
        old_estimator, old_coster = svc.estimator, svc.coster
        svc.add_triples([("<s>", "<p-new>", "<o>")])
        assert svc.estimator is not old_estimator
        assert svc.coster is not old_coster
        assert svc.estimator.stats is svc.catalog
        # The CSQ session surface tracks the swap instead of going stale.
        csq = CSQ(svc.graph, service=svc)
        assert csq.estimator is svc.estimator
        svc.add_triples([("<s2>", "<p-new2>", "<o2>")])
        assert csq.estimator is svc.estimator
        assert csq.stats is svc.catalog
        svc.close()


class TestAlwaysAPlan:
    """A search whose deadline passes before its first plan falls back
    to the first MSC+ plan instead of failing the submission, within
    the deadline plus the fallback's milliseconds."""

    @pytest.mark.parametrize("n,seed", [(13, 0), (13, 5), (14, 0), (14, 5)])
    def test_first_plan_timeout_falls_back_to_msc_plus(self, n, seed, monkeypatch):
        # REPRO_CHECK_PLANS=1 adds an exhaustive search (the optimal
        # height) to the optimize span: the deadline bounds the rest.
        checked: list[float] = []
        check = plan_check.check_plan_space

        def timed_check(*args, **kwargs):
            started = time.perf_counter()
            try:
                return check(*args, **kwargs)
            finally:
                checked.append(time.perf_counter() - started)

        monkeypatch.setattr(plan_check, "check_plan_space", timed_check)
        rng = random.Random(7)
        g = RDFGraph()
        values = [f"<e{i}>" for i in range(5)]
        for _ in range(150):
            g.add(rng.choice(values), f"p{rng.randrange(1, 15)}", rng.choice(values))
        # Thin shapes of 13-14 patterns: the MSC search needs seconds of
        # minimum-cover enumeration before its first plan.
        query = random_query(n, dense=False, rng=random.Random(seed))
        with QueryService(g, ServiceConfig(timeout_s=0.05, tracing=True)) as svc:
            outcome = svc.submit(query)
            assert outcome.rows == evaluate(query, g)
            (optimize,) = svc.trace(outcome).find("optimize")
            assert optimize.attrs["fallback"] == "MSC+"
            assert optimize.attrs["truncated"] and optimize.attrs["plans"] == 1
            # the search stops at its own deadline, not a grace period
            assert optimize.duration_s - sum(checked) < 0.25


class TestUncacheableQueries:
    def test_symmetric_queries_served_in_batch(self, graph):
        # Automorphic queries exceed a tiny canonicalization budget and
        # bypass the caches, but a batch must still answer them (and on
        # the pool, not serially on the calling thread).
        sym = parse_query(
            "SELECT ?a ?b WHERE { ?a ub:advisor ?b . ?b ub:advisor ?a }"
        )
        q2 = lubm_queries.query("Q2")
        with QueryService(graph, ServiceConfig(canonical_budget=2)) as svc:
            outcomes = svc.submit_batch([sym, q2, sym])
            assert [o.cacheable for o in outcomes] == [False, True, False]
            assert outcomes[0].rows == outcomes[2].rows
            assert outcomes[1].rows == evaluate(q2, graph)
            assert len(svc.plan_cache) == 1  # only Q2's shape was cached

    def test_plan_cache_entry_is_slim(self, graph):
        with QueryService(graph, ServiceConfig(result_cache_size=0)) as svc:
            q = lubm_queries.query("Q9")
            svc.submit(q)
            (entry,) = list(svc.plan_cache._data.values())
            # The entry summarizes the enumeration instead of pinning the
            # optimizer's full plan list (unbounded memory per shape).
            assert not hasattr(entry, "optimizer")
            assert entry.plan_count > 0
            assert entry.truncated is False

    def test_search_counters_are_observable(self, graph):
        config = ServiceConfig(result_cache_size=0, tracing=True)
        with QueryService(graph, config) as svc:
            q = lubm_queries.query("Q9")
            _plan, result = svc.optimize(q)
            assert result.states > len(result.plans) > 0 and result.pruned > 0
            outcome = svc.submit(q)
            # (the service optimizes the canonical form: same space, another order)
            (entry,) = list(svc.template_cache._data.values())
            assert entry.plan_count > 0 and entry.pruned > 0
            (span,) = [s for s in svc.trace(outcome).spans if s.name == "optimize"]
            assert span.attrs["plans"] == entry.plan_count
            assert span.attrs["pruned"] == entry.pruned
            assert f"plans {entry.plan_count}  pruned {entry.pruned}" in svc.explain(q)


class TestStatementCache:
    """Parse + canonicalization runs once per distinct submission: the
    statement cache answers repeats, and serving is otherwise the same."""

    PROF = (
        "SELECT ?x WHERE { ?x rdf:type ub:AssistantProfessor . "
        f"?x ub:doctoralDegreeFrom {lubm.UNIVERSITY0} }}"
    )
    WRITES = [
        ("<NewProf>", "rdf:type", "ub:AssistantProfessor"),
        ("<NewProf>", "ub:doctoralDegreeFrom", lubm.UNIVERSITY0),
    ]

    @staticmethod
    def _observed(outcome):
        return (
            outcome.rows,
            outcome.plan.signature(),
            outcome.job_signature,
            outcome.template_digest,
            outcome.parameters,
            outcome.graph_version,
        )

    def _first_at(self, graph, query, writes):
        """A fresh service's first submission after *writes*."""
        with QueryService(RDFGraph(graph)) as fresh:
            if writes:
                fresh.add_triples(writes)
            return self._observed(fresh.submit(query, "prof"))

    @pytest.mark.parametrize("as_text", [True, False], ids=["text", "object"])
    def test_repeats_around_a_write_answer_like_a_fresh_service(
        self, graph, as_text
    ):
        query = self.PROF if as_text else parse_query(self.PROF, "prof")
        before = self._first_at(graph, query, [])
        after = self._first_at(graph, query, self.WRITES)
        assert before[0] != after[0] and after[-1] == before[-1] + 1
        with QueryService(RDFGraph(graph)) as svc:
            for _ in range(3):
                assert self._observed(svc.submit(query, "prof")) == before
            svc.add_triples(self.WRITES)
            for _ in range(3):
                assert self._observed(svc.submit(query, "prof")) == after
            # Parsed and canonicalized once: the write left the entry.
            snap = svc.snapshot_stats()
            assert (snap.statement_misses, snap.statement_hits) == (1, 5)
            assert len(svc.statement_cache) == 1

    def test_syntax_errors_raise_and_count_every_time(self, graph):
        with QueryService(graph) as svc:
            for attempt in range(1, 4):
                with pytest.raises(SparqlSyntaxError):
                    svc.submit("SELECT ?x WHERE { ?x p }", "bad")
                snap = svc.snapshot_stats()
                assert snap.errors == attempt
                assert snap.statement_misses == attempt
            assert len(svc.statement_cache) == 0

    def test_unbound_params_raise_on_every_submit(self, graph):
        text = "SELECT ?x WHERE { ?x ub:subOrganizationOf $uni }"
        with QueryService(graph) as svc:
            for _ in range(2):
                with pytest.raises(ValueError, match="unbound parameters"):
                    svc.submit(text)
            prepared = svc.prepare(text)
            assert prepared.execute(uni=lubm.UNIVERSITY0).rows
            for _ in range(2):
                with pytest.raises(ValueError, match="unbound parameters"):
                    svc.submit(text)
            with pytest.raises(ValueError, match="unbound parameters"):
                svc.submit_batch([text])
            snap = svc.snapshot_stats()
            assert snap.errors == 5
            # One parse: prepare() and every rejection shared it.
            assert (snap.statement_misses, snap.statement_hits) == (1, 5)

    def test_one_text_under_two_names_keeps_each_name(self, graph):
        text = "SELECT ?d WHERE { ?p ub:worksFor ?d }"
        with QueryService(graph) as svc:
            for name in ("a", "b", "a", "b"):
                assert svc.submit(text, name).query.name == name
            assert svc.prepare(text, "b").name == "b"
            assert len(svc.statement_cache) == 2

    def test_outcome_query_is_the_submitted_object(self, graph):
        first = lubm_queries.query("Q2")
        equal = parse_query(str(first), first.name)
        assert equal == first and equal is not first
        with QueryService(graph) as svc:
            for query in (first, equal, first):
                assert svc.submit(query).query is query
            (outcome,) = svc.submit_batch([equal])
            assert outcome.query is equal
            assert svc.snapshot_stats().statement_misses == 1

    def test_budget_exceeded_instance_is_cached_keyless(self, graph, monkeypatch):
        import repro.service.front as front_door
        from repro.sparql.canonical import CanonicalizationBudgetExceeded

        calls = []
        extract = front_door.extract_template
        monkeypatch.setattr(
            front_door,
            "extract_template",
            lambda *a, **k: calls.append(a) or extract(*a, **k),
        )
        text = "SELECT ?a ?b WHERE { ?a ub:advisor ?c . ?b ub:advisor ?c }"
        with QueryService(graph, ServiceConfig(canonical_budget=2)) as svc:
            outcomes = [svc.submit(text) for _ in range(3)]
            assert not any(o.cacheable for o in outcomes)
            assert outcomes[0].rows == outcomes[2].rows
            with pytest.raises(CanonicalizationBudgetExceeded):
                svc.prepare(text)
            assert len(calls) == 1

    def test_lru_bounded_by_plan_cache_size(self, graph):
        texts = [
            f"SELECT ?x WHERE {{ ?x ub:worksFor ?d . ?x ub:{p} ?y }}"
            for p in ("name", "emailAddress", "telephone")
        ]
        with QueryService(graph, ServiceConfig(plan_cache_size=2)) as svc:
            for text in texts:
                svc.submit(text)
            assert len(svc.statement_cache) == 2
            svc.submit(texts[2])
            svc.submit(texts[0])  # evicted: parsed again
            snap = svc.snapshot_stats()
            assert (snap.statement_misses, snap.statement_hits) == (4, 1)

    def test_size_zero_parses_every_submission(self, graph, monkeypatch):
        import repro.service.front as front_door

        parses = []
        parse = front_door.parse_query
        monkeypatch.setattr(
            front_door,
            "parse_query",
            lambda *a, **k: parses.append(a) or parse(*a, **k),
        )
        text = "SELECT ?d WHERE { ?p ub:worksFor ?d }"
        with QueryService(graph, ServiceConfig(plan_cache_size=0)) as svc:
            rows = {frozenset(svc.submit(text).rows) for _ in range(3)}
            assert len(rows) == 1
            assert len(parses) == 3
            assert len(svc.statement_cache) == 0
            snap = svc.snapshot_stats()
            assert (snap.statement_misses, snap.statement_hits) == (3, 0)

    def test_hits_are_counted_and_shown(self, graph):
        text = "SELECT ?d WHERE { ?p ub:worksFor ?d }"
        with QueryService(graph) as svc:
            svc.submit(text)
            svc.submit(text)
            snap = svc.snapshot_stats()
            assert "statements:   1/2 hits" in snap.format()
            page = svc.render_prometheus()
            assert 'repro_cache_entries{cache="statement"} 1' in page
            assert 'repro_service_events_total{event="statement_hits"} 1' in page


class TestOneEngine:
    """A service has no engine knob: unsharded and on every shard it
    runs the id-space engine, and EXPLAIN names it."""

    def _jobs_line(self, svc):
        text = svc.explain(lubm_queries.query("Q4"))
        (line,) = [l for l in text.splitlines() if "MapReduce jobs" in l]
        return line

    @pytest.mark.parametrize("shards", [0, 2])
    def test_explain_names_the_engine(self, graph, shards):
        from repro.mapreduce.backends import ColumnarBackend

        with QueryService(graph, ServiceConfig(shards=shards)) as svc:
            svc.submit(lubm_queries.query("Q4"))
            if shards:
                from tests.conformance import shard_client

                router = svc.executor.router
                engines = [shard_client(router, s).worker.backend for s in range(shards)]
            else:
                engines = [svc.executor.backend]
            assert [type(e) for e in engines] == [ColumnarBackend] * max(shards, 1)
            assert "backend columnar; rows columnar" in self._jobs_line(svc)


#: Q1's shape under both head orders and an isomorphic rename: the
#: canonical answer holds one column order, so at least one of these
#: takes its columns permuted
Q1_HEADS = (
    "SELECT ?P ?S WHERE { ?P ub:worksFor ?D . ?S ub:memberOf ?D }",
    "SELECT ?S ?P WHERE { ?P ub:worksFor ?D . ?S ub:memberOf ?D }",
    "SELECT ?b ?a WHERE { ?a ub:memberOf ?c . ?b ub:worksFor ?c }",
)


class TestAnswerPath:
    """The answer stays in id space until the outcome: every way a
    submission is served — computed, a result hit, a flight's waiter, a
    batch duplicate — answers as the evaluator does, in its own column
    order, in an immutable set."""

    @pytest.fixture(scope="class")
    def expected(self, graph):
        return {text: evaluate(parse_query(text), graph) for text in Q1_HEADS}

    def test_permuted_heads_computed_and_from_the_result_cache(
        self, graph, expected
    ):
        with QueryService(graph, ServiceConfig(result_cache_size=0)) as svc:
            for text in Q1_HEADS:
                out = svc.submit(text)
                assert not out.result_cache_hit
                assert out.rows == expected[text], text
        with QueryService(graph) as svc:
            served = [svc.submit(text) for text in Q1_HEADS * 2]
            assert [o.result_cache_hit for o in served] == [False] + [True] * 5
            for text, out in zip(Q1_HEADS * 2, served):
                assert out.rows == expected[text], text

    def test_permuted_heads_as_batch_duplicates(self, graph, expected):
        with QueryService(graph, ServiceConfig(result_cache_size=0)) as svc:
            outcomes = svc.submit_batch(list(Q1_HEADS))
            assert [o.coalesced for o in outcomes] == [False, True, True]
            for text, out in zip(Q1_HEADS, outcomes):
                assert out.rows == expected[text], text

    def test_permuted_head_as_a_flight_waiter(self, graph, expected, monkeypatch):
        """The leader is held inside execution until the second
        submission has joined its flight, so the second is a waiter."""
        import repro.service.cache as cache

        joined, entered = threading.Event(), threading.Event()
        real_span = cache.span

        def spy(name, **attrs):
            if name == "flight_wait":
                joined.set()
            return real_span(name, **attrs)

        monkeypatch.setattr(cache, "span", spy)
        leader_text, waiter_text = Q1_HEADS[0], Q1_HEADS[1]
        with QueryService(graph, ServiceConfig(result_cache_size=0)) as svc:
            execute = svc.executor.execute_prepared

            def held(prepared):
                entered.set()
                assert joined.wait(30)
                return execute(prepared)

            monkeypatch.setattr(svc.executor, "execute_prepared", held)
            led = []
            leader = threading.Thread(
                target=lambda: led.append(svc.submit(leader_text))
            )
            leader.start()
            assert entered.wait(30)
            waiter = svc.submit(waiter_text)
            leader.join(30)
            [first] = led
            assert not first.coalesced and waiter.coalesced
            assert first.rows == expected[leader_text]
            assert waiter.rows == expected[waiter_text]

    def test_zero_column_answers(self, graph):
        from tests.conformance import ground_queries

        with QueryService(graph) as svc:
            for query in ground_queries(graph) * 2:
                out = svc.submit(query)
                assert out.rows == evaluate(query, graph), query.name
            present, absent = (svc.submit(q) for q in ground_queries(graph))
            assert present.rows == {()} and absent.rows == set()

    def test_outcomes_share_immutable_rows(self, graph, expected, monkeypatch):
        """A cached answer's outcomes share one immutable set per column
        order: mutating one raises and changes nothing, two hits return
        the same object, and a permuted order is projected once."""
        projections = []
        project = cache._project

        def counted(rows, index):
            projections.append(index)
            return project(rows, index)

        monkeypatch.setattr(cache, "_project", counted)
        text, permuted = Q1_HEADS[0], Q1_HEADS[1]
        with QueryService(graph) as svc:
            first = svc.submit(text)
            assert isinstance(first.rows, frozenset)
            with pytest.raises(AttributeError):
                first.rows.clear()
            with pytest.raises(AttributeError):
                first.rows.add(("<x>", "<y>"))
            hit, again = svc.submit(text), svc.submit(text)
            assert hit.result_cache_hit and again.result_cache_hit
            assert hit.rows is again.rows
            assert hit.rows == expected[text]
            others = [svc.submit(permuted) for _ in range(3)]
            assert all(o.result_cache_hit for o in others)
            assert others[0].rows is others[1].rows is others[2].rows
            assert others[0].rows == expected[permuted]
            # one of the two orders is the canonical one, served as the
            # entry's rows; the other was projected by its first reader
            assert len(projections) == 1
            [entry] = svc.result_cache._data.values()
            assert len(entry.rows) == len(expected[text])
            assert len(entry._views) == 1

    def test_terms_numbered_after_a_read_decode(self):
        """A write between two reads brings terms the store's term array
        has not seen yet; the next answer decodes them."""
        graph = lubm.generate(lubm.LUBMConfig(universities=4))
        text = Q1_HEADS[1]
        with QueryService(graph) as svc:
            before = svc.submit(text)
            svc.add_triples(
                [
                    ("<NewProf>", "ub:worksFor", "<NewDept>"),
                    ("<NewStudent>", "ub:memberOf", "<NewDept>"),
                ]
            )
            after = svc.submit(text)
            assert not after.result_cache_hit
            assert after.rows == before.rows | {("<NewStudent>", "<NewProf>")}
            assert after.rows == evaluate(parse_query(text), svc.graph)
