"""Tests for the prepared-query surface: prepare/bind/execute, template
caching, unified routing, stats and explain provenance."""

from __future__ import annotations

import threading

import pytest

from repro.columnar.block import HAVE_NUMPY
from repro.service import (
    PreparedQuery,
    QueryService,
    ServiceConfig,
)
from repro.sparql.evaluator import evaluate
from repro.sparql.parser import SparqlSyntaxError, parse_query
from repro.systems.csq import CSQ
from repro.workloads import lubm, lubm_queries

ALL_NAMES = [f"Q{i}" for i in range(1, 15)]

#: Same shape as LUBM Q3, with the university constant as a parameter.
VARYING = (
    "SELECT ?P ?S WHERE {{ ?P ub:worksFor ?D . ?S ub:memberOf ?D . "
    "?D ub:subOrganizationOf {uni} }}"
)


@pytest.fixture(scope="module")
def graph():
    return lubm.generate(lubm.LUBMConfig(universities=4))


@pytest.fixture(scope="module")
def expected(graph):
    return {
        name: evaluate(lubm_queries.query(name), graph) for name in ALL_NAMES
    }


class TestRoundTripAllBackends:
    """Acceptance: every LUBM query round-trips through template
    extraction — prepare, bind the original constants, execute — with
    answers identical to a cold (template-free) submit, on both engines
    a service runs."""

    @pytest.mark.parametrize(
        "backend",
        [
            "serial",
            pytest.param(
                "columnar",
                marks=pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy"),
            ),
        ],
    )
    def test_prepared_equals_cold_submit(self, graph, expected, backend):
        config = ServiceConfig(backend=backend, result_cache_size=0)
        with QueryService(graph, config) as svc:
            for name in ALL_NAMES:
                q = lubm_queries.query(name)
                prepared = svc.prepare(q)
                assert isinstance(prepared, PreparedQuery)
                out = prepared.execute()
                assert out.rows == expected[name], (backend, name)
                # The handle's defaults reproduce the source query.
                assert prepared.bind().query == q

    def test_cold_submit_without_templates_matches(self, graph, expected):
        config = ServiceConfig(enable_templates=False, result_cache_size=0)
        with QueryService(graph, config) as svc:
            for name in ALL_NAMES:
                out = svc.submit(lubm_queries.query(name))
                assert out.rows == expected[name], name
            # Every constant combination is its own template: all cold.
            snap = svc.snapshot_stats()
            assert snap.optimizer_runs == len(ALL_NAMES)


class TestSingleOptimization:
    """Acceptance: a constant-varying workload (same shape, 50 distinct
    constants) triggers exactly one optimizer invocation."""

    N = 50

    def _queries(self):
        return [
            VARYING.format(uni=lubm.university_iri(i)) for i in range(self.N)
        ]

    def test_via_submit(self, graph):
        with QueryService(graph) as svc:
            rows = [svc.submit(q).rows for q in self._queries()]
            snap = svc.snapshot_stats()
            assert snap.optimizer_runs == 1
            assert snap.plan_misses == 1
            assert snap.template_hits == self.N - 1
            assert snap.templates_cached == 1
            # The four real universities answer non-trivially and
            # distinctly; unseen constants answer empty.
            assert all(rows[i] for i in range(4))
            assert all(not rows[i] for i in range(4, self.N))
            for i in range(4):
                want = evaluate(
                    parse_query(VARYING.format(uni=lubm.university_iri(i))),
                    graph,
                )
                assert rows[i] == want, i

    def test_via_prepare_bind(self, graph):
        with QueryService(graph) as svc:
            prepared = svc.prepare(
                VARYING.format(uni="$uni"), name="members-of"
            )
            for i in range(self.N):
                out = prepared.bind(uni=lubm.university_iri(i)).execute()
                assert out.template_digest == prepared.digest()
            snap = svc.snapshot_stats()
            assert snap.optimizer_runs == 1
            assert snap.plan_misses == 0  # prepare paid the optimization

    def test_via_submit_batch(self, graph):
        with QueryService(graph) as svc:
            outcomes = svc.submit_batch(self._queries())
            assert len(outcomes) == self.N
            assert svc.snapshot_stats().optimizer_runs == 1

    def test_concurrent_submissions_single_flight(self, graph):
        with QueryService(graph) as svc:
            queries = self._queries()[:16]
            errors: list[BaseException] = []
            barrier = threading.Barrier(8)

            def worker(ix: int) -> None:
                try:
                    barrier.wait()
                    for q in queries[ix::8]:
                        svc.submit(q)
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
            assert svc.snapshot_stats().optimizer_runs == 1


class TestExplicitParams:
    def test_bind_by_name_and_position(self, graph):
        with QueryService(graph) as svc:
            prepared = svc.prepare(VARYING.format(uni="$uni"))
            uni = lubm.university_iri(1)
            by_name = prepared.bind(uni=uni).execute()
            by_pos = prepared.bind(uni).execute()
            assert by_name.rows == by_pos.rows
            assert by_pos.result_cache_hit  # identical instance

    def test_unbound_param_errors(self, graph):
        with QueryService(graph) as svc:
            prepared = svc.prepare(VARYING.format(uni="$uni"))
            with pytest.raises(ValueError, match="unbound"):
                prepared.bind()

    def test_unknown_and_duplicate_params(self, graph):
        with QueryService(graph) as svc:
            prepared = svc.prepare(VARYING.format(uni="$uni"))
            with pytest.raises(ValueError, match="unknown parameter"):
                prepared.bind(nope="<x>")
            with pytest.raises(ValueError, match="twice"):
                prepared.bind("<x>", uni="<y>")

    def test_rebinding_lifted_constants(self, graph):
        """Constants lifted from the text rebind by their auto names."""
        with QueryService(graph) as svc:
            prepared = svc.prepare(lubm_queries.query("Q2"))
            assert prepared.param_names == ("p0", "p1")
            out = prepared.bind(p1=lubm.university_iri(2)).execute()
            want = evaluate(
                parse_query(
                    "SELECT ?X WHERE { ?X rdf:type ub:AssistantProfessor . "
                    f"?X ub:doctoralDegreeFrom {lubm.university_iri(2)} }}"
                ),
                graph,
            )
            assert out.rows == want

    def test_positional_bind_keeps_subject_object_order(self, graph):
        with QueryService(graph) as svc:
            prepared = svc.prepare(
                "SELECT ?d WHERE { $prof ub:worksFor ?d . "
                "?d ub:subOrganizationOf $uni }"
            )
            assert prepared.param_names == ("prof", "uni")
            by_pos = prepared.bind("<P>", lubm.university_iri(0)).query
            by_name = prepared.bind(
                prof="<P>", uni=lubm.university_iri(0)
            ).query
            assert by_pos == by_name
            assert by_pos.patterns[0].s == "<P>"
            assert by_pos.patterns[1].o == lubm.university_iri(0)

    def test_submit_rejects_unbound_placeholders(self, graph):
        with QueryService(graph) as svc:
            with pytest.raises(ValueError, match="unbound parameters"):
                svc.submit(VARYING.format(uni="$uni"))
            with pytest.raises(ValueError, match="unbound parameters"):
                svc.submit_batch([VARYING.format(uni="$uni")])


class TestUnifiedRouting:
    def test_csq_run_and_prepare_share_the_service_caches(self, graph):
        with CSQ(graph, ServiceConfig()) as csq:
            report = csq.run(lubm_queries.query("Q4"))
            assert report.details["provenance"]["served_by"] == "optimizer"
            prepared = csq.prepare(lubm_queries.query("Q4"))
            assert prepared.template_cache_hit
            again = csq.run(lubm_queries.query("Q4"))
            assert again.details["provenance"]["served_by"] == "result-cache"
            assert again.answers == report.answers

    def test_provenance_ladder(self, graph):
        shape = VARYING.format(uni=lubm.university_iri(0))
        other = VARYING.format(uni=lubm.university_iri(1))
        with QueryService(graph) as svc:
            cold = svc.submit(shape)
            assert cold.provenance["served_by"] == "optimizer"
            assert cold.template_digest
            tmpl = svc.submit(other)
            assert tmpl.provenance["served_by"] == "template"
            assert tmpl.template_digest == cold.template_digest
            repeat = svc.submit(other)
            assert repeat.provenance["served_by"] == "result-cache"
            svc.result_cache.clear()
            bound = svc.submit(other)
            assert bound.provenance["served_by"] == "plan-cache"
            assert {p[0] for p in bound.parameters} == {"p0"}

    def test_live_handle_survives_template_eviction(self, graph):
        """A held PreparedQuery never re-optimizes, even after its
        template is evicted from the shared cache."""
        config = ServiceConfig(template_cache_size=1, result_cache_size=0)
        with QueryService(graph, config) as svc:
            pa = svc.prepare(VARYING.format(uni="$uni"))
            pb = svc.prepare(lubm_queries.query("Q2"))  # evicts pa's entry
            assert len(svc.template_cache) == 1
            out = pa.bind(uni=lubm.university_iri(1)).execute()
            assert out.template_hit
            want = evaluate(
                parse_query(VARYING.format(uni=lubm.university_iri(1))),
                graph,
            )
            assert out.rows == want
            assert svc.snapshot_stats().optimizer_runs == 2
            assert pb.execute().rows  # the survivor still works too

    def test_plan_cache_bounded_by_default_but_templates_survive(self, graph):
        config = ServiceConfig(plan_cache_size=4, result_cache_size=0)
        with QueryService(graph, config) as svc:
            for i in range(12):
                svc.submit(VARYING.format(uni=lubm.university_iri(i)))
            snap = svc.snapshot_stats()
            assert snap.optimizer_runs == 1  # evictions never re-optimize
            assert len(svc.plan_cache) == 4
            assert svc.plan_cache.evictions == 8

    def test_mutation_invalidates_bound_results(self):
        graph = lubm.generate(lubm.LUBMConfig(universities=4))
        with QueryService(graph) as svc:
            prepared = svc.prepare(
                "SELECT ?X WHERE { ?X rdf:type ub:AssistantProfessor . "
                "?X ub:doctoralDegreeFrom $uni }"
            )
            bound = prepared.bind(uni=lubm.UNIVERSITY0)
            before = bound.execute()
            svc.add_triples(
                [
                    ("<NewProf>", "rdf:type", "ub:AssistantProfessor"),
                    ("<NewProf>", "ub:doctoralDegreeFrom", lubm.UNIVERSITY0),
                ]
            )
            after = bound.execute()
            assert not after.result_cache_hit
            assert after.rows == before.rows | {("<NewProf>",)}
            # No re-optimization: the bound plan survived the mutation.
            assert svc.snapshot_stats().optimizer_runs == 1


class TestStatsAndExplain:
    def test_template_counters_in_snapshot_and_format(self, graph):
        with QueryService(graph, ServiceConfig(result_cache_size=0)) as svc:
            for i in range(4):
                svc.submit(VARYING.format(uni=lubm.university_iri(i)))
            svc.submit(VARYING.format(uni=lubm.university_iri(0)))
            snap = svc.snapshot_stats()
            assert snap.plan_misses == 1
            assert snap.template_hits == 3
            assert snap.plan_hits == 1
            assert snap.optimizer_runs == 1
            assert snap.templates_cached == 1
            text = snap.format()
            assert "template hits" in text
            assert "optimizer runs" in text

    def test_explain_prints_template_signature(self, graph):
        with QueryService(graph) as svc:
            prepared = svc.prepare(lubm_queries.query("Q4"))
            text = prepared.explain()
            assert f"template {prepared.digest()}" in text
            assert "$s" in text  # parameter slots listed
            assert "MapReduce jobs" in text
            assert f"template {prepared.digest()}" in svc.explain(
                lubm_queries.query("Q4")
            )

    def test_parse_errors_carry_query_name(self, graph):
        with QueryService(graph) as svc:
            with pytest.raises(SparqlSyntaxError) as exc:
                svc.submit("SELECT ?x WHERE { ?x p }", name="broken")
            assert exc.value.name == "broken"
            assert "broken" in str(exc.value)
            assert svc.snapshot_stats().errors == 1

    def test_prepare_parse_errors_carry_query_name(self, graph):
        with QueryService(graph) as svc:
            with pytest.raises(SparqlSyntaxError) as exc:
                svc.prepare("SELECT nope", name="bad-prep")
            assert exc.value.name == "bad-prep"
