"""Integration tests: the three Fig. 21 systems agree with the reference
evaluator on the LUBM workload, and expose the paper's PWOC structure."""

import pytest

from repro.service import ServiceConfig
from repro.sparql.evaluator import evaluate
from repro.sparql.parser import parse_query
from repro.systems.csq import CSQ
from repro.systems.h2rdf import H2RDFPlus
from repro.systems.shape import ShapeSystem, decompose_2f
from repro.workloads import lubm
from repro.workloads.lubm_queries import all_queries, query
from tests.oracles import pwoc_anchor_2f


@pytest.fixture(scope="module")
def small_lubm():
    # The default (20-university) scale: large enough that H2RDF+'s
    # non-selective joins exceed its centralized threshold, as in Fig. 21.
    return lubm.generate()


@pytest.fixture(scope="module")
def systems(small_lubm):
    return (
        CSQ(small_lubm, ServiceConfig(num_nodes=7)),
        ShapeSystem(small_lubm, num_nodes=7),
        H2RDFPlus(small_lubm, num_nodes=7),
    )


@pytest.fixture(scope="module")
def reference(small_lubm):
    return {q.name: evaluate(q, small_lubm) for q in all_queries()}


class TestAnswersAgree:
    @pytest.mark.parametrize("name", [f"Q{i}" for i in range(1, 15)])
    def test_all_systems_correct(self, systems, reference, name):
        q = query(name)
        for system in systems:
            report = system.run(q)
            assert report.answers == reference[name], (system.name, name)


class TestPWOCStructure:
    def test_shape_pwoc_queries_match_paper(self, systems):
        """Fig. 21: Q2, Q4, Q9, Q10 are PWOC for SHAPE (not for CSQ);
        Q3 is PWOC for CSQ (not for SHAPE)."""
        csq, shape, _ = systems
        for name in ("Q2", "Q4", "Q9", "Q10"):
            assert shape.run(query(name)).pwoc, name
        for name in ("Q1", "Q3", "Q5", "Q8"):
            assert not shape.run(query(name)).pwoc, name

    def test_csq_map_only_queries(self, systems):
        csq = systems[0]
        for name in ("Q1", "Q2", "Q3"):
            assert csq.run(query(name)).job_signature == "M", name
        assert csq.run(query("Q4")).job_signature != "M"

    def test_is_pwoc_2f_on_simple_shapes(self):
        star = parse_query("SELECT ?x WHERE { ?x p1 ?a . ?x p2 ?b }")
        assert pwoc_anchor_2f(star.patterns) is not None
        chain3 = parse_query("SELECT ?x WHERE { ?x p1 ?y . ?y p2 ?z . ?z p3 ?w }")
        assert pwoc_anchor_2f(chain3.patterns) is None
        two_hop = parse_query("SELECT ?x WHERE { ?x p1 ?y . ?y p2 ?z }")
        assert pwoc_anchor_2f(two_hop.patterns) is not None

    def test_decompose_2f_covers_all_patterns(self):
        for name in ("Q1", "Q7", "Q11", "Q14"):
            q = query(name)
            fragments = decompose_2f(q)
            covered = {tp for frag in fragments for tp in frag}
            assert covered == set(q.patterns), name


class TestSystemBehaviour:
    def test_csq_flat_plans_few_jobs(self, systems):
        """CSQ's flat plans keep job counts low even on 9-10 pattern
        queries (Fig. 21: Q12 runs in a single job)."""
        csq = systems[0]
        assert csq.run(query("Q12")).num_jobs <= 2
        assert csq.run(query("Q14")).num_jobs <= 3

    def test_h2rdf_centralized_on_selective(self, systems):
        """Very selective queries run centralized in H2RDF+ (0 jobs)."""
        h2 = systems[2]
        assert h2.run(query("Q2")).num_jobs == 0

    def test_h2rdf_sequential_jobs_on_nonselective(self, systems):
        h2 = systems[2]
        assert h2.run(query("Q1")).num_jobs >= 1

    def test_csq_beats_comparators_on_nonselective(self, systems):
        """The headline Fig. 21 shape: CSQ wins non-selective queries."""
        csq, shape, h2 = systems
        for name in ("Q1", "Q12"):
            q = query(name)
            t_csq = csq.run(q).response_time
            assert t_csq < shape.run(q).response_time, name
            assert t_csq < h2.run(q).response_time, name

    def test_shape_wins_its_pwoc_queries(self, systems):
        csq, shape, _ = systems
        for name in ("Q2", "Q4", "Q9"):
            q = query(name)
            assert shape.run(q).response_time < csq.run(q).response_time, name

    def test_csq_optimize_exposes_plan(self, systems):
        csq = systems[0]
        plan, result = csq.optimize(query("Q9"))
        assert plan in result.unique_plans()

    def test_report_fields(self, systems):
        report = systems[0].run(query("Q6"))
        assert report.system == "CSQ"
        assert report.query_name == "Q6"
        assert report.cardinality == len(report.answers)
        assert report.response_time > 0
