"""Unit tests for the reference evaluator (repro.sparql.evaluator)."""

from repro.rdf.graph import RDFGraph
from repro.sparql.ast import TriplePattern
from repro.sparql.evaluator import bindings, count, evaluate, unify
from repro.sparql.parser import parse_query


def g() -> RDFGraph:
    return RDFGraph(
        [
            ("<p1>", "ub:worksFor", "<d1>"),
            ("<p2>", "ub:worksFor", "<d1>"),
            ("<p3>", "ub:worksFor", "<d2>"),
            ("<s1>", "ub:memberOf", "<d1>"),
            ("<s2>", "ub:memberOf", "<d2>"),
            ("<d1>", "ub:subOrganizationOf", "<u0>"),
            ("<d2>", "ub:subOrganizationOf", "<u1>"),
            ("<p1>", "rdf:type", "ub:FullProfessor"),
            ("<p1>", "ub:knows", "<p1>"),
        ]
    )


class TestEvaluate:
    def test_single_pattern(self):
        q = parse_query("SELECT ?x WHERE { ?x ub:worksFor ?d }")
        assert evaluate(q, g()) == {("<p1>",), ("<p2>",), ("<p3>",)}

    def test_two_way_join(self):
        q = parse_query("SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }")
        assert evaluate(q, g()) == {
            ("<p1>", "<s1>"),
            ("<p2>", "<s1>"),
            ("<p3>", "<s2>"),
        }

    def test_three_way_join_with_constant(self):
        q = parse_query(
            "SELECT ?p WHERE { ?p ub:worksFor ?d . ?d ub:subOrganizationOf <u0> }"
        )
        assert evaluate(q, g()) == {("<p1>",), ("<p2>",)}

    def test_type_filter(self):
        q = parse_query(
            "SELECT ?p WHERE { ?p ub:worksFor ?d . ?p rdf:type ub:FullProfessor }"
        )
        assert evaluate(q, g()) == {("<p1>",)}

    def test_empty_result(self):
        q = parse_query("SELECT ?p WHERE { ?p ub:worksFor <nowhere> }")
        assert evaluate(q, g()) == set()

    def test_repeated_variable_in_pattern(self):
        q = parse_query("SELECT ?x WHERE { ?x ub:knows ?x }")
        assert evaluate(q, g()) == {("<p1>",)}

    def test_variable_property(self):
        q = parse_query("SELECT ?p WHERE { <p1> ?p ?o }")
        assert evaluate(q, g()) == {("ub:worksFor",), ("rdf:type",), ("ub:knows",)}

    def test_count(self):
        q = parse_query("SELECT ?x WHERE { ?x ub:worksFor ?d }")
        assert count(q, g()) == 3

    def test_projection_deduplicates(self):
        # two workers in d1 but one department value
        q = parse_query("SELECT ?d WHERE { ?p ub:worksFor ?d }")
        assert evaluate(q, g()) == {("<d1>",), ("<d2>",)}

    def test_distinguished_order_respected(self):
        q = parse_query("SELECT ?s ?p WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }")
        assert ("<s1>", "<p1>") in evaluate(q, g())


class TestSeededBindings:
    def test_unify_binds_variables_and_checks_constants(self):
        tp = TriplePattern("?p", "ub:worksFor", "?d")
        assert unify(tp, ("<p1>", "ub:worksFor", "<d1>")) == {"?p": "<p1>", "?d": "<d1>"}
        assert unify(tp, ("<s1>", "ub:memberOf", "<d1>")) is None

    def test_unify_meets_a_repeated_variable_once(self):
        tp = TriplePattern("?x", "ub:knows", "?x")
        assert unify(tp, ("<p1>", "ub:knows", "<p1>")) == {"?x": "<p1>"}
        assert unify(tp, ("<p1>", "ub:knows", "<p2>")) is None

    def test_a_seed_restricts_the_bindings_to_its_extensions(self):
        q = parse_query("SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }")
        seeded = list(bindings(q.patterns, g(), {"?s": "<s1>"}))
        assert {(b["?p"], b["?s"], b["?d"]) for b in seeded} == {
            ("<p1>", "<s1>", "<d1>"),
            ("<p2>", "<s1>", "<d1>"),
        }

    def test_no_seed_is_evaluate(self):
        q = parse_query("SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }")
        unseeded = {(b["?p"], b["?s"]) for b in bindings(q.patterns, g())}
        assert unseeded == evaluate(q, g())
