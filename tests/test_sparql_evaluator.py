"""Unit tests for the reference evaluator (repro.sparql.evaluator)."""

from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physical.translate import bind_triple
from repro.rdf.graph import RDFGraph
from repro.sparql.ast import TriplePattern
from repro.sparql.evaluator import (
    _bound_count,
    _bound_variables,
    _compiled,
    bindings,
    count,
    evaluate,
)
from repro.sparql.parser import parse_query
from repro.workloads import lubm, lubm_queries


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


NODES = ("<a>", "<b>", "<c>")
PROPS = ("ub:p", "ub:q")
VARS = ("?x", "?y", "?z", "?w")

graphs = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(PROPS), st.sampled_from(NODES)),
    max_size=10,
)
#: subjects/objects: a variable (repeats and all) or a node; properties: a
#: variable too, so constant-only patterns and variable properties occur
patterns = st.builds(
    TriplePattern,
    st.sampled_from(VARS + NODES),
    st.sampled_from(VARS[:2] + PROPS),
    st.sampled_from(VARS + NODES),
)


@lru_cache(maxsize=1)
def lubm_graph() -> RDFGraph:
    return lubm.generate(lubm.LUBMConfig(universities=4))


def brute_force(pats, graph, seed):
    """Every assignment of the graph's terms to the patterns' unseeded
    variables under which each pattern is a triple of *graph*: the
    cross product, filtered."""
    free = sorted({v for tp in pats for v in tp.variables()} - set(seed))
    terms = sorted({term for triple in graph for term in triple})
    found = set()
    for values in product(terms, repeat=len(free)):
        binding = {**seed, **dict(zip(free, values))}
        if all(
            tuple(binding.get(term, term) for term in (tp.s, tp.p, tp.o)) in graph
            for tp in pats
        ):
            found.add(frozenset(binding.items()))
    return found


class TestFixedOrder:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        triples=graphs,
        pats=st.lists(patterns, min_size=1, max_size=3),
        seeded=st.dictionaries(st.sampled_from(VARS), st.sampled_from(NODES + PROPS)),
    )
    def test_bindings_are_the_filtered_cross_product(self, triples, pats, seeded):
        """With and without a seed (which may bind a variable no
        pattern holds), ``bindings`` yields exactly the total bindings a
        brute-force cross product finds."""
        graph = RDFGraph(triples)
        for seed in ({}, seeded):
            got = [frozenset(b.items()) for b in bindings(pats, graph, seed)]
            assert len(got) == len(set(got))
            assert set(got) == brute_force(pats, graph, seed)

    @pytest.mark.parametrize("seed", [{}, {"?Y": "<FullProfessor0.D0.U0>"}])
    def test_lubm_q5_fixed_order_is_the_per_step_greedy_order(self, seed):
        """Q5's patterns all tie on bound positions, the cartesian-branch
        case: re-sorting the remaining patterns under the binding at
        hand, at every node of the search (the evaluator's former
        loop), takes at each depth the pattern the fixed order does,
        with and without a seed."""
        graph = lubm_graph()
        q5 = lubm_queries.query("Q5")
        chosen: set = set()

        def extend(binding, todo, depth):
            if not todo:
                return
            todo = sorted(
                todo,
                key=lambda tp: (
                    -_bound_variables(tp, binding),
                    -_bound_count(tp, binding),
                ),
            )
            tp, rest = todo[0], todo[1:]
            chosen.add((depth, tp))
            terms = (binding.get(t, t) for t in (tp.s, tp.p, tp.o))
            for triple in graph.match(*terms):
                row = bind_triple(tp, triple)
                if row is not None:
                    matched = dict(zip(tp.variables(), row))
                    extend({**binding, **matched}, rest, depth + 1)

        extend(seed, list(q5.patterns), 0)
        order = _compiled(q5.patterns, frozenset(seed)).order
        assert chosen == set(enumerate(order))
        for k in range(1, len(order)):
            before = set(seed) | {v for tp in order[:k] for v in tp.variables()}
            assert before & set(order[k].variables()), "a cartesian branch"
        found = {
            (b["?X"], b["?Y"], b["?Z"]) for b in bindings(q5.patterns, graph, seed)
        }
        assert found and found == {
            row for row in evaluate(q5, graph) if row[1] == seed.get("?Y", row[1])
        }
