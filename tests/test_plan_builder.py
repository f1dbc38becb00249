"""Unit tests for CREATEQUERYPLANS (§4.2)."""

import pytest

from repro.core.logical import Join, Match, Project
from repro.core.plan_builder import (
    create_query_plan,
    extend_operators,
    initial_operators,
)
from repro.core.properties import height
from repro.core.variable_graph import VariableGraph
from repro.sparql.parser import parse_query


def chain3():
    return parse_query("SELECT ?x WHERE { ?t p1 ?x . ?x p2 ?y . ?y p3 ?u }")


class TestCreateQueryPlan:
    def test_single_pattern_plan(self):
        q = parse_query("SELECT ?x WHERE { ?x p ?y }")
        g = VariableGraph.from_query(q)
        plan = create_query_plan(q, [g])
        assert isinstance(plan.root, Project)
        assert isinstance(plan.root.child, Match)
        assert height(plan) == 0

    def test_two_step_reduction(self):
        q = chain3()
        g0 = VariableGraph.from_query(q)
        g1 = g0.reduce([frozenset({0, 1}), frozenset({2})])
        g2 = g1.reduce([frozenset({0, 1})])
        plan = create_query_plan(q, [g0, g1, g2])
        assert height(plan) == 2
        top = plan.body
        assert isinstance(top, Join)
        # one child is the lower join, the other the carried match
        kinds = {type(c) for c in top.inputs}
        assert kinds == {Join, Match}

    def test_singleton_cliques_reuse_operators(self):
        q = chain3()
        g0 = VariableGraph.from_query(q)
        g1 = g0.reduce([frozenset({0, 1}), frozenset({2})])
        g2 = g1.reduce([frozenset({0, 1})])
        plan = create_query_plan(q, [g0, g1, g2])
        matches = [op for op in plan.root.iter_operators() if isinstance(op, Match)]
        assert len(matches) == 3  # one per pattern, no duplication

    def test_one_shot_star_reduction(self):
        q = parse_query("SELECT ?c WHERE { ?c p1 ?x . ?c p2 ?y . ?c p3 ?z }")
        g0 = VariableGraph.from_query(q)
        g1 = g0.reduce([frozenset({0, 1, 2})])
        plan = create_query_plan(q, [g0, g1])
        assert height(plan) == 1
        body = plan.body
        assert isinstance(body, Join)
        assert len(body.inputs) == 3
        assert body.on == ("?c",)

    def test_join_attrs_are_clique_variables(self, paper_q1):
        """Fig. 4: the first-level join of {t3,t4,t5,t6} is J_d."""
        g0 = VariableGraph.from_query(paper_q1)
        d = [
            frozenset({0, 1}),
            frozenset({2, 3, 4, 5}),
            frozenset({6, 7, 8}),
            frozenset({9, 10}),
        ]
        g1 = g0.reduce(d)
        g2 = g1.reduce([frozenset({0, 1}), frozenset({2, 3})])
        g3 = g2.reduce([frozenset({0, 1})])
        plan = create_query_plan(paper_q1, [g0, g1, g2, g3])
        assert height(plan) == 3
        joins = [op for op in plan.root.iter_operators() if isinstance(op, Join)]
        join_keys = {j.on for j in joins}
        assert ("?d",) in join_keys  # J_d over t3..t6
        assert ("?a",) in join_keys  # J_a over t1, t2

    def test_requires_initial_graph_with_single_patterns(self):
        q = chain3()
        g0 = VariableGraph.from_query(q)
        g1 = g0.reduce([frozenset({0, 1}), frozenset({2})])
        with pytest.raises(ValueError):
            create_query_plan(q, [g1])  # g1 has a 2-pattern node

    def test_requires_final_single_node(self):
        q = chain3()
        g0 = VariableGraph.from_query(q)
        g1 = g0.reduce([frozenset({0, 1}), frozenset({2})])
        with pytest.raises(ValueError):
            create_query_plan(q, [g0, g1])

    def test_empty_states_rejected(self):
        with pytest.raises(ValueError):
            create_query_plan(chain3(), [])


class TestExtendOperators:
    def test_create_query_plan_is_the_fold(self):
        q = chain3()
        g0 = VariableGraph.from_query(q)
        g1 = g0.reduce([frozenset({0, 1}), frozenset({2})])
        g2 = g1.reduce([frozenset({0, 1})])
        ops = extend_operators(initial_operators(g0), g1.provenance)
        (root,) = extend_operators(ops, g2.provenance)
        assert create_query_plan(q, [g0, g1, g2]).body == root

