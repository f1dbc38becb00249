"""Tests for Algorithm 1 (repro.core.algorithm) on the paper's examples."""

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import _step, best_effort_plan, cliquesquare
from repro.core.decomposition import (
    ALL_OPTIONS,
    MSC,
    MSC_PLUS,
    MXC,
    MXC_PLUS,
    SC,
    SC_PLUS,
    XC,
    XC_PLUS,
    decompositions,
    structure_key,
)
from repro.core.logical import Match
from repro.core.plan_builder import create_query_plan
from repro.core.properties import height
from repro.core.variable_graph import VariableGraph
from repro.sparql.evaluator import evaluate
from repro.sparql.parser import parse_query
from repro.workloads.synthetic import chain_query, star_query
from tests.conftest import random_connected_query


class TestBasics:
    def test_single_pattern_query(self):
        q = parse_query("SELECT ?x WHERE { ?x p ?y }")
        for option in ALL_OPTIONS:
            result = cliquesquare(q, option)
            assert result.plan_count == 1
            assert height(result.plans[0]) == 0

    def test_two_pattern_query_single_plan(self):
        q = parse_query("SELECT ?x WHERE { ?x p ?y . ?y q ?z }")
        for option in ALL_OPTIONS:
            result = cliquesquare(q, option)
            assert result.plan_count == 1, option.name
            assert height(result.plans[0]) == 1

    def test_disconnected_query_rejected(self):
        q = parse_query("SELECT ?x WHERE { ?x p ?y . ?a q ?b }")
        with pytest.raises(ValueError):
            cliquesquare(q, MSC)

    def test_plans_cover_all_patterns(self, paper_q1):
        result = cliquesquare(paper_q1, MSC, timeout_s=30)
        for plan in result.plans:
            assert plan.body.patterns() == frozenset(paper_q1.patterns)

    def test_match_leaves_are_query_patterns(self, paper_q1):
        result = cliquesquare(paper_q1, MSC, timeout_s=30)
        for plan in result.plans:
            leaves = {
                op.pattern
                for op in plan.root.iter_operators()
                if isinstance(op, Match)
            }
            assert leaves == set(paper_q1.patterns)


class TestPaperExamples:
    def test_q1_msc_heights(self, paper_q1):
        """CliqueSquare-MSC reaches Fig. 4's height-3 plan for Q1."""
        result = cliquesquare(paper_q1, MSC, timeout_s=60)
        assert result.plans
        assert min(height(p) for p in result.plans) == 3

    def test_fig10_mxc_plus_and_xc_plus_fail(self, fig10_query):
        """'When MXC+ and XC+ fail' (§4.4): no plan at all."""
        assert cliquesquare(fig10_query, MXC_PLUS).plan_count == 0
        assert cliquesquare(fig10_query, XC_PLUS).plan_count == 0
        assert best_effort_plan(fig10_query, MXC_PLUS) is None

    def test_fig10_sc_plus_single_plan(self, fig10_query):
        """SC+ can produce only one plan for Fig. 10's query."""
        result = cliquesquare(fig10_query, SC_PLUS)
        unique = result.unique_plans()
        assert len(unique) == 1
        assert height(unique[0]) == 2

    def test_fig10_sc_has_more_plans(self, fig10_query):
        """SC also builds the plan using partial clique {t1,t2} + {t3}."""
        result = cliquesquare(fig10_query, SC, timeout_s=30)
        heights = {height(p) for p in result.plans}
        assert 2 in heights
        assert len(result.unique_plans()) > 1

    def test_fig11_msc_produces_single_plan(self, fig11_qx):
        """Fig. 12: the only MSC plan for QX."""
        result = cliquesquare(fig11_qx, MSC)
        unique = result.unique_plans()
        assert len(unique) == 1
        assert height(unique[0]) == 2

    def test_fig11_sc_contains_fig13_plan(self, fig11_qx):
        """Fig. 13: SC builds additional height-2 plans MSC misses."""
        sc = cliquesquare(fig11_qx, SC, timeout_s=30)
        msc = cliquesquare(fig11_qx, MSC)
        sc_h2 = {p.signature() for p in sc.plans if height(p) == 2}
        msc_h2 = {p.signature() for p in msc.plans if height(p) == 2}
        assert msc_h2 < sc_h2  # strictly more HO plans in SC

    def test_fig14_exact_cover_options_lossy(self, fig14):
        """Fig. 14: XC options need an extra stage vs. simple covers."""
        msc_plus = cliquesquare(fig14, MSC_PLUS)
        assert min(height(p) for p in msc_plus.plans) == 2
        for option in (MXC, XC):
            result = cliquesquare(fig14, option, timeout_s=30)
            assert result.plans, option.name
            assert min(height(p) for p in result.plans) == 3, option.name


class TestStarAndChain:
    def test_star_all_options_one_plan(self):
        """Fig. 16's star column: minimum options produce exactly 1 plan."""
        q = star_query(6)
        for option in (MXC_PLUS, MSC_PLUS, MXC, MSC):
            result = cliquesquare(q, option)
            assert result.plan_count == 1, option.name
            assert height(result.plans[0]) == 1

    def test_chain_heights_logarithmic(self):
        """Minimum covers halve chains: height ~ ceil(log2 n)."""
        import math

        for n in (2, 4, 6, 8):
            result = cliquesquare(chain_query(n), MSC, timeout_s=30)
            assert min(height(p) for p in result.plans) == math.ceil(math.log2(n))


class TestMaskState:
    """The search's bitmask state against the variable graph it encodes."""

    @staticmethod
    def variable_masks(query, graph):
        bits = {v: 1 << k for k, v in enumerate(query.variables())}
        return tuple(
            sum(bits[v] for v in graph.node_variables(i)) for i in range(len(graph))
        )

    @pytest.mark.parametrize("option", [SC_PLUS, MSC])
    def test_structure_key_is_the_graphs_maximal_cliques(self, paper_q1, option):
        # SC+ puts one pattern in two nodes, so a variable of that one
        # pattern labels an edge: the masks must cover every variable.
        rng = random.Random(5)
        graph = VariableGraph.from_query(paper_q1)
        while len(graph) > 1:
            cliques = {sum(1 << i for i in c) for c in graph.edge_map().values()}
            key = structure_key(self.variable_masks(paper_q1, graph))
            assert key == (len(graph), frozenset(cliques))
            some = list(islice(decompositions(graph, option), 40))
            graph = graph.reduce(rng.choice(some))

    @pytest.mark.parametrize("seed,n", [(2, 4), (3, 4), (7, 5)])
    def test_search_equals_the_graph_fold(self, seed, n):
        """Every option's states and plans, in order, equal a plain walk
        over ``VariableGraph.reduce`` folded by ``create_query_plan``.
        On the 5-pattern query SC+ puts one pattern in two nodes, and
        the variable only that pattern has labels an edge whose clique
        no other variable has (SC's space there runs to thousands of
        plans, so it sits this one out)."""
        query = random_connected_query(random.Random(seed), n)
        for option in [o for o in ALL_OPTIONS if n == 4 or o is not SC]:
            states, plans = 0, []

            def walk(sequence):
                nonlocal states
                states += 1
                graph = sequence[-1]
                if len(graph) == 1:
                    plans.append(create_query_plan(query, sequence).signature())
                for d in decompositions(graph, option):
                    walk(sequence + [graph.reduce(d)])

            walk([VariableGraph.from_query(query)])
            result = cliquesquare(query, option, max_plans=None, timeout_s=None)
            assert result.states == states, option.name
            assert [p.signature() for p in result.plans] == plans, option.name

    def test_step_checks_definition_3_3(self):
        q = chain_query(4)  # t_i and t_i+1 share one variable
        masks = self.variable_masks(q, VariableGraph.from_query(q))
        ok = (frozenset({0, 1}), frozenset({2, 3}))
        assert _step(ok, masks, {}) == ((((0, 1), 0b11), ((2, 3), 0b1100)), False)
        twins = (frozenset({0, 1}), frozenset({1}), frozenset({2, 3}))
        assert _step(twins, masks, {})[1]  # node 1 is carried and joined
        for bad in (
            tuple(frozenset({i}) for i in range(4)),  # |D| = |N|
            (frozenset({0, 2}), frozenset({1, 3})),  # no shared variable
            (frozenset({0, 1}), frozenset({2})),  # node 3 uncovered
        ):
            with pytest.raises(ValueError):
                _step(bad, masks, {})


class TestBudget:
    def test_max_plans_truncation(self, paper_q1):
        result = cliquesquare(paper_q1, SC, max_plans=5, timeout_s=30)
        assert result.plan_count == 5
        assert result.truncated

    def test_timeout_truncation(self):
        q = chain_query(9)
        result = cliquesquare(q, SC, max_plans=None, timeout_s=0.05)
        assert result.truncated

    def test_uniqueness_ratio_bounds(self, paper_q1):
        result = cliquesquare(paper_q1, MSC, timeout_s=30)
        assert 0 < result.uniqueness_ratio <= 1.0


@given(st.integers(0, 10_000), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_all_plans_answer_the_query(seed, n):
    """Every MSC plan of a random query computes the reference answer.

    Executes plans with the in-memory relational kernel over a random
    graph (the distributed path is tested in test_executor.py).
    """
    rng = random.Random(seed)
    query = random_connected_query(rng, n)
    data_rng = random.Random(seed + 1)
    from repro.rdf.graph import RDFGraph

    g = RDFGraph(validate=False)
    values = [f"<e{i}>" for i in range(6)]
    for i in range(60):
        g.add(
            data_rng.choice(values),
            f"p{data_rng.randrange(n)}",
            data_rng.choice(values),
        )
    expected = evaluate(query, g)

    from repro.relational.joins import star_join
    from repro.relational.relation import Relation
    from repro.core.logical import Join, Project, Match as M

    def run(op):
        if isinstance(op, M):
            rows = []
            from repro.physical.translate import bind_triple

            for t in g.match(op.pattern.s, op.pattern.p, op.pattern.o):
                row = bind_triple(op.pattern, t)
                if row is not None:
                    rows.append(row)
            return Relation(op.attrs, rows)
        if isinstance(op, Join):
            return star_join([run(c) for c in op.inputs], on=op.on)
        if isinstance(op, Project):
            return run(op.child).project(op.on)
        raise TypeError(op)

    result = cliquesquare(query, MSC, timeout_s=20)
    for plan in result.unique_plans()[:10]:
        got = set(run(plan.root).rows)
        assert got == expected
