"""Unit tests for the eight decomposition options (§4.3)."""

import pytest

from repro.core.decomposition import (
    ALL_OPTIONS,
    MSC,
    MSC_PLUS,
    MXC,
    MXC_PLUS,
    OPTIONS_BY_NAME,
    SC,
    SC_PLUS,
    XC,
    XC_PLUS,
)
from repro.core.variable_graph import VariableGraph
from repro.sparql.parser import parse_query
from repro.workloads.synthetic import chain_query, star_query
from tests.conftest import FIG10
from tests.oracles import decompositions


def all_decompositions(graph, option):
    return list(decompositions(graph, option))


def has_decomposition(graph, option):
    return next(decompositions(graph, option), None) is not None


class TestOptionAlgebra:
    def test_eight_distinct_options(self):
        assert len(ALL_OPTIONS) == 8
        assert len({o.name for o in ALL_OPTIONS}) == 8

    def test_lookup_by_name(self):
        assert OPTIONS_BY_NAME["MSC"] is MSC
        assert OPTIONS_BY_NAME["XC+"] is XC_PLUS

    def test_comparison_triple_examples_from_fig6(self):
        # Fig. 6: (MXC+, XC+) -> (=, =, <) ; (MXC+, SC) -> (<, <, <)
        assert MXC_PLUS.comparison_triple(XC_PLUS) == ("=", "=", "<")
        assert MXC_PLUS.comparison_triple(SC) == ("<", "<", "<")
        assert XC_PLUS.comparison_triple(MSC_PLUS) == ("=", "<", ">")
        assert SC_PLUS.comparison_triple(MXC) == ("<", ">", ">")
        assert MSC.comparison_triple(SC) == ("=", "=", "<")

    def test_domination(self):
        # Fig. 7 arrows: SC includes everything
        for option in ALL_OPTIONS:
            if option is not SC:
                assert option.dominated_by(SC)
        # incomparable pair: SC+ vs MXC has both < and >
        assert not SC_PLUS.dominated_by(MXC)
        assert not MXC.dominated_by(SC_PLUS)


class TestDecompositionGeneration:
    def test_all_results_satisfy_def_33(self, paper_q1):
        g = VariableGraph.from_query(paper_q1)
        for option in (MSC_PLUS, MXC, MSC):
            for d in all_decompositions(g, option):
                g.validate_decomposition(d)  # raises on violation

    def test_star_single_decomposition_for_minimum_options(self):
        g = VariableGraph.from_query(star_query(5))
        for option in (MXC_PLUS, MSC_PLUS, MXC, MSC):
            ds = all_decompositions(g, option)
            assert len(ds) == 1, option.name
            assert ds[0] == (frozenset(range(5)),)

    def test_chain_minimum_cover_size(self):
        # chain of 6: minimum simple cover = 3 disjoint edges
        g = VariableGraph.from_query(chain_query(6))
        for d in all_decompositions(g, MSC):
            assert len(d) == 3

    def test_fig10_failure_of_maximal_exact_options(self, fig10_query):
        g = VariableGraph.from_query(fig10_query)
        assert not has_decomposition(g, MXC_PLUS)
        assert not has_decomposition(g, XC_PLUS)
        assert has_decomposition(g, MSC_PLUS)
        assert has_decomposition(g, MXC)

    def test_exact_covers_are_partitions(self, paper_q1):
        g = VariableGraph.from_query(paper_q1)
        for d in all_decompositions(g, MXC):
            seen = set()
            for clique in d:
                assert not (clique & seen)
                seen |= clique

    def test_sc_superset_of_msc(self, fig11_qx):
        g = VariableGraph.from_query(fig11_qx)
        sc = set(all_decompositions(g, SC))
        msc = set(all_decompositions(g, MSC))
        assert msc <= sc
        assert len(sc) > len(msc)

    def test_xc_superset_of_mxc(self, fig11_qx):
        g = VariableGraph.from_query(fig11_qx)
        xc = set(all_decompositions(g, XC))
        mxc = set(all_decompositions(g, MXC))
        assert mxc <= xc

    def test_single_node_graph_has_no_decompositions(self):
        g = VariableGraph.from_query(parse_query("SELECT ?x WHERE { ?x p ?y }"))
        for option in ALL_OPTIONS:
            assert all_decompositions(g, option) == []

    def test_two_node_graph(self):
        g = VariableGraph.from_query(
            parse_query("SELECT ?x WHERE { ?x p ?y . ?y q ?z }")
        )
        for option in ALL_OPTIONS:
            ds = all_decompositions(g, option)
            assert ds == [(frozenset({0, 1}),)], option.name


class TestPlanSpaceMonotonicity:
    """Decomposition-level checks backing Proposition 4.1."""

    @pytest.mark.parametrize(
        "smaller,larger",
        [
            (MXC_PLUS, XC_PLUS),
            (MSC_PLUS, SC_PLUS),
            (MXC, XC),
            (MSC, SC),
            (MXC_PLUS, MXC),
            (MSC_PLUS, MSC),
            (XC_PLUS, XC),
            (SC_PLUS, SC),
            (MXC, MSC),
            (XC, SC),
        ],
    )
    def test_decomposition_sets_nest(self, paper_q1, smaller, larger):
        g = VariableGraph.from_query(paper_q1)
        # use a smaller graph for the explosive options
        sub = VariableGraph.from_query(
            parse_query("SELECT ?a WHERE { ?a p1 ?b . ?a p2 ?c . ?c p3 ?d . ?d p4 ?b }")
        )
        small = set(all_decompositions(sub, smaller))
        large = set(all_decompositions(sub, larger))
        assert small <= large, (smaller.name, larger.name)
