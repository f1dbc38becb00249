"""Unit tests for variable graphs (Definitions 3.1, 3.3, 3.4)."""

import pytest

from repro.core.variable_graph import VariableGraph, canonical_decomposition
from repro.sparql.parser import parse_query


def graph_of(text: str) -> VariableGraph:
    return VariableGraph.from_query(parse_query(text))


class TestConstruction:
    def test_one_node_per_pattern(self, paper_q1):
        g = VariableGraph.from_query(paper_q1)
        assert len(g) == 11
        assert all(len(ns) == 1 for ns in g.nodes)

    def test_node_variables(self):
        g = graph_of("SELECT ?x WHERE { ?x p ?y . ?y q ?z }")
        assert g.node_variables(0) == {"?x", "?y"}
        assert g.node_variables(1) == {"?y", "?z"}

    def test_edge_map_is_maximal_cliques(self, paper_q1):
        g = VariableGraph.from_query(paper_q1)
        edges = g.edge_map()
        # Fig. 1: c`d = {t3, t4, t5, t6} (0-based indices 2..5)
        assert set(edges["?d"]) == {2, 3, 4, 5}
        assert set(edges["?a"]) == {0, 1, 2}
        assert set(edges["?g"]) == {6, 7, 8}
        # non-join variables label no edges
        assert "?b" not in edges and "?h" not in edges

    def test_edges_multigraph(self):
        # two patterns sharing two variables -> two parallel edges
        g = graph_of("SELECT ?x WHERE { ?x p ?y . ?y q ?x }")
        assert dict(g.edge_map()) == {"?x": (0, 1), "?y": (0, 1)}


class TestReduction:
    def test_reduce_merges_patterns(self):
        g = graph_of("SELECT ?y WHERE { ?x p ?y . ?y q ?z . ?z r ?w }")
        reduced = g.reduce([frozenset({0, 1}), frozenset({2})])
        assert len(reduced) == 2
        assert reduced.provenance == (frozenset({0, 1}), frozenset({2}))
        sizes = sorted(len(ns) for ns in reduced.nodes)
        assert sizes == [1, 2]

    def test_reduce_edges_recomputed(self):
        g = graph_of("SELECT ?y WHERE { ?x p ?y . ?y q ?z . ?z r ?w }")
        reduced = g.reduce([frozenset({0, 1}), frozenset({2})])
        # merged node {t0,t1} shares ?z with {t2}
        assert set(reduced.edge_map()) == {"?z"}

    def test_paper_example_reduction(self, paper_q1):
        """Fig. 5(a): the first CliqueSquare-MSC reduction of Q1."""
        g = VariableGraph.from_query(paper_q1)
        d = [
            frozenset({0, 1}),
            frozenset({2, 3, 4, 5}),
            frozenset({6, 7, 8}),
            frozenset({9, 10}),
        ]
        reduced = g.reduce(d)
        assert len(reduced) == 4
        labels = set(reduced.edge_map())
        assert labels == {"?a", "?f", "?i"}  # as drawn in Fig. 5(a)


class TestDecompositionValidation:
    def g(self):
        return graph_of("SELECT ?y WHERE { ?x p ?y . ?y q ?z . ?z r ?w }")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            self.g().reduce([])

    def test_too_many_cliques_rejected(self):
        # |D| must be < |N| (Def. 3.3)
        with pytest.raises(ValueError):
            self.g().reduce([frozenset({0}), frozenset({1}), frozenset({2})])

    def test_non_covering_rejected(self):
        with pytest.raises(ValueError):
            self.g().reduce([frozenset({0, 1})])

    def test_non_clique_rejected(self):
        # t0 and t2 share no variable
        with pytest.raises(ValueError):
            self.g().reduce([frozenset({0, 2}), frozenset({1})])

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            self.g().reduce([frozenset({0, 7}), frozenset({1, 2})])

    def test_canonical_decomposition_dedupes_and_sorts(self):
        d = canonical_decomposition(
            [frozenset({2}), frozenset({0, 1}), frozenset({0, 1})]
        )
        assert d == (frozenset({0, 1}), frozenset({2}))


class TestDerivedStructure:
    def test_caches_do_not_touch_equality_or_hash(self):
        text = "SELECT ?x WHERE { ?x p ?y . ?y q ?z . ?z r ?x }"
        warm, cold = graph_of(text), graph_of(text)
        warm.edge_map(), warm.node_variables(0)
        assert warm == cold and hash(warm) == hash(cold)
        tp_warm, tp_cold = next(iter(warm.nodes[0])), next(iter(cold.nodes[0]))
        tp_warm.variables()
        assert tp_warm == tp_cold and hash(tp_warm) == hash(tp_cold)
        assert not tp_warm < tp_cold and not tp_cold < tp_warm

    def test_edge_map_is_computed_once_and_read_only(self):
        g = graph_of("SELECT ?x WHERE { ?x p ?y . ?y q ?z }")
        assert g.edge_map() is g.edge_map()
        with pytest.raises(TypeError):
            g.edge_map()["?y"] = (0,)

    def test_reduce_orders_cliques_canonically(self):
        g = graph_of("SELECT ?x WHERE { ?x p ?y . ?y q ?z . ?z r ?w }")
        cliques = [frozenset({2}), frozenset({0, 1})]
        reduced = g.reduce(cliques)
        assert reduced.provenance == canonical_decomposition(cliques)
        assert g.reduce(reduced.provenance) == reduced
