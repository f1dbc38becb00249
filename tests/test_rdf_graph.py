"""Unit tests for repro.rdf.graph (triple store and pattern matching)."""

import pytest

from repro.rdf.graph import RDFGraph

TRIPLES = [
    ("<a>", "p1", "<b>"),
    ("<a>", "p1", "<c>"),
    ("<a>", "p2", "<b>"),
    ("<b>", "p1", "<c>"),
    ("<c>", "p3", '"lit"'),
]


@pytest.fixture
def graph() -> RDFGraph:
    return RDFGraph(TRIPLES)


class TestMutation:
    def test_add_and_len(self, graph):
        assert len(graph) == 5

    def test_duplicate_ignored(self, graph):
        assert graph.add("<a>", "p1", "<b>") is False
        assert len(graph) == 5

    def test_add_all_counts_new(self):
        g = RDFGraph()
        assert g.add_all(TRIPLES) == 5
        assert g.add_all(TRIPLES) == 0

    def test_validation(self):
        g = RDFGraph()
        with pytest.raises(ValueError):
            g.add('"lit"', "p", "<o>")

    def test_validation_can_be_disabled(self):
        g = RDFGraph(validate=False)
        g.add('"odd"', "p", "<o>")
        assert len(g) == 1

    def test_contains(self, graph):
        assert ("<a>", "p1", "<b>") in graph
        assert ("<a>", "p9", "<b>") not in graph


class TestAccessors:
    def test_properties(self, graph):
        assert graph.properties == {"p1", "p2", "p3"}

    def test_subjects_objects(self, graph):
        assert graph.subjects == {"<a>", "<b>", "<c>"}
        assert "<b>" in graph.objects and '"lit"' in graph.objects

    def test_count_property(self, graph):
        assert graph.count_property("p1") == 3
        assert graph.count_property("nope") == 0

    def test_dictionary_tracks_terms(self, graph):
        """The graph keeps strings; the §5.1 store loaded from it numbers
        every term once, and nothing else."""
        from repro.partitioning.triple_partitioner import partition_graph

        dictionary = partition_graph(graph, 3).dictionary
        assert dictionary.lookup("<a>") is not None
        assert dictionary.lookup("?x") is None
        assert set(dictionary) == {term for triple in graph for term in triple}


class TestMatch:
    def test_fully_bound(self, graph):
        assert list(graph.match("<a>", "p1", "<b>")) == [("<a>", "p1", "<b>")]
        assert list(graph.match("<a>", "p1", "<zz>")) == []

    def test_sp_bound(self, graph):
        assert set(graph.match("<a>", "p1", "?o")) == {
            ("<a>", "p1", "<b>"),
            ("<a>", "p1", "<c>"),
        }

    def test_po_bound(self, graph):
        assert set(graph.match("?s", "p1", "<c>")) == {
            ("<a>", "p1", "<c>"),
            ("<b>", "p1", "<c>"),
        }

    def test_so_bound(self, graph):
        assert set(graph.match("<a>", "?p", "<b>")) == {
            ("<a>", "p1", "<b>"),
            ("<a>", "p2", "<b>"),
        }

    def test_s_bound(self, graph):
        assert len(list(graph.match("<a>", "?p", "?o"))) == 3

    def test_p_bound(self, graph):
        assert len(list(graph.match("?s", "p1", "?o"))) == 3

    def test_o_bound(self, graph):
        assert len(list(graph.match("?s", "?p", "<c>"))) == 2

    def test_all_unbound(self, graph):
        assert set(graph.match()) == set(TRIPLES)

    def test_count_match(self, graph):
        assert graph.count_match("?s", "p1", "?o") == 3

    def test_match_consistency_across_indexes(self, graph):
        """Every bound/unbound combination agrees with a full scan."""
        for s in ("<a>", "?s"):
            for p in ("p1", "?p"):
                for o in ("<b>", "?o"):
                    via_index = set(graph.match(s, p, o))
                    via_scan = {
                        t
                        for t in graph
                        if (s.startswith("?") or t[0] == s)
                        and (p.startswith("?") or t[1] == p)
                        and (o.startswith("?") or t[2] == o)
                    }
                    assert via_index == via_scan
