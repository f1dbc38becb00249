"""Tests for the §5.1 partitioner and storage layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioning.layout import file_name, parse_file_name, triple_file
from repro.partitioning.triple_partitioner import (
    PartitionedStore,
    partition_graph,
    place,
)
from repro.rdf.graph import RDFGraph


class TestLayout:
    def test_file_name(self):
        assert file_name("s", "ub:worksFor") == "s|ub:worksFor"

    def test_rdf_type_object_split(self):
        assert (
            file_name("p", "rdf:type", "ub:FullProfessor")
            == "p|rdf:type|ub:FullProfessor"
        )

    def test_object_split_only_for_rdf_type(self):
        with pytest.raises(ValueError):
            file_name("s", "ub:worksFor", "<d>")

    def test_bad_placement(self):
        with pytest.raises(ValueError):
            file_name("x", "p")

    def test_triple_file_routes_rdf_type(self):
        assert triple_file("o", "rdf:type", "ub:Dept") == "o|rdf:type|ub:Dept"
        assert triple_file("o", "ub:worksFor", "<d>") == "o|ub:worksFor"

    def test_parse_roundtrip(self):
        assert parse_file_name("s|p") == ("s", "p", None)
        assert parse_file_name("p|rdf:type|ub:X") == ("p", "rdf:type", "ub:X")
        with pytest.raises(ValueError):
            parse_file_name("nope")


class TestPlace:
    def test_deterministic(self):
        assert place("<a>", 7) == place("<a>", 7)

    def test_in_range(self):
        for value in ("<a>", "ub:p", '"lit"'):
            assert 0 <= place(value, 7) < 7

    def test_spread(self):
        nodes = {place(f"<e{i}>", 7) for i in range(100)}
        assert len(nodes) == 7  # all nodes receive data


class TestPartitionedStore:
    @pytest.fixture
    def store(self, university_graph) -> PartitionedStore:
        return partition_graph(university_graph, 7)

    def test_three_replicas(self, store, university_graph):
        assert store.total_stored() == 3 * len(university_graph)

    def test_each_replica_is_complete(self, store, university_graph):
        for placement in ("s", "p", "o"):
            assert store.replica_triples(placement) == set(university_graph)

    def test_colocation_by_subject(self, store, university_graph):
        """All triples sharing a subject live on hash(subject) in 's'."""
        for s, p, o in university_graph:
            node = store.node_of(s)
            assert (s, p, o) in store.scan(node, "s", p, o if p == "rdf:type" else None)

    def test_colocation_by_object(self, store, university_graph):
        for s, p, o in university_graph:
            node = store.node_of(o)
            found = store.scan(node, "o", p, o if p == "rdf:type" else None)
            assert (s, p, o) in found

    def test_scan_by_property_matches_graph(self, store, university_graph):
        for prop in university_graph.properties:
            scanned = []
            for node in range(7):
                scanned.extend(store.scan(node, "s", prop))
            expected = set(university_graph.match("?s", prop, "?o"))
            assert set(scanned) == expected
            assert len(scanned) == len(expected)  # no duplicates in a replica

    def test_rdf_type_files_are_object_split(self, store):
        names = set()
        for node in range(7):
            names.update(store.file_names(node))
        type_files = [n for n in names if "rdf:type" in n]
        assert type_files
        assert all(n.count("|") == 2 for n in type_files)

    def test_scan_type_with_object(self, store, university_graph):
        rows = []
        for node in range(7):
            rows.extend(store.scan(node, "s", "rdf:type", "ub:Department"))
        assert set(rows) == set(university_graph.match("?s", "rdf:type", "ub:Department"))

    def test_scan_unbound_property_returns_replica(self, store, university_graph):
        rows = []
        for node in range(7):
            rows.extend(store.scan(node, "s"))
        assert len(rows) == len(university_graph)

    def test_scan_missing_property_empty(self, store):
        assert store.scan(0, "s", "zz:nothing") == []

    def test_a_write_refreezes_only_the_files_it_appended_to(self, store):
        """A snapshot after a write shares every file tuple the write did
        not append to with the snapshot before it, on the written nodes
        too; the appended files are new tuples holding the triple."""
        before = store.snapshot()
        triple = ("<NewStudent>", "ub:memberOf", "<NewDept>")
        store.add(triple)
        after = store.snapshot()
        appended = 0
        for node in range(store.num_nodes):
            for name, triples in after.files[node].items():
                old = before.files[node].get(name)
                if old is not None and triples is old:
                    continue
                appended += 1
                assert triples[-1] == triple
                assert triples[:-1] == (old or ())
        assert appended == 3  # one file per replica
        assert store.snapshot() is after


class TestFirstLevelJoinColocation:
    """The §5.1 property: any first-level join is PWOC."""

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_ss_join_colocated(self, seed):
        import random

        rng = random.Random(seed)
        g = RDFGraph(validate=False)
        for i in range(50):
            g.add(f"<s{rng.randrange(10)}>", f"p{rng.randrange(3)}", f"<o{i}>")
        store = partition_graph(g, 5)
        # s-s join on any shared subject: both triples on hash(subject)
        for s, p1, o1 in g:
            for _, p2, o2 in g.match(s, "?p", "?o"):
                node = store.node_of(s)
                assert (s, p1, o1) in store.scan(node, "s", p1, o1 if p1 == "rdf:type" else None)
                assert (s, p2, o2) in store.scan(node, "s", p2, o2 if p2 == "rdf:type" else None)

    def test_so_join_colocated(self, university_graph):
        """s-o joins: subject replica of one triple meets object replica
        of the other on the shared value's node."""
        store = partition_graph(university_graph, 7)
        for s, p, o in university_graph.match("?s", "ub:worksFor", "?o"):
            node = store.node_of(o)
            # the department's subOrganizationOf triple, by subject
            for t in university_graph.match(o, "ub:subOrganizationOf", "?u"):
                assert t in store.scan(node, "s", "ub:subOrganizationOf")
                assert (s, p, o) in store.scan(node, "o", "ub:worksFor")


class TestPlaceMemoization:
    """place() memoizes the polynomial term hash (loading hot path)."""

    def test_cached_hash_matches_direct_computation(self):
        from repro.partitioning.triple_partitioner import _HASH_CACHE, _term_hash

        def reference(value: str) -> int:
            h = 0
            for ch in value:
                h = (h * 131 + ord(ch)) & 0x7FFFFFFF
            return h

        for value in ("", "a", "ub:worksFor", "<http://www.University0.edu>"):
            assert _term_hash(value) == reference(value)
            assert value in _HASH_CACHE
            # The memoized path returns the identical hash.
            assert _term_hash(value) == reference(value)

    def test_place_stable_across_calls(self):
        for num_nodes in (1, 7, 31):
            assert place("ub:takesCourse", num_nodes) == place(
                "ub:takesCourse", num_nodes
            )
