"""Unit tests for repro.rdf.dictionary."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rdf.dictionary import Dictionary


class TestDictionary:
    def test_encode_assigns_dense_ids(self):
        d = Dictionary()
        assert d.encode("a") == 0
        assert d.encode("b") == 1
        assert d.encode("a") == 0
        assert len(d) == 2

    def test_decode_inverts_encode(self):
        d = Dictionary()
        ident = d.encode("term")
        assert d.decode(ident) == "term"

    def test_decode_unknown_raises_keyerror(self):
        d = Dictionary()
        with pytest.raises(KeyError):
            d.decode(0)
        with pytest.raises(KeyError):
            d.decode(-1)

    def test_lookup_without_insert(self):
        d = Dictionary()
        assert d.lookup("missing") is None
        d.encode("present")
        assert d.lookup("present") == 0
        assert len(d) == 1

    def test_contains_and_iter(self):
        d = Dictionary()
        d.encode_many(["x", "y", "x"])
        assert "x" in d and "y" in d and "z" not in d
        assert list(d) == ["x", "y"]

    def test_encode_many_preserves_order(self):
        d = Dictionary()
        assert d.encode_many(["a", "b", "a", "c"]) == [0, 1, 0, 2]

    def test_decode_many(self):
        d = Dictionary()
        d.encode_many(["a", "b", "c"])
        assert d.decode_many([2, 0]) == ["c", "a"]

    def test_id_of_never_numbers_a_term(self):
        d = Dictionary(["a", "b"])
        assert d.id_of("b") == 1 and d.ids_of(["b", "a"]) == [1, 0]
        with pytest.raises(KeyError):
            d.ids_of(["a", "c"])
        assert len(d) == 2
        with pytest.raises(ValueError):
            Dictionary(["a", "a"])

    @pytest.mark.parametrize("terms", [[], ["a", "b", "a", "c"]])
    def test_pickles_as_a_replica_of_its_terms(self, terms):
        """A replica (what a shard worker's Prime carries) numbers every
        term as the original does, and keeps numbering after it —
        the empty dictionary included."""
        d = Dictionary()
        d.encode_many(terms)
        replica = pickle.loads(pickle.dumps(d))
        assert list(replica) == list(d)
        assert [replica.id_of(t) for t in terms] == d.ids_of(terms)
        assert replica.encode("new") == len(d)


@given(st.lists(st.text(min_size=1), min_size=1, max_size=50))
def test_roundtrip_property(terms):
    """encode/decode is a bijection over any term sequence."""
    d = Dictionary()
    ids = d.encode_many(terms)
    assert d.decode_many(ids) == terms
    # ids are dense: exactly one per distinct term
    assert len(d) == len(set(terms))
    assert sorted(set(ids)) == list(range(len(set(terms))))
