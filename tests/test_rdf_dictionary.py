"""Unit tests for repro.rdf.dictionary."""

import pickle
import random
import threading

import numpy as np
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
        """A replica (what a shard worker's full Sync carries) numbers every
        term as the original does, and keeps numbering after it —
        the empty dictionary included."""
        d = Dictionary()
        d.encode_many(terms)
        replica = pickle.loads(pickle.dumps(d))
        assert list(replica) == list(d)
        assert [replica.id_of(t) for t in terms] == d.ids_of(terms)
        assert replica.encode("new") == len(d)


class TestDecodeColumn:
    """The one bulk decode path: a gather from an id-indexed term array
    that grows by the appended suffix and never crosses a pickle."""

    def test_decodes_an_id_column(self):
        d = Dictionary(["a", "b", "c"])
        assert d.decode_column(np.array([2, 0, 2], dtype=np.int64)) == ["c", "a", "c"]
        assert d.decode_column([1]) == ["b"]
        assert d.decode_column(np.empty(0, dtype=np.int64)) == []

    def test_ids_appended_after_a_read_decode(self):
        """Terms numbered between two reads (a write between two
        queries) decode, across several growths of the array."""
        d = Dictionary(["a", "b"])
        assert d.decode_column([1, 0]) == ["b", "a"]
        for step in range(1, 6):
            d.encode_many([f"t{step}.{i}" for i in range(step * 7)])
            ids = np.arange(len(d))
            assert d.decode_column(ids) == list(d)
        d.encode("last")
        assert d.decode_column([len(d) - 1, 0]) == ["last", "a"]

    @pytest.mark.parametrize("bad", [-1, "len"])
    def test_out_of_range_ids_raise_keyerror(self, bad):
        d = Dictionary(["a", "b"])
        d.decode_column([0])  # the array exists, with spare capacity
        d.encode("c")
        ident = len(d) if bad == "len" else bad
        with pytest.raises(KeyError):
            d.decode_column([0, ident])
        with pytest.raises(KeyError):
            d.decode_many([ident])
        assert d.decode_column([2]) == ["c"]

    def test_a_pickled_replica_carries_no_array_and_still_decodes(self):
        d = Dictionary(["a", "b", "c"])
        d.decode_column([0, 1, 2])
        data = pickle.dumps(d)
        assert data == pickle.dumps(Dictionary(["a", "b", "c"]))
        replica = pickle.loads(data)
        assert replica._terms[1] == 0
        assert replica.decode_column([2, 1]) == ["c", "b"]
        replica.merge_entries(3, ["d"])
        assert replica.decode_column([3]) == ["d"]

    def test_readers_decode_while_a_writer_appends(self):
        """4 threads decode random id columns while a fifth appends:
        every decode names the terms of its ids."""
        d = Dictionary([f"t{i}" for i in range(64)])
        done = threading.Event()
        errors: list[BaseException] = []

        def read(seed: int) -> None:
            rng = random.Random(seed)
            try:
                while not done.is_set():
                    ids = [rng.randrange(len(d)) for _ in range(rng.randrange(1, 50))]
                    assert d.decode_column(np.array(ids)) == [f"t{i}" for i in ids]
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        readers = [threading.Thread(target=read, args=(seed,)) for seed in range(4)]
        for thread in readers:
            thread.start()
        try:
            for start in range(64, 4_000, 41):
                d.encode_many([f"t{i}" for i in range(start, start + 41)])
        finally:
            done.set()
            for thread in readers:
                thread.join()
        assert not errors
        assert d.decode_column(np.arange(len(d))) == list(d)


@given(st.lists(st.text(min_size=1), min_size=1, max_size=50))
def test_roundtrip_property(terms):
    """encode/decode is a bijection over any term sequence."""
    d = Dictionary()
    ids = d.encode_many(terms)
    assert d.decode_many(ids) == terms
    # ids are dense: exactly one per distinct term
    assert len(d) == len(set(terms))
    assert sorted(set(ids)) == list(range(len(set(terms))))
