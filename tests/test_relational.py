"""Unit and property tests for the relational kernel (Relation + joins)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.relational.joins import common_attributes, hash_join, output_schema, star_join
from repro.relational.relation import Relation


class TestRelation:
    def test_duplicate_schema_rejected(self):
        with pytest.raises(ValueError):
            Relation(("?a", "?a"))

    def test_index_of(self):
        r = Relation(("?a", "?b"))
        assert r.index_of("?b") == 1
        with pytest.raises(KeyError):
            r.index_of("?c")

    def test_project_dedupes(self):
        r = Relation(("?a", "?b"), [(1, 2), (1, 3), (1, 2)])
        p = r.project(("?a",))
        assert p.attrs == ("?a",)
        assert p.rows == [(1,)]

    def test_project_reorders(self):
        r = Relation(("?a", "?b"), [(1, 2)])
        assert r.project(("?b", "?a")).rows == [(2, 1)]

    def test_distinct(self):
        r = Relation(("?a",), [(1,), (1,), (2,)])
        assert r.distinct().rows == [(1,), (2,)]

class TestSchemas:
    def test_output_schema_union_order(self):
        r1 = Relation(("?a", "?b"))
        r2 = Relation(("?b", "?c"))
        assert output_schema((r1, r2)) == ("?a", "?b", "?c")

    def test_common_attributes(self):
        r1 = Relation(("?a", "?b", "?c"))
        r2 = Relation(("?c", "?b"))
        assert common_attributes((r1, r2)) == ("?b", "?c")


class TestHashJoin:
    def test_basic(self):
        left = Relation(("?a", "?b"), [(1, "x"), (2, "y")])
        right = Relation(("?b", "?c"), [("x", 10), ("x", 11), ("z", 12)])
        out = hash_join(left, right)
        assert out.attrs == ("?a", "?b", "?c")
        assert out.to_set() == {(1, "x", 10), (1, "x", 11)}

    def test_multi_attribute(self):
        left = Relation(("?a", "?b"), [(1, 2), (1, 3)])
        right = Relation(("?a", "?b", "?c"), [(1, 2, 9), (1, 4, 8)])
        assert hash_join(left, right).to_set() == {(1, 2, 9)}

    def test_cartesian_product_degenerate(self):
        left = Relation(("?a",), [(1,), (2,)])
        right = Relation(("?b",), [(3,)])
        assert hash_join(left, right).to_set() == {(1, 3), (2, 3)}

    def test_empty_side(self):
        left = Relation(("?a", "?b"), [])
        right = Relation(("?b", "?c"), [("x", 1)])
        assert hash_join(left, right).rows == []


class TestStarJoin:
    def test_three_way_star(self):
        r1 = Relation(("?d", "?p"), [("d1", "p1"), ("d2", "p2")])
        r2 = Relation(("?d", "?s"), [("d1", "s1"), ("d1", "s2")])
        r3 = Relation(("?d",), [("d1",)])
        out = star_join([r1, r2, r3], on=("?d",))
        assert out.to_set() == {("d1", "p1", "s1"), ("d1", "p1", "s2")}

    def test_residual_equalities_enforced(self):
        """Inputs sharing an attribute beyond the key must agree on it
        (the folded-in §4.2 selections)."""
        r1 = Relation(("?d", "?w"), [("d1", 1), ("d1", 2)])
        r2 = Relation(("?d", "?w"), [("d1", 1)])
        out = star_join([r1, r2], on=("?d",))
        assert out.to_set() == {("d1", 1)}

    def test_default_key_is_common_attrs(self):
        r1 = Relation(("?a", "?b"), [(1, 2)])
        r2 = Relation(("?b", "?c"), [(2, 3)])
        assert star_join([r1, r2]).to_set() == {(1, 2, 3)}

    def test_single_input_passthrough(self):
        r = Relation(("?a",), [(1,)])
        assert star_join([r]) is r

    def test_no_shared_attrs_rejected(self):
        r1 = Relation(("?a",), [(1,)])
        r2 = Relation(("?b",), [(2,)])
        with pytest.raises(ValueError):
            star_join([r1, r2])

    def test_key_missing_from_input_rejected(self):
        r1 = Relation(("?a", "?b"), [(1, 2)])
        r2 = Relation(("?b",), [(2,)])
        with pytest.raises(ValueError):
            star_join([r1, r2], on=("?a",))

    def test_empty_input_gives_empty_output(self):
        r1 = Relation(("?a", "?b"), [(1, 2)])
        r2 = Relation(("?b",), [])
        assert star_join([r1, r2], on=("?b",)).rows == []

    def test_equals_cascade_of_hash_joins(self):
        r1 = Relation(("?x", "?a"), [(i % 3, i) for i in range(10)])
        r2 = Relation(("?x", "?b"), [(i % 3, i * 2) for i in range(8)])
        r3 = Relation(("?x", "?c"), [(i % 2, i * 3) for i in range(6)])
        via_star = star_join([r1, r2, r3], on=("?x",))
        via_binary = hash_join(hash_join(r1, r2), r3)
        assert via_star.to_set() == via_binary.project(via_star.attrs).to_set()


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=20),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=20),
)
def test_hash_join_matches_nested_loop(left_rows, right_rows):
    """hash_join agrees with a naive nested-loop natural join."""
    left = Relation(("?x", "?y"), list(set(left_rows)))
    right = Relation(("?y", "?z"), list(set(right_rows)))
    out = hash_join(left, right)
    expected = {
        (a, b, d)
        for (a, b) in left.rows
        for (c, d) in right.rows
        if b == c
    }
    assert out.to_set() == expected


@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5)), max_size=15),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5)), max_size=15),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5)), max_size=15),
)
def test_star_join_matches_binary_cascade(rows1, rows2, rows3):
    """n-ary star join equals the cascade of binary natural joins."""
    r1 = Relation(("?k", "?a"), list(set(rows1)))
    r2 = Relation(("?k", "?b"), list(set(rows2)))
    r3 = Relation(("?k", "?c"), list(set(rows3)))
    star = star_join([r1, r2, r3], on=("?k",)).to_set()
    cascade_rel = hash_join(hash_join(r1, r2), r3)
    cascade = cascade_rel.project(("?k", "?a", "?b", "?c")).to_set()
    assert star == cascade
