"""Unit and property tests for cover enumeration (repro.core.covers)."""

import time
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.covers import (
    EnumerationBudget,
    iter_exact_covers,
    iter_simple_covers,
    minimum_covers,
)


def masks_of(n, sets):
    """Element sets as bitmasks over ``0..n-1``."""
    assert all(0 <= e < n for s in sets for e in s)
    return [sum(1 << e for e in s) for s in sets]


def brute_force_covers(n, masks, max_size, exact=False):
    """All covers by direct subset enumeration (ground truth)."""
    full = (1 << n) - 1
    out = set()
    for size in range(1, max_size + 1):
        for combo in combinations(range(len(masks)), size):
            union = 0
            disjoint = True
            acc = 0
            for j in combo:
                if acc & masks[j]:
                    disjoint = False
                union |= masks[j]
                acc |= masks[j]
            if union == full and (not exact or disjoint):
                out.add(tuple(sorted(combo)))
    return out


class TestSimpleCovers:
    def test_matches_brute_force_small(self):
        n = 4
        sets = [{0, 1}, {1, 2}, {2, 3}, {0}, {3}, {1, 3}]
        masks = masks_of(n, sets)
        got = {tuple(sorted(c)) for c in iter_simple_covers(n, masks, n - 1)}
        assert got == brute_force_covers(n, masks, n - 1)

    def test_includes_redundant_covers(self):
        # {0,1} ∪ {1,2} covers; adding {1} is redundant but still a cover
        n = 3
        masks = masks_of(n, [{0, 1}, {1, 2}, {1}])
        got = {tuple(sorted(c)) for c in iter_simple_covers(n, masks, 2)}
        assert (0, 1) in got
        # size cap is respected: the 3-set cover exceeds max_size=2
        assert all(len(c) <= 2 for c in got)

    def test_no_duplicates(self):
        n = 5
        sets = [{i, (i + 1) % 5} for i in range(5)] + [{i} for i in range(5)]
        masks = masks_of(n, sets)
        covers = list(iter_simple_covers(n, masks, n - 1))
        assert len(covers) == len({tuple(sorted(c)) for c in covers})

    def test_empty_candidates(self):
        assert list(iter_simple_covers(3, [], 2)) == []


class TestExactCovers:
    def test_matches_brute_force(self):
        n = 4
        sets = [{0, 1}, {2, 3}, {0}, {1}, {2}, {3}, {1, 2}]
        masks = masks_of(n, sets)
        got = {tuple(sorted(c)) for c in iter_exact_covers(n, masks, n - 1)}
        assert got == brute_force_covers(n, masks, n - 1, exact=True)

    def test_partitions_are_disjoint(self):
        n = 5
        sets = [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0}, {2}, {4}]
        masks = masks_of(n, sets)
        for cover in iter_exact_covers(n, masks, n - 1):
            seen = 0
            for j in cover:
                assert seen & masks[j] == 0
                seen |= masks[j]

    def test_no_exact_cover_case(self):
        # Fig. 10 shape: candidates {0,1} and {1,2} cannot exactly cover {0,1,2}
        masks = masks_of(3, [{0, 1}, {1, 2}])
        assert list(iter_exact_covers(3, masks, 2)) == []


class TestMinimumCovers:
    def test_minimum_simple(self):
        n = 4
        sets = [{0, 1}, {2, 3}, {0, 1, 2}, {3}, {0}, {1}, {2}]
        covers = minimum_covers(n, masks_of(n, sets), exact=False)
        assert covers  # {0,1} + {2,3}, or {0,1,2} + {3} / {2,3}
        assert all(len(c) == 2 for c in covers)
        got = {tuple(c) for c in covers}
        assert (0, 1) in got and (2, 3) in got

    def test_minimum_exact(self):
        n = 4
        sets = [{0, 1}, {2, 3}, {0, 1, 2}, {3}, {0}, {1}, {2}]
        covers = minimum_covers(n, masks_of(n, sets), exact=True)
        assert {tuple(c) for c in covers} == {(0, 1), (2, 3)}

    def test_no_cover_returns_empty(self):
        masks = masks_of(3, [{0, 1}])
        assert minimum_covers(3, masks, exact=False) == []
        assert minimum_covers(3, masks, exact=True) == []

    def test_minimum_equals_brute_force_minimum(self):
        n = 5
        sets = [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}, {1, 3}]
        masks = masks_of(n, sets)
        brute = brute_force_covers(n, masks, n - 1)
        k = min(len(c) for c in brute)
        expected = {c for c in brute if len(c) == k}
        got = {tuple(c) for c in minimum_covers(n, masks, exact=False)}
        assert got == expected

    def test_chain_returns_all_and_only_its_size_four_covers(self):
        n = 7  # a chain: pairs only, so no cover below ceil(7 / 2) = 4
        sets = [{i, i + 1} for i in range(n - 1)] + [{i} for i in range(n)]
        masks = masks_of(n, sets)
        brute = brute_force_covers(n, masks, 4)
        assert min(map(len, brute)) == 4
        found = minimum_covers(n, masks, exact=False)
        assert found == sorted(c for c in brute if len(c) == 4)

    def test_empty_universe(self):
        assert minimum_covers(0, [], exact=False) == []


class TrippingBudget(EnumerationBudget):
    """A budget that runs out after a fixed number of checks."""

    def __init__(self, checks: int) -> None:
        super().__init__()
        self.checks = checks

    def exhausted(self) -> bool:
        self.checks -= 1
        if self.checks < 0:
            self.truncated = True
        return self.truncated


class TestMinimumCoverBudget:
    def test_passed_deadline_returns_nothing_and_truncates(self):
        budget = EnumerationBudget(timeout_s=60)
        budget.deadline = time.monotonic() - 1
        n = 5
        masks = masks_of(n, [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4}])
        assert minimum_covers(n, masks, exact=False, budget=budget) == []
        assert budget.truncated

    def test_cut_short_returns_covers_found_so_far(self):
        """However early the budget trips, the output is a sorted list of
        valid covers of one size, never below the minimum."""
        n = 7
        sets = [{i, i + 1} for i in range(n - 1)] + [{i} for i in range(n)]
        masks = masks_of(n, sets)
        full = minimum_covers(n, masks, exact=False)
        outcomes = set()
        for checks in range(0, 60, 3):
            budget = TrippingBudget(checks)
            got = minimum_covers(n, masks, exact=False, budget=budget)
            assert got == sorted(set(got))
            for cover in got:
                union = 0
                for j in cover:
                    union |= masks[j]
                assert union == (1 << n) - 1
            assert len({len(c) for c in got}) <= 1
            assert all(len(c) >= len(full[0]) for c in got)
            assert budget.truncated or got == full
            outcomes.add(budget.truncated and bool(got))
        assert outcomes == {False, True}  # some cuts kept a partial answer


@st.composite
def cover_instances(draw):
    n = draw(st.integers(2, 5))
    num_sets = draw(st.integers(1, 8))
    sets = []
    for _ in range(num_sets):
        size = draw(st.integers(1, n))
        sets.append(frozenset(draw(st.permutations(range(n)))[:size]))
    return n, sorted(set(sets), key=sorted)


@given(cover_instances())
@settings(max_examples=60, deadline=None)
def test_simple_covers_complete_and_sound(instance):
    """iter_simple_covers == brute force on random instances."""
    n, sets = instance
    masks = masks_of(n, sets)
    got = {tuple(sorted(c)) for c in iter_simple_covers(n, masks, n - 1)}
    assert got == brute_force_covers(n, masks, n - 1)


@given(cover_instances())
@settings(max_examples=60, deadline=None)
def test_exact_covers_complete_and_sound(instance):
    n, sets = instance
    masks = masks_of(n, sets)
    got = {tuple(sorted(c)) for c in iter_exact_covers(n, masks, n - 1)}
    assert got == brute_force_covers(n, masks, n - 1, exact=True)


@given(cover_instances())
@settings(max_examples=60, deadline=None)
def test_minimum_covers_are_minimum(instance):
    n, sets = instance
    masks = masks_of(n, sets)
    brute = brute_force_covers(n, masks, n - 1)
    got = minimum_covers(n, masks, exact=False)
    if not brute:
        assert got == []
    else:
        k = min(len(c) for c in brute)
        assert {tuple(c) for c in got} == {c for c in brute if len(c) == k}


@given(cover_instances())
@settings(max_examples=60, deadline=None)
def test_minimum_exact_covers_are_minimum(instance):
    n, sets = instance
    masks = masks_of(n, sets)
    brute = brute_force_covers(n, masks, n - 1, exact=True)
    got = minimum_covers(n, masks, exact=True)
    if not brute:
        assert got == []
    else:
        k = min(len(c) for c in brute)
        assert got == sorted(c for c in brute if len(c) == k)
