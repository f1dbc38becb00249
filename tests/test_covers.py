"""Unit and property tests for cover enumeration (repro.core.covers)."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.covers import (
    EnumerationBudget,
    iter_exact_covers,
    iter_irredundant_covers,
    iter_simple_covers,
    masks_of,
    minimum_covers,
)


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

    def test_budget_truncates(self):
        n = 6
        sets = [{i} for i in range(n)] + [
            {i, j} for i in range(n) for j in range(i + 1, n)
        ]
        budget = EnumerationBudget(max_items=5)
        covers = list(iter_simple_covers(n, masks_of(n, sets), n - 1, budget))
        assert len(covers) == 5
        assert budget.truncated

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

    def test_deepening_starts_at_the_size_bound(self, monkeypatch):
        """Depths below ceil(n / largest set) cannot cover: never tried."""
        import repro.core.covers as covers

        depths = []
        real = covers.iter_irredundant_covers

        def spy(universe_size, masks, max_size, budget=None):
            depths.append(max_size)
            return real(universe_size, masks, max_size, budget)

        monkeypatch.setattr(covers, "iter_irredundant_covers", spy)
        n = 7  # a chain: pairs only, so no cover below ceil(7 / 2) = 4
        sets = [{i, i + 1} for i in range(n - 1)] + [{i} for i in range(n)]
        found = minimum_covers(n, masks_of(n, sets), exact=False)
        assert depths == [4]
        assert found and all(len(c) == 4 for c in found)

    def test_empty_universe(self):
        assert minimum_covers(0, [], exact=False) == []


class TestIrredundantCovers:
    def test_contains_all_irredundant(self):
        n = 4
        sets = [{0, 1}, {1, 2}, {2, 3}, {0, 3}]
        masks = masks_of(n, sets)
        got = {tuple(sorted(c)) for c in iter_irredundant_covers(n, masks, n - 1)}
        brute = brute_force_covers(n, masks, n - 1)

        def irredundant(cover):
            for j in cover:
                rest = 0
                for k in cover:
                    if k != j:
                        rest |= masks[k]
                if rest == (1 << n) - 1:
                    return False
            return True

        assert {c for c in brute if irredundant(c)} <= got
        assert got <= brute

    def test_no_duplicates(self):
        n = 6
        sets = [{i, (i + 1) % n} for i in range(n)]
        masks = masks_of(n, sets)
        covers = list(iter_irredundant_covers(n, masks, n - 1))
        assert len(covers) == len(set(covers))


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
