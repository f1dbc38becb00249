"""Tests for the §4.5 complexity bounds (Fig. 8)."""

import pytest

from repro.core.algorithm import cliquesquare
from repro.core.complexity import (
    DECOMPOSITION_BOUNDS,
    d_msc,
    d_msc_plus,
    d_mxc,
    d_mxc_plus,
    d_sc,
    d_sc_plus,
    d_xc,
    d_xc_plus,
    decomposition_bound,
    stirling2,
)
from repro.core.decomposition import ALL_OPTIONS
from repro.core.variable_graph import VariableGraph
from repro.workloads.synthetic import chain_query, star_query
from tests.oracles import (
    decompositions,
    max_maximal_cliques,
    max_partial_cliques,
    reduction_bound,
)


class TestStirling:
    def test_base_cases(self):
        assert stirling2(0, 0) == 1
        assert stirling2(3, 0) == 0
        assert stirling2(0, 2) == 0
        assert stirling2(5, 5) == 1

    def test_known_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 2) == 15
        assert stirling2(5, 3) == 25
        assert stirling2(6, 3) == 90

    def test_recurrence(self):
        for n in range(2, 8):
            for k in range(1, n):
                assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(
                    n - 1, k - 1
                )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stirling2(-1, 2)


class TestBoundFormulas:
    def test_fig8_values_n4(self):
        """Spot-check the Fig. 8 closed forms at n=4 (ceil(n/2)=2)."""
        assert d_mxc_plus(4) == 10  # C(5,2)
        assert d_msc_plus(4) == 36  # C(9,2)
        assert d_mxc(4) == 7  # {4 2}
        assert d_msc(4) == 105  # C(15,2)
        assert d_xc_plus(4) == sum((5, 10, 10))  # C(5,1)+C(5,2)+C(5,3)
        assert d_xc(4) == 0 + 1 + 7 + 6  # {4,0}+{4,1}+{4,2}+{4,3}
        assert d_sc_plus(4) == 9 + 36 + 84
        assert d_sc(4) == 15 + 105 + 455

    def test_bounds_ordering(self):
        """Partial-clique bounds dominate maximal ones; all-cover bounds
        dominate minimum ones (matching Fig. 7's inclusion directions)."""
        for n in range(3, 9):
            assert d_msc(n) >= d_msc_plus(n) >= d_mxc_plus(n)
            assert d_sc(n) >= d_sc_plus(n)
            assert d_sc(n) >= d_msc(n)
            assert d_xc(n) >= d_mxc(n)

    def test_lemma_bounds(self):
        assert max_maximal_cliques(5) == 11
        assert max_partial_cliques(5) == 31

    def test_n1_has_no_decompositions(self):
        for name in DECOMPOSITION_BOUNDS:
            assert decomposition_bound(name, 1) == 0

    def test_unknown_option(self):
        with pytest.raises(ValueError):
            decomposition_bound("ZZZ", 4)

    def test_fig8_table_has_all_options(self):
        table = {name: decomposition_bound(name, 6) for name in DECOMPOSITION_BOUNDS}
        assert set(table) == {o.name for o in ALL_OPTIONS}
        assert all(v > 0 for v in table.values())


class TestBoundsAreUpperBounds:
    """Measured decomposition counts never exceed the Fig. 8 bounds."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_chain_counts_bounded(self, n):
        g = VariableGraph.from_query(chain_query(n))
        for option in ALL_OPTIONS:
            count = sum(1 for _ in decompositions(g, option))
            assert count <= decomposition_bound(option.name, n), option.name

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_star_counts_bounded(self, n):
        g = VariableGraph.from_query(star_query(n))
        for option in ALL_OPTIONS:
            count = sum(1 for _ in decompositions(g, option))
            assert count <= decomposition_bound(option.name, n), option.name


class TestReductionBound:
    def test_t1_is_one(self):
        assert reduction_bound("MSC", 1) == 1

    def test_minimum_options_recurse_on_half(self):
        # T(4) = D(4) * T(2) = D(4) * D(2) * T(1) for minimum options
        assert reduction_bound("MXC", 4) == d_mxc(4) * d_mxc(2)

    def test_non_minimum_options_recurse_on_n_minus_1(self):
        assert reduction_bound("XC", 3) == d_xc(3) * d_xc(2)

    def test_total_plans_bounded_by_reduction_bound(self):
        """The number of plans CliqueSquare builds never exceeds T(n)."""
        for n in (2, 3, 4):
            q = chain_query(n)
            for option in ALL_OPTIONS:
                result = cliquesquare(q, option, max_plans=None, timeout_s=30)
                assert result.plan_count <= reduction_bound(option.name, n)
