"""Tests for plan properties and HO analysis (§4.4, Figs. 7 and 9)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import cliquesquare
from repro.core.decomposition import (
    ALL_OPTIONS,
    MSC,
    MSC_PLUS,
    MXC,
    MXC_PLUS,
    SC,
    SC_PLUS,
    XC,
    XC_PLUS,
)
from repro.core.logical import Join, Match, make_join
from repro.core.properties import (
    analyze_plan_space,
    height,
    operator_height,
    optimal_height,
    plan_space_signatures,
)
from repro.sparql.ast import TriplePattern
from repro.sparql.parser import parse_query
from repro.workloads.synthetic import chain_query, star_query
from tests.conftest import fig14_query, random_connected_query

#: HO classification of Fig. 9.
HO_PARTIAL = (SC_PLUS, MSC_PLUS, MSC)
HO_LOSSY = (MXC_PLUS, XC_PLUS, MXC, XC)


class TestHeight:
    def test_match_height_zero(self):
        assert operator_height(Match(TriplePattern("?a", "p", "?b"))) == 0

    def test_nested_joins(self):
        t1, t2, t3 = (TriplePattern(f"?v{i}", f"p{i}", f"?v{i+1}") for i in range(3))
        j1 = make_join([Match(t1), Match(t2)])
        j2 = make_join([j1, Match(t3)])
        assert operator_height(j1) == 1
        assert operator_height(j2) == 2

    def test_height_is_longest_path(self):
        # unbalanced join: deep left branch, shallow right branch
        t = [TriplePattern("?x", f"p{i}", "?y") for i in range(4)]
        deep = make_join([make_join([Match(t[0]), Match(t[1])]), Match(t[2])])
        top = make_join([deep, Match(t[3])])
        assert operator_height(top) == 3

    def test_fanin_and_binary(self):
        q = star_query(4)
        plan = cliquesquare(q, MSC).plans[0]
        joins = [op for op in plan.root.iter_operators() if isinstance(op, Join)]
        fanins = [len(join.inputs) for join in joins]
        assert max(fanins) == 4
        assert any(fanin != 2 for fanin in fanins)


class TestOptimalHeight:
    def test_star_is_one(self):
        assert optimal_height(star_query(7)) == 1

    def test_chain_is_log(self):
        assert optimal_height(chain_query(8)) == 3

    def test_msc_reference_matches_full_sc_space(self):
        """On small queries, MSC's minimum height equals SC's (HO-partial).

        SC is only exhausted for n <= 4 — its space explodes beyond that
        (which is the paper's point in Fig. 16).
        """
        rng = random.Random(12)
        for n in (2, 3, 4):
            q = random_connected_query(rng, n)
            msc_min = optimal_height(q)
            sc = cliquesquare(q, SC, max_plans=300_000, timeout_s=60)
            assert not sc.truncated
            assert min(height(p) for p in sc.plans) == msc_min


class TestFig9Classification:
    def test_ho_partial_options_always_find_an_ho_plan(self):
        rng = random.Random(99)
        queries = [random_connected_query(rng, n) for n in (3, 4, 5)] + [
            chain_query(5),
            star_query(5),
            fig14_query(),
        ]
        for q in queries:
            opt = optimal_height(q)
            for option in HO_PARTIAL:
                result = cliquesquare(q, option, timeout_s=30)
                assert result.plans, (q, option.name)
                assert min(height(p) for p in result.plans) == opt, option.name

    def test_ho_lossy_witnesses(self, fig10_query, fig14):
        """Fig. 10 kills MXC+/XC+; Fig. 14 kills MXC/XC."""
        for option in (MXC_PLUS, XC_PLUS):
            assert not cliquesquare(fig10_query, option).plans
        opt = optimal_height(fig14)
        for option in (MXC, XC):
            result = cliquesquare(fig14, option, timeout_s=30)
            assert min(height(p) for p in result.plans) > opt, option.name

    def test_msc_not_ho_complete(self, fig11_qx):
        """Fig. 11-13: MSC misses HO plans that SC finds."""
        msc = cliquesquare(fig11_qx, MSC)
        sc = cliquesquare(fig11_qx, SC, timeout_s=30)
        opt = optimal_height(fig11_qx)
        msc_ho = {p.signature() for p in msc.plans if height(p) == opt}
        sc_ho = {p.signature() for p in sc.plans if height(p) == opt}
        assert msc_ho < sc_ho


class TestFig7Inclusions:
    """Plan-space inclusion lattice, checked on small random queries."""

    PAIRS = [
        (MXC_PLUS, XC_PLUS),
        (MXC_PLUS, MSC_PLUS),
        (MXC_PLUS, MXC),
        (XC_PLUS, SC_PLUS),
        (XC_PLUS, XC),
        (MSC_PLUS, SC_PLUS),
        (MSC_PLUS, MSC),
        (MXC, XC),
        (MXC, MSC),
        (SC_PLUS, SC),
        (XC, SC),
        (MSC, SC),
    ]

    @pytest.mark.parametrize("inner,outer", PAIRS, ids=lambda o: o.name)
    def test_inclusion(self, inner, outer):
        rng = random.Random(5)
        for n in (3, 4):
            q = random_connected_query(rng, n)
            small = plan_space_signatures(
                cliquesquare(q, inner, max_plans=None, timeout_s=30)
            )
            large = plan_space_signatures(
                cliquesquare(q, outer, max_plans=None, timeout_s=30)
            )
            assert small <= large, (inner.name, outer.name, q)


class TestAnalyzePlanSpace:
    def test_stats_fields(self, paper_q1):
        stats = analyze_plan_space(paper_q1, MSC, timeout_s=30)
        assert stats.plan_count == 3
        assert stats.unique_count == 3
        assert stats.optimal_height == 3
        assert stats.min_height == 3
        assert stats.ho_count == stats.plan_count  # MSC returns only HO here
        assert stats.optimality_ratio == 1.0
        assert stats.uniqueness_ratio == 1.0
        assert stats.min_height == stats.optimal_height  # found an HO plan

    def test_zero_plans_scores_zero_optimality(self, fig10_query):
        stats = analyze_plan_space(
            fig10_query, MXC_PLUS, reference_height=optimal_height(fig10_query)
        )
        assert stats.plan_count == 0
        assert stats.optimality_ratio == 0.0
        assert stats.uniqueness_ratio == 1.0
        assert stats.min_height is None  # so no HO plan either


@given(st.integers(0, 100_000), st.integers(2, 5))
@settings(max_examples=20, deadline=None)
def test_msc_heights_never_below_optimum(seed, n):
    """No plan can be flatter than the HO reference."""
    q = random_connected_query(random.Random(seed), n)
    opt = optimal_height(q)
    for option in ALL_OPTIONS:
        result = cliquesquare(q, option, max_plans=2_000, timeout_s=10)
        for plan in result.plans:
            assert height(plan) >= opt
