"""Tests for the §5.4 cost model and cardinality estimator."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.algorithm import cliquesquare
from repro.core.decomposition import MSC
from repro.core.logical import Match, make_join
from repro.cost.cardinality import CardinalityEstimator, CatalogStatistics
from repro.cost.model import PlanCoster, is_first_level_join, select_best_plan
from repro.cost.params import CostParams
from repro.sparql.ast import TriplePattern
from repro.sparql.parser import parse_query


class TestCatalogStatistics:
    def test_counts(self, university_graph):
        stats = CatalogStatistics.from_graph(university_graph)
        assert stats.triple_count == len(university_graph)
        assert stats.distinct_properties == len(university_graph.properties)
        assert stats.per_property["ub:worksFor"].count == 60

    def test_per_property_distincts(self, university_graph):
        stats = CatalogStatistics.from_graph(university_graph)
        ps = stats.per_property["ub:worksFor"]
        assert ps.distinct_subjects == 60
        assert 1 <= ps.distinct_objects <= 8


class TestEstimator:
    @pytest.fixture
    def est(self, university_graph):
        return CardinalityEstimator(CatalogStatistics.from_graph(university_graph))

    def test_scan_cardinality_bound_property(self, est):
        assert est.scan_cardinality(TriplePattern("?x", "ub:worksFor", "?d")) == 60

    def test_scan_cardinality_unbound_property(self, est, university_graph):
        tp = TriplePattern("?x", "?p", "?d")
        assert est.scan_cardinality(tp) == len(university_graph)

    def test_unknown_property_zero(self, est):
        assert est.scan_cardinality(TriplePattern("?x", "zz:np", "?y")) == 0

    def test_constant_reduces_estimate(self, est):
        unbound = est.pattern_cardinality(TriplePattern("?x", "ub:worksFor", "?d"))
        bound = est.pattern_cardinality(TriplePattern("?x", "ub:worksFor", "<dept0>"))
        assert bound < unbound

    def test_join_estimate_below_product(self, est, university_graph):
        t1 = TriplePattern("?p", "ub:worksFor", "?d")
        t2 = TriplePattern("?s", "ub:memberOf", "?d")
        joint = est.subset_cardinality(frozenset((t1, t2)))
        product = est.pattern_cardinality(t1) * est.pattern_cardinality(t2)
        assert 0 < joint < product

    def test_subset_estimate_is_cached_and_deterministic(self, est):
        t1 = TriplePattern("?p", "ub:worksFor", "?d")
        t2 = TriplePattern("?s", "ub:memberOf", "?d")
        s = frozenset((t1, t2))
        assert est.subset_cardinality(s) == est.subset_cardinality(s)


#: costs every plan the service's search retains for the LUBM 14 over
#: LUBM(4) (the golden fixture's ``lubm`` corpus) and prints the reprs
COST_EVERY_PLAN = textwrap.dedent(
    """
    from repro.core.algorithm import cost_bounded_search
    from repro.core.decomposition import MSC
    from repro.cost.cardinality import CardinalityEstimator, CatalogStatistics
    from repro.cost.model import PlanCoster
    from repro.workloads import lubm, lubm_queries

    graph = lubm.generate(lubm.LUBMConfig(universities=4))
    coster = PlanCoster(CardinalityEstimator(CatalogStatistics.from_graph(graph)))
    for query in lubm_queries.all_queries():
        search = cost_bounded_search(query, coster, MSC, max_plans=None, timeout_s=None)
        print(query.name, [coster.cost(plan) for plan in search.unique_plans()])
    """
)


def test_costs_do_not_depend_on_the_hash_seed():
    """Two processes cost one plan to the same last bit: a pattern
    set's cardinality must not follow its frozenset iteration order,
    which string-hash randomization reorders between processes."""
    src = Path(__file__).resolve().parent.parent / "src"
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", COST_EVERY_PLAN],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "2")
    ]
    outputs = [run.communicate()[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outputs[0].count("\n") == 14
    assert outputs[0] == outputs[1]


class TestPlanCoster:
    @pytest.fixture
    def coster(self, university_coster):
        return university_coster

    def test_first_level_join_detection(self):
        t1 = TriplePattern("?a", "p1", "?b")
        t2 = TriplePattern("?a", "p2", "?c")
        t3 = TriplePattern("?c", "p3", "?d")
        mj = make_join([Match(t1), Match(t2)])
        assert is_first_level_join(mj)
        rj = make_join([mj, Match(t3)])
        assert not is_first_level_join(rj)

    def test_match_cost_is_scan_cost(self, coster):
        tp = TriplePattern("?x", "ub:worksFor", "?d")
        bd = coster.operator_cost(Match(tp))
        assert bd.io == pytest.approx(60 * coster.params.c_read)
        assert bd.cpu == 0  # no constants, no filter

    def test_match_with_constant_adds_filter(self, coster):
        tp = TriplePattern("?x", "ub:worksFor", "<dept0>")
        bd = coster.operator_cost(Match(tp))
        assert bd.cpu > 0

    def test_reduce_join_charges_network(self, coster):
        t1 = TriplePattern("?a", "ub:worksFor", "?b")
        t2 = TriplePattern("?a", "ub:memberOf", "?c")
        t3 = TriplePattern("?c", "ub:subOrganizationOf", "?d")
        rj = make_join([make_join([Match(t1), Match(t2)]), Match(t3)])
        bd = coster.operator_cost(rj)
        assert bd.net > 0

    def test_map_join_has_no_network(self, coster):
        t1 = TriplePattern("?a", "ub:worksFor", "?b")
        t2 = TriplePattern("?a", "ub:memberOf", "?c")
        bd = coster.operator_cost(make_join([Match(t1), Match(t2)]))
        assert bd.net == 0
        assert bd.cpu > 0 and bd.io > 0

    def test_plan_cost_additive_over_operators(self, coster):
        q = parse_query(
            "SELECT ?p WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
            "?d ub:subOrganizationOf <univ0> }"
        )
        plan = cliquesquare(q, MSC).plans[0]
        total = coster.cost(plan)
        summed = sum(
            coster.operator_cost(op).total for op in plan.root.iter_operators()
        )
        assert total == pytest.approx(summed)

    def test_shuffle_cost_hits_only_reduce_plans(self, university_graph):
        """c_shuffle is charged by reduce joins only: a map-only (single
        clique) plan's cost is invariant, a deep binary plan's grows."""
        from repro.core.binary import best_linear_plan

        stats = CatalogStatistics.from_graph(university_graph)
        est = CardinalityEstimator(stats)
        cheap = PlanCoster(est, CostParams(c_shuffle=0.1))
        expensive = PlanCoster(est, CostParams(c_shuffle=50.0))
        q = parse_query(
            "SELECT ?p WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
            "?d ub:subOrganizationOf <univ0> }"
        )
        msc_plan = cliquesquare(q, MSC).plans[0]  # one clique -> map join
        lin_plan, _ = best_linear_plan(q, cheap.cost)
        assert cheap.cost(msc_plan) == pytest.approx(expensive.cost(msc_plan))
        assert expensive.cost(lin_plan) > cheap.cost(lin_plan)

    def test_select_best_plan(self, coster):
        q = parse_query(
            "SELECT ?p WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
            "?d ub:subOrganizationOf <univ0> }"
        )
        plans = cliquesquare(q, MSC).unique_plans()
        best, cost = select_best_plan(plans, coster)
        assert best in plans
        assert cost == min(coster.cost(p) for p in plans)

    def test_select_best_plan_costs_each_operator_once(self, coster, monkeypatch):
        q = parse_query(
            "SELECT ?p WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
            "?d ub:subOrganizationOf ?u . ?p ub:emailAddress ?e }"
        )
        plans = cliquesquare(q, MSC).unique_plans()
        assert len(plans) > 1
        expected = min(plans, key=coster.cost)
        distinct = {id(op) for p in plans for op in p.root.iter_operators()}
        costed = []
        real = PlanCoster._operator_cost
        monkeypatch.setattr(
            PlanCoster,
            "_operator_cost",
            lambda self, op, *rest: costed.append(id(op)) or real(self, op, *rest),
        )
        best, cost = select_best_plan(plans, coster)
        assert best is expected  # ties keep the first plan, like min()
        assert sorted(costed) == sorted(distinct)
        monkeypatch.undo()
        assert cost == coster.cost(best)  # bit-identical to the unmemoised sum

    def test_select_best_plan_empty_raises(self, coster):
        with pytest.raises(ValueError):
            select_best_plan([], coster)
