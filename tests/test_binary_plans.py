"""Tests for binary plan spaces and DP best plans (repro.core.binary),
against the exhaustive enumerations of tests/oracles.py."""

import random

import pytest

from repro.core.binary import best_bushy_plan, best_linear_plan, connected_subsets
from repro.core.logical import Join
from repro.core.properties import height
from repro.sparql.parser import parse_query
from repro.workloads.synthetic import chain_query, star_query
from tests.conftest import random_connected_query
from tests.oracles import (
    count_bushy_plans,
    is_binary,
    iter_bushy_plans,
    iter_linear_plans,
)


def trivial_coster(op) -> float:
    """A structure-only cost: count operators (ties broken arbitrarily)."""
    return float(len(list(op.iter_operators())))


class TestEnumeration:
    def test_chain3_bushy_count(self):
        # chain t1-t2-t3: trees = (t1 t2) t3, t1 (t2 t3) -> 2
        assert count_bushy_plans(chain_query(3)) == 2

    def test_star_count_is_catalan_times_orders(self):
        # star(3): any pairing works: 3 (which pair joins first)
        assert count_bushy_plans(star_query(3)) == 3

    def test_enumerated_count_matches_counter(self):
        for q in (chain_query(4), star_query(4)):
            assert len(set(iter_bushy_plans(q))) == count_bushy_plans(q)

    def test_all_bushy_plans_are_binary_and_complete(self):
        q = chain_query(4)
        for plan in iter_bushy_plans(q):
            assert is_binary(plan)
            assert plan.body.patterns() == frozenset(q.patterns)

    def test_linear_plans_are_left_deep(self):
        q = chain_query(4)
        for plan in iter_linear_plans(q):
            op = plan.body
            while isinstance(op, Join):
                # right child of a left-deep join is always a leaf
                assert not isinstance(op.inputs[-1], Join) or not isinstance(
                    op.inputs[0], Join
                )
                op = next(c for c in op.inputs if isinstance(c, Join)) if any(
                    isinstance(c, Join) for c in op.inputs
                ) else None
                if op is None:
                    break

    def test_linear_chain_count(self):
        # chain of 4: orders keeping prefixes connected
        plans = set(iter_linear_plans(chain_query(4)))
        assert len(plans) >= 4
        for p in plans:
            assert height(p) == 3

    def test_max_plans_cap(self):
        q = star_query(5)
        assert len(list(iter_bushy_plans(q, max_plans=3))) == 3

    def test_connected_subsets_chain(self):
        q = chain_query(3)
        # connected subsets of a 3-chain: 3 singles + 2 pairs + 1 triple
        assert len(connected_subsets(q)) == 6


class TestBestPlans:
    def test_dp_matches_exhaustive_bushy(self, university_coster):
        rng = random.Random(3)
        for n in (2, 3, 4, 5):
            q = random_connected_query(rng, n)
            _, dp_cost = best_bushy_plan(q, university_coster.cost)
            exhaustive = min(
                university_coster.cost(p.body) for p in iter_bushy_plans(q)
            )
            assert dp_cost == pytest.approx(exhaustive)

    def test_dp_matches_exhaustive_linear(self, university_coster):
        rng = random.Random(4)
        for n in (2, 3, 4, 5):
            q = random_connected_query(rng, n)
            _, dp_cost = best_linear_plan(q, university_coster.cost)
            exhaustive = min(
                university_coster.cost(p.body) for p in iter_linear_plans(q)
            )
            assert dp_cost == pytest.approx(exhaustive)

    def test_best_bushy_not_worse_than_best_linear(self, university_coster):
        """Linear plans are a subset of bushy plans."""
        rng = random.Random(5)
        for n in (3, 4, 5, 6):
            q = random_connected_query(rng, n)
            _, bushy_cost = best_bushy_plan(q, university_coster.cost)
            _, linear_cost = best_linear_plan(q, university_coster.cost)
            assert bushy_cost <= linear_cost + 1e-9

    def test_linear_plan_height_is_n_minus_1(self):
        q = chain_query(5)
        plan, _ = best_linear_plan(q, trivial_coster)
        assert height(plan) == 4

    def test_bushy_plan_can_be_flatter(self):
        q = chain_query(4)
        plan, _ = best_bushy_plan(q, lambda op: float(
            max((height_of(op)), 0)
        ))
        assert height(plan) == 2

    def test_single_pattern(self):
        q = parse_query("SELECT ?x WHERE { ?x p ?y }")
        plan, _ = best_bushy_plan(q, trivial_coster)
        assert height(plan) == 0

    def test_plans_are_binary(self, university_coster):
        q = star_query(6)
        bushy, _ = best_bushy_plan(q, university_coster.cost)
        linear, _ = best_linear_plan(q, university_coster.cost)
        assert is_binary(bushy) and is_binary(linear)


def height_of(op):
    from repro.core.properties import operator_height

    return operator_height(op)
