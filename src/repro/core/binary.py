"""Binary-plan baselines for Fig. 20: bushy and linear (left-deep) plans.

The paper compares the CliqueSquare-MSC plan against "the best binary
bushy plan and the best binary linear plan", found by building all of
them and keeping the cheapest under the §5.4 cost model.  We obtain the
same optimum with dynamic programming over connected pattern subsets
(the cost model is additive over operators and its cardinality estimates
are subset-determined, so optimal substructure holds).  The tests check
the DP against an exhaustive enumeration (``tests/oracles.py``).

No cartesian products: every subplan covers a connected subquery and
every join has at least one shared variable, as the paper assumes (§2).
"""

from __future__ import annotations

from typing import Callable

from repro.core.logical import LogicalOperator, LogicalPlan, Match, make_join
from repro.sparql.ast import BGPQuery

#: Costs a complete operator sub-DAG (e.g. ``PlanCoster.cost``).
Coster = Callable[[LogicalOperator], float]


def _adjacency(query: BGPQuery) -> list[int]:
    """adj[i] = bitmask of patterns sharing a variable with pattern i."""
    n = len(query.patterns)
    adj = [0] * n
    for i in range(n):
        vi = set(query.patterns[i].variables())
        for j in range(i + 1, n):
            if vi & set(query.patterns[j].variables()):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _connected(mask: int, adj: list[int]) -> bool:
    """True iff the pattern subset *mask* induces a connected subgraph."""
    if mask == 0:
        return False
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        reach = 0
        m = frontier
        while m:
            low = m & -m
            i = low.bit_length() - 1
            reach |= adj[i] & mask
            m ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen == mask


def _joinable(mask1: int, mask2: int, adj: list[int]) -> bool:
    """True iff some pattern of mask1 shares a variable with mask2."""
    m = mask1
    while m:
        low = m & -m
        if adj[low.bit_length() - 1] & mask2:
            return True
        m ^= low
    return False


def connected_subsets(query: BGPQuery) -> list[int]:
    """All bitmasks of connected pattern subsets, ordered by size."""
    adj = _adjacency(query)
    n = len(query.patterns)
    out = [mask for mask in range(1, 1 << n) if _connected(mask, adj)]
    out.sort(key=lambda m: m.bit_count())
    return out


# -- best plans (dynamic programming) ---------------------------------------


def best_bushy_plan(query: BGPQuery, coster: Coster) -> tuple[LogicalPlan, float]:
    """Cheapest binary bushy plan under an additive cost model."""
    adj = _adjacency(query)
    n = len(query.patterns)
    best: dict[int, tuple[float, LogicalOperator]] = {}
    for i in range(n):
        op = Match(query.patterns[i])
        best[1 << i] = (coster(op), op)
    for mask in connected_subsets(query):
        if mask.bit_count() == 1:
            continue
        candidate: tuple[float, LogicalOperator] | None = None
        low = mask & -mask
        rest = mask ^ low
        sub = rest
        while True:
            left = low | sub
            right = mask ^ left
            if right and left in best and right in best and _joinable(left, right, adj):
                op = make_join([best[left][1], best[right][1]])
                cost = coster(op)
                if candidate is None or cost < candidate[0]:
                    candidate = (cost, op)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        if candidate is not None:
            best[mask] = candidate
    full = (1 << n) - 1
    if full not in best:
        raise ValueError("query is not connected: no product-free bushy plan")
    cost, body = best[full]
    plan = LogicalPlan.wrap(body, query)
    return plan, cost


def best_linear_plan(query: BGPQuery, coster: Coster) -> tuple[LogicalPlan, float]:
    """Cheapest left-deep binary plan under an additive cost model."""
    adj = _adjacency(query)
    n = len(query.patterns)
    best: dict[int, tuple[float, LogicalOperator]] = {}
    for i in range(n):
        op = Match(query.patterns[i])
        best[1 << i] = (coster(op), op)
    for mask in connected_subsets(query):
        size = mask.bit_count()
        if size == 1:
            continue
        candidate: tuple[float, LogicalOperator] | None = None
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            left = mask ^ bit
            if left not in best:
                continue
            i = bit.bit_length() - 1
            if not (adj[i] & left):
                continue
            op = make_join([best[left][1], Match(query.patterns[i])])
            cost = coster(op)
            if candidate is None or cost < candidate[0]:
                candidate = (cost, op)
        if candidate is not None:
            best[mask] = candidate
    full = (1 << n) - 1
    if full not in best:
        raise ValueError("query is not connected: no product-free linear plan")
    cost, body = best[full]
    plan = LogicalPlan.wrap(body, query)
    return plan, cost
