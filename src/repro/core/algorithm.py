"""Algorithm 1 — the generic CliqueSquare optimization algorithm.

Starting from the query's variable graph, repeatedly apply clique
decompositions (per the chosen option) and reductions until the graph has
one node; each completed reduction sequence yields one logical plan
(CREATEQUERYPLANS).  The raw plan list may contain duplicates — different
sequences can converge to the same plan (Fig. 19 measures this).

The search carries, per reduction state, the operator vector built so
far (``plan_builder.extend_operators``), so a leaf only wraps its single
remaining operator.  Two entry points share that one recursion:

* :func:`cliquesquare` enumerates the whole plan space of an option
  (Figs. 16-19, the plan checker's baseline);
* :func:`cost_bounded_search` additionally carries the §5.4 cost of the
  operators already fixed and cuts a branch once a completed plan
  dominates everything the branch can still produce.

Both are bounded by an optional plan cap and wall-clock timeout,
mirroring the paper's 100 s experimental timeout for the explosive SC/XC
variants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import inf
from typing import TYPE_CHECKING, Iterable

from repro.core.covers import EnumerationBudget
from repro.core.decomposition import (
    MSC,
    CliquePool,
    DecompositionOption,
    decompositions,
    structure_key,
)
from repro.core.logical import LogicalOperator, LogicalPlan
from repro.core.plan_builder import extend_operators, initial_operators
from repro.core.variable_graph import Clique, Decomposition, VariableGraph
from repro.sparql.ast import BGPQuery

if TYPE_CHECKING:  # pragma: no cover - typing only (cost imports core)
    from repro.cost.model import PlanCoster

#: A search that runs out of ``timeout_s`` should still return a plan:
#: until the first one completes, the deadline is at least this far from
#: the start (the first plan of a query of <= 10 patterns takes < 0.1 s).
FIRST_PLAN_GRACE_S = 0.5

#: Relative slack of the bound test: the per-state lower bound and the
#: leaf cost add the same terms in different orders.
BOUND_GUARD = 1e-9


@dataclass
class OptimizerResult:
    """Output of one CliqueSquare run."""

    query: BGPQuery
    option: DecompositionOption
    plans: list[LogicalPlan] = field(default_factory=list)
    truncated: bool = False
    elapsed_s: float = 0.0
    #: reduction states visited (variable graphs, the initial one included)
    states: int = 0
    #: branches the cost bound cut (always 0 for :func:`cliquesquare`)
    pruned: int = 0

    @property
    def plan_count(self) -> int:
        """Raw plan count, duplicates included (Fig. 16 counts these)."""
        return len(self.plans)

    def unique_plans(self) -> list[LogicalPlan]:
        """Distinct plans (used for the uniqueness ratio of Fig. 19)."""
        seen: set[tuple] = set()
        out: list[LogicalPlan] = []
        for plan in self.plans:
            sig = plan.signature()
            if sig not in seen:
                seen.add(sig)
                out.append(plan)
        return out

    @property
    def uniqueness_ratio(self) -> float:
        """|unique plans| / |plans|; 1.0 when no plan was produced."""
        if not self.plans:
            return 1.0
        return len(self.unique_plans()) / len(self.plans)


def cliquesquare(
    query: BGPQuery,
    option: DecompositionOption = MSC,
    max_plans: int | None = 200_000,
    timeout_s: float | None = 100.0,
) -> OptimizerResult:
    """Run CliqueSquare-<option> on *query* and return all produced plans.

    ``max_plans``/``timeout_s`` bound the search; when either trips, the
    result is flagged ``truncated`` (the paper's SC/XC runs hit the same
    wall).  Defaults mirror the paper's 100 s timeout.
    """
    return _search(query, option, max_plans, timeout_s, None)


def cost_bounded_search(
    query: BGPQuery,
    coster: PlanCoster,
    option: DecompositionOption = MSC,
    max_plans: int | None = 200_000,
    timeout_s: float | None = 100.0,
) -> OptimizerResult:
    """Algorithm 1 with *coster* as an admissible bound.

    Every operator of a reduction state is an input (transitively) of the
    root of every plan completed from it, so the summed cost of the
    state's operators is a lower bound on those plans' cost.  A branch is
    cut when that bound strictly exceeds a completed plan that is no
    taller than anything the branch can still reach.  The retained plans
    therefore contain the exact (height, cost) Pareto front of the
    option's plan space: its cheapest plan — the first one in enumeration
    order, the plan ``select_best_plan`` picks from the full space — and
    a height-optimal one (Theorem 4.3).
    """
    return _search(query, option, max_plans, timeout_s, coster)


def _carries_joined_node(decomposition: Decomposition, nodes: int) -> bool:
    """True iff some node is both carried (singleton clique) and joined.

    Only then can a later reduction rebuild a join that already exists:
    ``make_join`` merges such structural twins, dropping an operator the
    bound has already charged (non-minimum simple covers do this).
    """
    if sum(map(len, decomposition)) == nodes:
        return False  # a partition
    carried: frozenset[int] = frozenset().union(
        *(c for c in decomposition if len(c) == 1)
    )
    return any(len(c) > 1 and c & carried for c in decomposition)


def _search(
    query: BGPQuery,
    option: DecompositionOption,
    max_plans: int | None,
    timeout_s: float | None,
    coster: PlanCoster | None,
) -> OptimizerResult:
    if not query.is_connected():
        raise ValueError(
            "CliqueSquare requires x-free (connected) queries; decompose "
            "cartesian products first (§2)"
        )
    start = time.monotonic()
    deadline = first_deadline = None
    if timeout_s:
        deadline = start + timeout_s
        first_deadline = start + max(timeout_s, FIRST_PLAN_GRACE_S)
    result = OptimizerResult(query=query, option=option)
    #: operator costs of this search, by operator object
    memo: dict = {}
    #: height -> cheapest completed plan of that height
    front: dict[int, float] = {}
    #: by graph structure (node count + maximal cliques as node sets),
    #: which fixes the candidate cliques and so the covers; reductions
    #: reach one structure many times.  Minimum options keep the
    #: decompositions themselves; the others (SC's spaces run to
    #: millions, so they stay lazy) keep the candidate-clique pool and
    #: enumerate the covers afresh.
    shapes: dict[tuple[int, frozenset[frozenset[int]]], list[Decomposition]] = {}
    pools: dict[tuple[int, frozenset[frozenset[int]]], CliquePool] = {}

    def time_left() -> float | None:
        if deadline is None:
            return None
        return (deadline if result.plans else first_deadline) - time.monotonic()

    def out_of_budget() -> bool:
        if max_plans is not None and len(result.plans) >= max_plans:
            result.truncated = True
            return True
        left = time_left()
        if left is not None and left <= 0:
            result.truncated = True
            return True
        return False

    def decompose(
        graph: VariableGraph, budget: EnumerationBudget | None
    ) -> Iterable[Decomposition]:
        key = structure_key(graph)
        if option.minimum:
            known = shapes.get(key)
            if known is None:
                known = list(decompositions(graph, option, budget))
                if budget is None or not budget.truncated:
                    shapes[key] = known
            return known
        pool = pools.get(key)
        if pool is None:
            pool = pools[key] = CliquePool.of(graph, option.maximal_only)
        return decompositions(graph, option, budget, pool)

    def recurse(
        graph: VariableGraph, ops: tuple[LogicalOperator, ...], lower: float
    ) -> None:
        result.states += 1
        if len(graph) == 1:
            plan = LogicalPlan.wrap(ops[0], query)
            result.plans.append(plan)
            if coster is not None:
                cost = coster.cost(plan, memo)
                if cost < front.get(ops[0].height, inf):
                    front[ops[0].height] = cost
            return
        # Budget for decomposition enumeration at this level: share the
        # global deadline so deep SC recursions cannot stall forever.
        left = time_left()
        budget = None
        if left is not None:  # (a timeout of 0 would mean "no deadline")
            budget = EnumerationBudget(timeout_s=max(left, 1e-9))
        #: this state's joins by clique: sibling decompositions share them
        joins: dict[Clique, LogicalOperator] = {}
        for decomposition in decompose(graph, budget):
            if out_of_budget():
                return
            child_ops = extend_operators(ops, decomposition, joins)
            child_lower = lower
            if coster is not None:
                if _carries_joined_node(decomposition, len(graph)):
                    child_lower = -inf
                for clique, op in zip(decomposition, child_ops):
                    if len(clique) > 1:
                        child_lower += coster.operator_cost(op, memo).total
                reach = max(op.height for op in child_ops) + (len(child_ops) > 1)
                if any(
                    height <= reach and child_lower > cost * (1 + BOUND_GUARD)
                    for height, cost in front.items()
                ):
                    result.pruned += 1
                    continue
            recurse(graph._reduce_canonical(decomposition), child_ops, child_lower)
        if budget is not None and budget.truncated:
            result.truncated = True

    initial = VariableGraph.from_query(query)
    ops = initial_operators(initial)
    lower = 0.0
    if coster is not None:
        lower = sum(coster.operator_cost(op, memo).total for op in ops)
        if len(set(query.patterns)) < len(ops):
            lower = -inf  # repeated patterns are structural twins from the start
    recurse(initial, ops, lower)
    out_of_budget()  # final truncation check
    result.elapsed_s = time.monotonic() - start
    return result


def best_effort_plan(
    query: BGPQuery,
    option: DecompositionOption = MSC,
    timeout_s: float | None = 100.0,
) -> LogicalPlan | None:
    """Convenience: the first plan found, or None when the option fails
    (MXC+/XC+ can genuinely fail — Fig. 10)."""
    result = cliquesquare(query, option, max_plans=1, timeout_s=timeout_s)
    return result.plans[0] if result.plans else None
