"""Algorithm 1 — the generic CliqueSquare optimization algorithm.

Starting from the query's variable graph, repeatedly apply clique
decompositions (per the chosen option) and reductions until the graph has
one node; each completed reduction sequence yields one logical plan
(CREATEQUERYPLANS).  The raw plan list may contain duplicates — different
sequences can converge to the same plan (Fig. 19 measures this).

A reduction state is a tuple of ints over the query's variables,
numbered once per search: per node, the mask of its variables (all of
them: once simple covers put a pattern in two nodes, a variable of that
pattern alone labels an edge).  Beside it the state carries each node's
operator (CREATEQUERYPLANS applied as the search descends: the operator
knows its patterns), so a leaf only wraps its single remaining
operator.

The variable graph itself is never built.  A variable's maximal clique
(Def. 3.2) is the mask of the nodes holding it: the structure key (node
count plus those masks, ``decomposition.structure_key``) is read off
the variable masks, and the candidate cliques and their covers come
from it (``decomposition.CliquePool``), each clique its ascending
members and its node mask.  A reduction ORs the members' masks; the
Def. 3.3 check of a decomposition is ANDs and ORs over node masks.
Minimum options keep each structure's decompositions, the others its
pool (their covers stay lazy).  Within one search a join is built, and
costed, once per tuple of input operators; the search's cost memo
(``OptimizerResult.costs``) then serves the selection.

Two entry points share that one recursion:

* :func:`cliquesquare` enumerates the whole plan space of an option
  (Figs. 16-19, the plan checker's baseline);
* :func:`cost_bounded_search` additionally carries the §5.4 cost of the
  operators already fixed and cuts a branch once a completed plan
  dominates everything the branch can still produce.

Both are bounded by an optional plan cap and wall-clock timeout,
mirroring the paper's 100 s experimental timeout for the explosive SC/XC
variants.  A search whose deadline passes before its first plan returns
none, ``truncated``; ``Pipeline.optimize`` then falls back to MSC+.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import inf
from typing import TYPE_CHECKING, Iterable

from repro.core.covers import EnumerationBudget
from repro.core.decomposition import (
    MSC,
    CliqueMask,
    CliquePool,
    DecompositionOption,
    Structure,
    structure_key,
)
from repro.core.logical import LogicalOperator, LogicalPlan, Match, make_join
from repro.sparql.ast import BGPQuery

if TYPE_CHECKING:  # pragma: no cover - typing only (cost imports core)
    from repro.cost.model import PlanCoster

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
    #: the search's operator costs (a ``cost.model.CostMemo``, empty for
    #: :func:`cliquesquare`); ``select_best_plan`` reuses them
    costs: dict = field(default_factory=dict, repr=False, compare=False)

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


#: A decomposition as the search applies it: its cliques (a pool's
#: entries), then whether some node is both carried (a singleton clique)
#: and joined.  Only then can a later reduction rebuild a join that
#: already exists: ``make_join`` merges such structural twins, dropping
#: an operator the bound has already charged (non-minimum simple covers
#: do this).
Step = tuple[tuple[CliqueMask, ...], bool]


def _step(cover: tuple[CliqueMask, ...], node_variables: tuple[int, ...]) -> Step:
    """*cover* of a graph with per-node variable masks *node_variables*,
    checked against Def. 3.3: fewer cliques than nodes, a variable
    shared by every member of a clique, every node covered."""
    n = len(node_variables)
    if not 0 < len(cover) < n:
        raise ValueError(f"decomposition size {len(cover)} must be in 1..{n - 1}")
    covered = carried = joined = 0
    for members, mask in cover:
        if len(members) > 1:
            shared = -1
            for i in members:
                shared &= node_variables[i]
            if not shared:
                raise ValueError(
                    f"nodes {list(members)} share no variable: not a clique"
                )
            joined |= mask
        else:
            carried |= mask
        covered |= mask
    if covered != (1 << n) - 1:
        raise ValueError("decomposition does not cover every node")
    return cover, bool(carried & joined)


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
    deadline = start + timeout_s if timeout_s else None
    result = OptimizerResult(query=query, option=option)
    memo = result.costs
    #: height -> cheapest completed plan of that height
    front: dict[int, float] = {}
    patterns = query.patterns
    bits = {v: 1 << k for k, v in enumerate(query.variables())}
    #: structure key by per-node variable masks
    keys: dict[tuple[int, ...], Structure] = {}
    #: by graph structure, which fixes the candidate cliques and so the
    #: covers; reductions reach one structure many times.  Minimum
    #: options keep the decompositions themselves; the others (SC's
    #: spaces run to millions, so they stay lazy) keep the structure's
    #: clique pool, and enumerate the covers afresh.
    shapes: dict[Structure, list[Step]] = {}
    pools: dict[Structure, CliquePool] = {}
    #: the joins of this search by the ids of their inputs: inputs (kept
    #: alive, so the ids stay theirs), join, the join's cost
    joins: dict[
        tuple[int, ...], tuple[list[LogicalOperator], LogicalOperator, float]
    ] = {}

    def time_left() -> float | None:
        if deadline is None:
            return None
        return deadline - time.monotonic()

    def out_of_budget() -> bool:
        if max_plans is not None and len(result.plans) >= max_plans:
            result.truncated = True
            return True
        left = time_left()
        if left is not None and left <= 0:
            result.truncated = True
            return True
        return False

    def steps(
        node_variables: tuple[int, ...], budget: EnumerationBudget | None
    ) -> Iterable[Step]:
        key = keys.get(node_variables)
        if key is None:
            key = keys[node_variables] = structure_key(node_variables)
        if option.minimum:
            known = shapes.get(key)
            if known is None:
                pool = CliquePool.of(key, option)
                known = [
                    _step(pool.cliques(cover), node_variables)
                    for cover in pool.covers(budget)
                ]
                if budget is None or not budget.truncated:
                    shapes[key] = known
            return known
        pool = pools.get(key)
        if pool is None:
            pool = pools[key] = CliquePool.of(key, option)
        return (
            _step(pool.cliques(cover), node_variables)
            for cover in pool.covers(budget)
        )

    def recurse(
        node_variables: tuple[int, ...],
        ops: tuple[LogicalOperator, ...],
        lower: float,
    ) -> None:
        result.states += 1
        if len(ops) == 1:
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
        for cliques, twins in steps(node_variables, budget):
            if out_of_budget():
                return
            child_variables: list[int] = []
            child_ops: list[LogicalOperator] = []
            child_lower = -inf if twins else lower
            for members, _ in cliques:
                if len(members) == 1:
                    (i,) = members
                    child_variables.append(node_variables[i])
                    child_ops.append(ops[i])
                    continue
                merged = 0
                for i in members:
                    merged |= node_variables[i]
                child_variables.append(merged)
                inputs = [ops[i] for i in members]
                key = tuple(map(id, inputs))
                join = joins.get(key)
                if join is None:
                    op = make_join(inputs)
                    cost = 0.0
                    if coster is not None:
                        cost = coster.operator_cost(op, memo).total
                    join = joins[key] = (inputs, op, cost)
                child_ops.append(join[1])
                child_lower += join[2]
            if coster is not None:
                reach = max(op.height for op in child_ops) + (len(child_ops) > 1)
                if any(
                    height <= reach and child_lower > cost * (1 + BOUND_GUARD)
                    for height, cost in front.items()
                ):
                    result.pruned += 1
                    continue
            recurse(tuple(child_variables), tuple(child_ops), child_lower)
        if budget is not None and budget.truncated:
            result.truncated = True

    ops = tuple(map(Match, patterns))
    lower = 0.0
    if coster is not None:
        lower = sum(coster.operator_cost(op, memo).total for op in ops)
        if len(set(patterns)) < len(ops):
            lower = -inf  # repeated patterns are structural twins from the start
    recurse(tuple(sum(bits[v] for v in tp.variables()) for tp in patterns), ops, lower)
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
