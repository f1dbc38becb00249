"""Algorithm 1 — the generic CliqueSquare optimization algorithm.

Starting from the query's variable graph, repeatedly apply clique
decompositions (per the chosen option) and reductions until the graph has
one node; each completed reduction sequence yields one logical plan
(CREATEQUERYPLANS).  The raw plan list may contain duplicates — different
sequences can converge to the same plan (Fig. 19 measures this).

A reduction state is two tuples of ints, over the query's patterns and
its variables, both numbered once per search: per node, the mask of its
patterns and the mask of its variables (all of them: once simple covers
put a pattern in two nodes, a variable of that pattern alone labels an
edge).  Beside them the state carries each node's operator
(CREATEQUERYPLANS applied as the search descends), so a leaf only wraps
its single remaining operator.

A reduction ORs the members' masks; the structure key (node count plus
each variable's node mask, ``decomposition.structure_key``) is read off
the variable masks; the Def. 3.3 check of a decomposition is ANDs and
ORs over node masks.  What the unchanged cover code needs is
materialized only when a structure is met for the first time: a
:class:`VariableGraph` built from the pattern masks, then its
decompositions (minimum options, kept as masks) or its candidate-clique
pool (the others, whose covers stay lazy).  Within one search a join is
built, and costed, once per tuple of input operators; the search's cost
memo (``OptimizerResult.costs``) then serves the selection.

Two entry points share that one recursion:

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
from repro.core.logical import LogicalOperator, LogicalPlan, Match, make_join
from repro.core.variable_graph import Clique, Decomposition, VariableGraph
from repro.sparql.ast import BGPQuery, TriplePattern

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


#: A decomposition as the search applies it: per clique, its members
#: (ascending node indices) and their node mask; then whether some node
#: is both carried (a singleton clique) and joined.  Only then can a
#: later reduction rebuild a join that already exists: ``make_join``
#: merges such structural twins, dropping an operator the bound has
#: already charged (non-minimum simple covers do this).
Step = tuple[tuple[tuple[tuple[int, ...], int], ...], bool]

#: clique -> (members, node mask), per graph structure
CliqueMasks = dict[Clique, tuple[tuple[int, ...], int]]


def _step(
    decomposition: Decomposition, node_variables: tuple[int, ...], cliques: CliqueMasks
) -> Step:
    """*decomposition* of a graph with per-node variable masks
    *node_variables* as masks, checked against Def. 3.3: fewer cliques
    than nodes, a variable shared by every member of a clique, every
    node covered."""
    n = len(node_variables)
    if not 0 < len(decomposition) < n:
        raise ValueError(
            f"decomposition size {len(decomposition)} must be in 1..{n - 1}"
        )
    out: list[tuple[tuple[int, ...], int]] = []
    covered = carried = joined = 0
    for clique in decomposition:
        masks = cliques.get(clique)
        if masks is None:
            members = tuple(sorted(clique))
            mask, shared = 0, -1
            for i in members:
                mask |= 1 << i
                shared &= node_variables[i]
            if len(members) > 1 and not shared:
                raise ValueError(
                    f"nodes {list(members)} share no variable: not a clique"
                )
            masks = cliques[clique] = (members, mask)
        if len(masks[0]) > 1:
            joined |= masks[1]
        else:
            carried |= masks[1]
        covered |= masks[1]
        out.append(masks)
    if covered != (1 << n) - 1:
        raise ValueError("decomposition does not cover every node")
    return tuple(out), bool(carried & joined)


def _graph(
    patterns: tuple[TriplePattern, ...], node_patterns: tuple[int, ...]
) -> VariableGraph:
    """The variable graph whose nodes hold the patterns of *node_patterns*."""
    return VariableGraph(
        nodes=tuple(
            frozenset(tp for j, tp in enumerate(patterns) if mask >> j & 1)
            for mask in node_patterns
        )
    )


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
    memo = result.costs
    #: height -> cheapest completed plan of that height
    front: dict[int, float] = {}
    patterns = query.patterns
    bits = {v: 1 << k for k, v in enumerate(query.variables())}
    #: structure key by per-node variable masks
    keys: dict[tuple[int, ...], tuple[int, frozenset[int]]] = {}
    #: by graph structure, which fixes the candidate cliques and so the
    #: covers; reductions reach one structure many times.  Minimum
    #: options keep the decompositions themselves; the others (SC's
    #: spaces run to millions, so they stay lazy) keep a graph of the
    #: structure and its candidate-clique pool, and enumerate the covers
    #: afresh.
    shapes: dict[tuple[int, frozenset[int]], list[Step]] = {}
    pools: dict[
        tuple[int, frozenset[int]], tuple[VariableGraph, CliquePool, CliqueMasks]
    ] = {}
    #: the joins of this search by the ids of their inputs: inputs (kept
    #: alive, so the ids stay theirs), join, the join's cost
    joins: dict[
        tuple[int, ...], tuple[list[LogicalOperator], LogicalOperator, float]
    ] = {}

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

    def steps(
        node_patterns: tuple[int, ...],
        node_variables: tuple[int, ...],
        budget: EnumerationBudget | None,
    ) -> Iterable[Step]:
        key = keys.get(node_variables)
        if key is None:
            key = keys[node_variables] = structure_key(node_variables)
        if option.minimum:
            known = shapes.get(key)
            if known is None:
                graph = _graph(patterns, node_patterns)
                cliques: CliqueMasks = {}
                known = [
                    _step(d, node_variables, cliques)
                    for d in decompositions(graph, option, budget)
                ]
                if budget is None or not budget.truncated:
                    shapes[key] = known
            return known
        entry = pools.get(key)
        if entry is None:
            graph = _graph(patterns, node_patterns)
            entry = pools[key] = (graph, CliquePool.of(graph, option.maximal_only), {})
        graph, pool, cliques = entry
        return (
            _step(d, node_variables, cliques)
            for d in decompositions(graph, option, budget, pool)
        )

    def recurse(
        node_patterns: tuple[int, ...],
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
        for cliques, twins in steps(node_patterns, node_variables, budget):
            if out_of_budget():
                return
            child_patterns: list[int] = []
            child_variables: list[int] = []
            child_ops: list[LogicalOperator] = []
            child_lower = -inf if twins else lower
            for members, _ in cliques:
                if len(members) == 1:
                    (i,) = members
                    child_patterns.append(node_patterns[i])
                    child_variables.append(node_variables[i])
                    child_ops.append(ops[i])
                    continue
                merged_patterns = merged_variables = 0
                for i in members:
                    merged_patterns |= node_patterns[i]
                    merged_variables |= node_variables[i]
                child_patterns.append(merged_patterns)
                child_variables.append(merged_variables)
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
            recurse(
                tuple(child_patterns),
                tuple(child_variables),
                tuple(child_ops),
                child_lower,
            )
        if budget is not None and budget.truncated:
            result.truncated = True

    ops = tuple(map(Match, patterns))
    lower = 0.0
    if coster is not None:
        lower = sum(coster.operator_cost(op, memo).total for op in ops)
        if len(set(patterns)) < len(ops):
            lower = -inf  # repeated patterns are structural twins from the start
    recurse(
        tuple(1 << i for i in range(len(patterns))),
        tuple(sum(bits[v] for v in tp.variables()) for tp in patterns),
        ops,
        lower,
    )
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
