"""Plan properties and plan-space analysis — §4.4.

Height (flatness), levels, height optimality (HO), and the plan-space
metrics the paper reports: plan counts (Fig. 16), optimality ratio
(Fig. 17), uniqueness ratio (Fig. 19), plus set-level comparisons backing
the inclusion lattice (Fig. 7) and HO classification (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.algorithm import OptimizerResult, cliquesquare
from repro.core.decomposition import MSC, DecompositionOption
from repro.core.logical import Join, LogicalOperator, LogicalPlan
from repro.sparql.ast import BGPQuery


def operator_height(op: LogicalOperator) -> int:
    """Largest number of join operators on a path from *op* to a leaf."""
    return op.height


def height(plan: LogicalPlan) -> int:
    """Plan height h(p): successive joins on the longest root-to-leaf path.

    For a CliqueSquare plan this equals the number of clique reductions
    that produced it (§4.4).
    """
    return operator_height(plan.root)


def join_operators(plan: LogicalPlan) -> list[Join]:
    """All distinct join operators of the plan DAG."""
    return [op for op in plan.root.iter_operators() if isinstance(op, Join)]


def max_join_fanin(plan: LogicalPlan) -> int:
    """Largest number of inputs of any join (n-ary-ness of the plan)."""
    return max((len(j.inputs) for j in join_operators(plan)), default=0)


def is_binary(plan: LogicalPlan) -> bool:
    """True iff every join in the plan has exactly two inputs."""
    return all(len(j.inputs) == 2 for j in join_operators(plan))


def optimal_height(query: BGPQuery, timeout_s: float | None = 100.0) -> int:
    """The minimum height over P(q).

    CliqueSquare-MSC is HO-partial (Theorem 4.3): for every query its
    plan space contains at least one height-optimal plan, so the minimum
    over the (small) MSC space is the optimum.  Tests validate this
    against the full SC space on small queries.
    """
    result = cliquesquare(query, MSC, max_plans=None, timeout_s=timeout_s)
    if not result.plans:
        raise ValueError(f"MSC produced no plan for {query}")
    return min(height(p) for p in result.plans)


@dataclass
class PlanSpaceStats:
    """Per-(query, option) statistics matching the §6.2 figures."""

    query: BGPQuery
    option: DecompositionOption
    plan_count: int
    unique_count: int
    ho_count: int
    optimal_height: int
    min_height: int | None
    elapsed_s: float
    truncated: bool

    @property
    def optimality_ratio(self) -> float:
        """#HO plans / #plans; 0 when the option found no plan (Fig. 17)."""
        if self.plan_count == 0:
            return 0.0
        return self.ho_count / self.plan_count

    @property
    def uniqueness_ratio(self) -> float:
        """#unique plans / #plans; 1 when no plan was produced (Fig. 19)."""
        if self.plan_count == 0:
            return 1.0
        return self.unique_count / self.plan_count

    @property
    def found_optimal(self) -> bool:
        """True iff at least one height-optimal plan was produced."""
        return self.min_height is not None and self.min_height == self.optimal_height


def analyze_plan_space(
    query: BGPQuery,
    option: DecompositionOption,
    max_plans: int | None = 200_000,
    timeout_s: float | None = 100.0,
    reference_height: int | None = None,
) -> PlanSpaceStats:
    """Run CliqueSquare-<option> and compute the §6.2 statistics.

    ``reference_height`` lets callers share the HO reference across
    options instead of recomputing it per option.
    """
    result = cliquesquare(query, option, max_plans=max_plans, timeout_s=timeout_s)
    opt_h = (
        reference_height
        if reference_height is not None
        else optimal_height(query, timeout_s=timeout_s)
    )
    heights = [height(p) for p in result.plans]
    return PlanSpaceStats(
        query=query,
        option=option,
        plan_count=len(result.plans),
        unique_count=len(result.unique_plans()),
        ho_count=sum(1 for h in heights if h == opt_h),
        optimal_height=opt_h,
        min_height=min(heights) if heights else None,
        elapsed_s=result.elapsed_s,
        truncated=result.truncated,
    )


def plan_space_signatures(result: OptimizerResult) -> frozenset[tuple]:
    """The plan space as a set of canonical plan signatures (for the
    inclusion checks of Fig. 7)."""
    return frozenset(p.signature() for p in result.plans)
