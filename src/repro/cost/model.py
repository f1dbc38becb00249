"""The §5.4 cost model: total work of a MapReduce plan.

    c(p) = tw(p) = sum over operators of (c_io + c_cpu + c_net)

with the per-operator formulas of §5.4:

* Map Scan          c(MS)  = |file| * c_read
* Filter            c(F)   = |input| * c_check
* Project           c(pi)  = |input| * c_check
* Map Shuffler      c(MF)  = |input| * (c_read + c_write)
* Map Join          c(MJ)  = c_join(...) + |output| * c_write
* Reduce Join       c(RJ)  = sum|input| * c_shuffle + c_join(...) + |output| * c_write

The model is evaluated directly on *logical* plans: the logical->physical
translation rules of §5.2 are deterministic (a join whose inputs are all
matches becomes a map join; any other join becomes a reduce join fed by
map shufflers where needed), so the physical cost is computable from the
logical DAG plus cardinality estimates.  This is what both the
CliqueSquare plan selector and the binary-plan baselines use; the
execution *simulator* (``repro.mapreduce``) independently measures
response time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.logical import Join, LogicalOperator, LogicalPlan, Match, Project, Select
from repro.cost.cardinality import CardinalityEstimator
from repro.cost.params import DEFAULT_PARAMS, CostParams


def is_first_level_join(op: Join) -> bool:
    """§5.2 translation rule: a join all of whose inputs are match
    operators becomes a Map Join (co-located by the §5.1 partitioner)."""
    return all(isinstance(child, Match) for child in op.inputs)


@dataclass
class CostBreakdown:
    """Total work of one operator, by component."""

    io: float = 0.0
    cpu: float = 0.0
    net: float = 0.0

    @property
    def total(self) -> float:
        return self.io + self.cpu + self.net


#: What one search or one selection derives per operator *object*:
#: ``id(op) -> (op, cost, output cardinality)``.  The entry holds the
#: operator so its id cannot be reused while the memo lives.
CostMemo = dict[int, tuple[LogicalOperator, CostBreakdown, float]]


class PlanCoster:
    """Costs logical operators/plans under §5.4 with a given estimator."""

    def __init__(
        self,
        estimator: CardinalityEstimator,
        params: CostParams = DEFAULT_PARAMS,
    ) -> None:
        self.estimator = estimator
        self.params = params

    # -- cardinalities -----------------------------------------------------

    def output_cardinality(
        self, op: LogicalOperator, memo: CostMemo | None = None
    ) -> float:
        """Estimated output size of *op* (subset-determined for joins);
        computed once per operator object when a *memo* is passed."""
        if memo is not None:
            return self._entry(op, memo)[2]
        if isinstance(op, Match):
            return self.estimator.pattern_cardinality(op.pattern)
        if isinstance(op, (Join, Select)):
            return self.estimator.subset_cardinality(op.patterns())
        if isinstance(op, Project):
            return self.output_cardinality(op.child)
        raise TypeError(f"unknown operator {type(op)!r}")

    def _join_cpu(self, op: Join, output: float, memo: CostMemo | None) -> float:
        """c_join(op1 .. opn): per-tuple work over inputs and output."""
        inputs = sum(self.output_cardinality(c, memo) for c in op.inputs)
        return self.params.c_join * (inputs + output)

    # -- operator costs ----------------------------------------------------

    def operator_cost(
        self, op: LogicalOperator, memo: CostMemo | None = None
    ) -> CostBreakdown:
        """The §5.4 cost of one operator (not including its children);
        computed once per operator object when a *memo* is passed."""
        if memo is None:
            return self._operator_cost(op, self.output_cardinality(op), None)
        return self._entry(op, memo)[1]

    def _entry(
        self, op: LogicalOperator, memo: CostMemo
    ) -> tuple[LogicalOperator, CostBreakdown, float]:
        hit = memo.get(id(op))
        if hit is None:
            if isinstance(op, Project):
                output = self.output_cardinality(op.child, memo)
            else:
                output = self.output_cardinality(op)
            hit = memo[id(op)] = (op, self._operator_cost(op, output, memo), output)
        return hit

    def _operator_cost(
        self, op: LogicalOperator, output: float, memo: CostMemo | None
    ) -> CostBreakdown:
        """*output* is ``op``'s output cardinality; *memo* (if any) holds
        or receives its inputs'."""
        p = self.params
        bd = CostBreakdown()
        if isinstance(op, Match):
            scanned = self.estimator.scan_cardinality(op.pattern)
            bd.io += scanned * p.c_read  # c(MS)
            if _needs_filter(op.pattern):
                bd.cpu += scanned * p.c_check  # c(F)
            return bd
        if isinstance(op, Join):
            if is_first_level_join(op):
                bd.cpu += self._join_cpu(op, output, memo)  # c(MJ)
                bd.io += output * p.c_write
                return bd
            # Reduce join: shufflers for non-match inputs that are
            # themselves reduce-side results (their output sits in HDFS),
            # then the repartition join.
            for child in op.inputs:
                card = self.output_cardinality(child, memo)
                if isinstance(child, Join) and not is_first_level_join(child):
                    bd.io += card * (p.c_read + p.c_write)  # c(MF)
                bd.net += card * p.c_shuffle
            bd.cpu += self._join_cpu(op, output, memo)
            bd.io += output * p.c_write
            return bd
        if isinstance(op, Select):
            bd.cpu += self.output_cardinality(op.child, memo) * p.c_check
            return bd
        if isinstance(op, Project):
            bd.cpu += output * p.c_check
            return bd
        raise TypeError(f"unknown operator {type(op)!r}")

    # -- plan costs ---------------------------------------------------------

    def cost(
        self, plan: LogicalPlan | LogicalOperator, memo: CostMemo | None = None
    ) -> float:
        """c(p) = tw(p): the :meth:`operator_cost` totals summed over the
        distinct operators of the DAG."""
        root = plan.root if isinstance(plan, LogicalPlan) else plan
        io = cpu = net = 0.0
        for op in root.iter_operators():
            bd = self.operator_cost(op, memo)
            io += bd.io
            cpu += bd.cpu
            net += bd.net
        return io + cpu + net


def _needs_filter(tp) -> bool:
    """Mirror of the §5.2 translation rule: the property constant (and a
    bound rdf:type object) select the scan *file*; only subject/object
    constants beyond that — or repeated variables — need a Filter."""
    if not tp.s.startswith("?"):
        return True
    if not tp.o.startswith("?") and tp.p != "rdf:type":
        return True
    tp_vars = [t for t in (tp.s, tp.p, tp.o) if t.startswith("?")]
    return len(tp_vars) != len(set(tp_vars))


def select_best_plan(
    plans: list[LogicalPlan], coster: PlanCoster, memo: CostMemo | None = None
) -> tuple[LogicalPlan, float]:
    """Pick the cheapest plan under the cost model (§6: 'the selected
    plans (based on this general cost model)').

    *memo* may be the one the search that produced *plans* costed them
    with (``OptimizerResult.costs``, by the same *coster*).
    """
    if not plans:
        raise ValueError("no plans to select from")
    # One pass; plans of one enumeration share operator objects, so each
    # operator is costed once.  Ties keep the first plan, like ``min``.
    if memo is None:
        memo = {}
    best, best_cost = plans[0], coster.cost(plans[0], memo)
    for plan in plans[1:]:
        cost = coster.cost(plan, memo)
        if cost < best_cost:
            best, best_cost = plan, cost
    return best, best_cost
