"""CREATEQUERYPLANS — §4.2: from a sequence of variable graphs to a plan.

The *states* queue contains the initial query variable graph followed by
the successive clique reductions, ending in a one-node graph.  Plan
construction walks the queue oldest-to-newest:

* graph 0: one Match operator per node (triple pattern);
* each later graph: a node whose clique is a single previous node reuses
  that node's operator; a node whose clique has several members gets a
  Join over the members' operators.

The final projection onto the distinguished variables is added on top.
The per-graph step is :func:`extend_operators`; :func:`create_query_plan`
folds it over a finished sequence.  Algorithm 1 (``core.algorithm``)
takes the same step as it descends, on its bitmask states.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.logical import LogicalOperator, LogicalPlan, Match, make_join
from repro.core.variable_graph import Clique, VariableGraph
from repro.sparql.ast import BGPQuery


def initial_operators(graph: VariableGraph) -> tuple[LogicalOperator, ...]:
    """One Match per node of an initial (one pattern per node) graph."""
    if any(len(ns) != 1 for ns in graph.nodes):
        raise ValueError("first state must have one triple pattern per node")
    return tuple(Match(next(iter(ns))) for ns in graph.nodes)


def extend_operators(
    ops: Sequence[LogicalOperator], provenance: Sequence[Clique]
) -> tuple[LogicalOperator, ...]:
    """The operators of a reduced graph, from its parent's *ops* and its
    *provenance* (one clique of parent nodes per node)."""
    out: list[LogicalOperator] = []
    for clique in provenance:
        if len(clique) == 1:
            (member,) = clique
            out.append(ops[member])
        else:
            out.append(make_join([ops[i] for i in sorted(clique)]))
    return tuple(out)


def create_query_plan(query: BGPQuery, states: Sequence[VariableGraph]) -> LogicalPlan:
    """Build the logical plan encoded by a reduction sequence.

    *states* must start at the initial variable graph of *query* (one
    pattern per node) and end at a one-node graph; every graph after the
    first must carry provenance (be the output of ``reduce``).
    """
    if not states:
        raise ValueError("states must contain at least the initial graph")
    if len(states[-1]) != 1:
        raise ValueError("last state must be a one-node graph")

    ops = initial_operators(states[0])
    for graph in states[1:]:
        if graph.provenance is None:
            raise ValueError("reduced graph lacks provenance")
        if len(graph.provenance) != len(graph.nodes):
            raise ValueError("provenance misaligned with graph nodes")
        ops = extend_operators(ops, graph.provenance)

    return LogicalPlan.wrap(ops[0], query)
