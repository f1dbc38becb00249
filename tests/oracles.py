"""Brute-force oracles of the paper's checks: exhaustive or closed-form
counterparts of what ``repro`` computes a faster way (Fig. 20's binary
plan spaces, §4.5's lemmas and T(n) bound, the variable-graph walk the
mask search folds, §5.1's replica reconstruction, SHAPE's PWOC under
2f).  No production path runs them, so they live beside their tests."""

from __future__ import annotations

from functools import cache
from math import ceil
from typing import Iterator

from repro.core.binary import _adjacency, _connected, _joinable
from repro.core.complexity import decomposition_bound
from repro.core.decomposition import CliquePool, DecompositionOption, graph_structure
from repro.core.logical import Join, LogicalOperator, LogicalPlan, Match, make_join
from repro.core.variable_graph import Decomposition, VariableGraph
from repro.partitioning.triple_partitioner import PartitionedStore
from repro.rdf.graph import Triple
from repro.sparql.ast import BGPQuery, TriplePattern

# -- Fig. 20: the binary plan spaces -------------------------------------------


def _splits(mask: int, adj: list[int]) -> Iterator[tuple[int, int]]:
    """Unordered product-free splits of *mask* into two connected,
    joinable halves (the lowest bit always on the left)."""
    low = mask & -mask
    rest = mask ^ low
    sub = rest
    while True:
        left = low | sub
        right = mask ^ left
        if (
            right
            and _connected(left, adj)
            and _connected(right, adj)
            and _joinable(left, right, adj)
        ):
            yield left, right
        if sub == 0:
            return
        sub = (sub - 1) & rest


def iter_bushy_plans(
    query: BGPQuery, max_plans: int | None = None
) -> Iterator[LogicalPlan]:
    """Every binary bushy plan (all binary join trees, linear included),
    without cartesian products.  Exponential; for small queries."""
    adj = _adjacency(query)
    memo: dict[int, list[LogicalOperator]] = {}

    def plans(mask: int) -> list[LogicalOperator]:
        if mask not in memo:
            if mask.bit_count() == 1:
                memo[mask] = [Match(query.patterns[mask.bit_length() - 1])]
            else:
                memo[mask] = [
                    make_join([p1, p2])
                    for left, right in _splits(mask, adj)
                    for p1 in plans(left)
                    for p2 in plans(right)
                ]
        return memo[mask]

    for produced, body in enumerate(plans((1 << len(query.patterns)) - 1), 1):
        yield LogicalPlan.wrap(body, query)
        if max_plans is not None and produced >= max_plans:
            return


def iter_linear_plans(query: BGPQuery) -> Iterator[LogicalPlan]:
    """Every left-deep binary plan without cartesian products."""
    adj = _adjacency(query)
    n = len(query.patterns)

    def extend(op: LogicalOperator, used: int) -> Iterator[LogicalOperator]:
        if used.bit_count() == n:
            yield op
            return
        for i in range(n):
            bit = 1 << i
            if used & bit or not (adj[i] & used):
                continue
            yield from extend(make_join([op, Match(query.patterns[i])]), used | bit)

    for i in range(n):
        for body in extend(Match(query.patterns[i]), 1 << i):
            yield LogicalPlan.wrap(body, query)


def count_bushy_plans(query: BGPQuery) -> int:
    """Number of binary bushy plans (product-free join trees)."""
    adj = _adjacency(query)

    @cache
    def count(mask: int) -> int:
        if mask.bit_count() == 1:
            return 1
        return sum(count(left) * count(right) for left, right in _splits(mask, adj))

    return count((1 << len(query.patterns)) - 1)


def is_binary(plan: LogicalPlan) -> bool:
    """True iff every join of *plan* has exactly two inputs."""
    return all(
        len(op.inputs) == 2
        for op in plan.root.iter_operators()
        if isinstance(op, Join)
    )


# -- §4.5: clique-count lemmas and the reduction bound ------------------------


def max_maximal_cliques(n: int) -> int:
    """Lemma 4.1: a variable graph has at most 2n+1 maximal cliques
    (a query of n patterns has at most 2n+1 distinct variables)."""
    return 2 * n + 1


def max_partial_cliques(n: int) -> int:
    """Lemma 4.2: at most 2^n - 1 partial cliques (the power set bound)."""
    return 2**n - 1


#: Options whose decompositions are minimum covers: the graph shrinks by
#: at least a factor 2 per stage (Eq. 1); the rest shrink by >= 1 (Eq. 2).
MINIMUM_COVER_OPTIONS = frozenset({"MXC+", "MSC+", "MXC", "MSC"})


def reduction_bound(option_name: str, n: int) -> int:
    """T(n) bound on the total number of clique reductions.

    Minimum-cover options follow Eq. 1, T(n) <= D(n) * T(ceil((n-1)/2));
    the others follow Eq. 2, T(n) <= D(n) * T(n-1); T(1) = 1.
    """

    @cache
    def t(m: int) -> int:
        if m <= 1:
            return 1
        d = decomposition_bound(option_name, m)
        if option_name in MINIMUM_COVER_OPTIONS:
            return d * t(ceil((m - 1) / 2))
        return d * t(m - 1)

    return t(n)


# -- the variable-graph walk ----------------------------------------------------


def decompositions(
    graph: VariableGraph, option: DecompositionOption
) -> Iterator[Decomposition]:
    """:meth:`CliquePool.covers` of *graph*'s structure, each clique a
    frozenset of node indices: the format ``VariableGraph.reduce``
    takes."""
    pool = CliquePool.of(graph_structure(graph), option)
    cliques = {mask: frozenset(members) for members, mask in pool.ranked}
    for cover in pool.covers():
        yield tuple([cliques[mask] for _, mask in pool.cliques(cover)])


# -- §5.1: replica reconstruction --------------------------------------------


def replica_triples(store: PartitionedStore, placement: str) -> set[Triple]:
    """The dataset as reconstructed from one replica."""
    prefix = placement + "|"
    return {
        triple
        for node in store.files
        for name, triples in node.items()
        if name.startswith(prefix)
        for triple in triples
    }


# -- SHAPE's PWOC under 2f -------------------------------------------------------


def pwoc_anchor_2f(patterns: tuple[TriplePattern, ...]) -> str | None:
    """An anchor term making the pattern set PWOC under 2f, or None."""
    for anchor in sorted({tp.s for tp in patterns}):
        reachable = {anchor} | {tp.o for tp in patterns if tp.s == anchor}
        if all(tp.s in reachable for tp in patterns):
            return anchor
    return None
