"""The eight clique-decomposition options of §4.3.

A decomposition option is determined by three choices:

* clique kind — maximal only (``+`` suffix) or partial;
* cover kind — exact (``XC``) or simple (``SC``);
* retained covers — minimum-size only (``M`` prefix) or all.

This yields MXC+, XC+, MSC+, SC+, MXC, XC, MSC, SC.  Each option turns a
variable graph into a set of decompositions; the CliqueSquare algorithm
recurses over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.cliques import clique_members
from repro.core.covers import (
    EnumerationBudget,
    iter_exact_covers,
    iter_simple_covers,
    masks_of,
    minimum_covers,
)
from repro.core.variable_graph import Clique, Decomposition, VariableGraph


@dataclass(frozen=True)
class DecompositionOption:
    """One point in the option cube of §4.3 (see also Fig. 6)."""

    name: str
    maximal_only: bool  # True -> '+' options
    exact: bool  # True -> XC family, False -> SC family
    minimum: bool  # True -> 'M' prefix

    def __str__(self) -> str:
        return self.name

    def comparison_triple(self, other: "DecompositionOption") -> tuple[str, str, str]:
        """The (o1, o2, o3) comparison triple of Theorem 4.1 / Fig. 6.

        o1: clique kinds (maximal < partial); o2: cover kinds (exact <
        simple); o3: retained covers (minimum < all).
        """

        def cmp(self_restrictive: bool, other_restrictive: bool) -> str:
            if self_restrictive == other_restrictive:
                return "="
            return "<" if self_restrictive else ">"

        return (
            cmp(self.maximal_only, other.maximal_only),
            cmp(self.exact, other.exact),
            cmp(self.minimum, other.minimum),
        )

    def dominated_by(self, other: "DecompositionOption") -> bool:
        """True iff '<' dominates the comparison triple (Prop. 4.1):
        this option's plan space is included in *other*'s."""
        triple = self.comparison_triple(other)
        return "<" in triple and ">" not in triple


MXC_PLUS = DecompositionOption("MXC+", maximal_only=True, exact=True, minimum=True)
XC_PLUS = DecompositionOption("XC+", maximal_only=True, exact=True, minimum=False)
MSC_PLUS = DecompositionOption("MSC+", maximal_only=True, exact=False, minimum=True)
SC_PLUS = DecompositionOption("SC+", maximal_only=True, exact=False, minimum=False)
MXC = DecompositionOption("MXC", maximal_only=False, exact=True, minimum=True)
XC = DecompositionOption("XC", maximal_only=False, exact=True, minimum=False)
MSC = DecompositionOption("MSC", maximal_only=False, exact=False, minimum=True)
SC = DecompositionOption("SC", maximal_only=False, exact=False, minimum=False)

#: All eight options, in the paper's Fig. 16 row order.
ALL_OPTIONS: tuple[DecompositionOption, ...] = (
    MXC_PLUS,
    XC_PLUS,
    MSC_PLUS,
    SC_PLUS,
    MXC,
    XC,
    MSC,
    SC,
)

OPTIONS_BY_NAME: dict[str, DecompositionOption] = {o.name: o for o in ALL_OPTIONS}

#: The options the paper deems viable after §6.2 (Fig. 16 discussion).
VIABLE_OPTIONS: tuple[DecompositionOption, ...] = (MSC_PLUS, SC_PLUS, MXC, MSC)


def structure_key(node_variables: Sequence[int]) -> tuple[int, frozenset[int]]:
    """The node count and the maximal cliques as node masks: what fixes a
    graph's candidate cliques, hence its decompositions under any
    option.  Reductions reach one structure many times over.

    *node_variables* holds one bitmask of variables per node (any fixed
    numbering of the variables); a variable on two nodes or more
    contributes the mask of its nodes.
    """
    nodes: dict[int, int] = {}
    for i, variables in enumerate(node_variables):
        node = 1 << i
        while variables:
            low = variables & -variables
            nodes[low] = nodes.get(low, 0) | node
            variables ^= low
    return len(node_variables), frozenset(m for m in nodes.values() if m & (m - 1))


@dataclass(frozen=True)
class CliquePool:
    """The candidate cliques of one graph structure, ready for cover
    enumeration: their bitmasks, and their rank in the order of
    ``variable_graph.canonical_decomposition`` (by sorted members) —
    the candidates are distinct, so a cover sorts by its members'
    ranks."""

    masks: list[int]
    #: candidate index -> rank
    rank: list[int]
    #: rank -> clique
    ranked: list[Clique]

    @classmethod
    def of(cls, graph: VariableGraph, maximal_only: bool) -> "CliquePool":
        ranked = clique_members(graph, maximal_only)
        # candidate order (``candidate_cliques``): by size, then members
        rank = sorted(range(len(ranked)), key=lambda r: len(ranked[r]))
        return cls(
            masks=masks_of(len(graph), [ranked[r] for r in rank]),
            rank=rank,
            ranked=[frozenset(c) for c in ranked],
        )


def decompositions(
    graph: VariableGraph,
    option: DecompositionOption,
    budget: EnumerationBudget | None = None,
    pool: CliquePool | None = None,
) -> Iterator[Decomposition]:
    """Enumerate the clique decompositions of *graph* under *option*.

    Every yielded decomposition satisfies Definition 3.3 (full node
    coverage and |D| < |N|).  May be empty — notably for MXC+/XC+ on
    queries like Fig. 10 ("when MXC+ and XC+ fail").

    A caller that meets one structure many times passes its *pool*
    (``CliquePool.of(graph, option.maximal_only)``, memoized on
    :func:`structure_key`); the covers are enumerated afresh every call.
    """
    n = len(graph)
    if n <= 1:
        return
    if pool is None:
        pool = CliquePool.of(graph, option.maximal_only)
    masks = pool.masks
    if not masks:
        return
    max_size = n - 1  # Def. 3.3: strictly fewer cliques than nodes

    if option.minimum:
        covers = minimum_covers(n, masks, exact=option.exact, budget=budget)
    elif option.exact:
        covers = iter_exact_covers(n, masks, max_size, budget=budget)
    else:
        covers = iter_simple_covers(n, masks, max_size, budget=budget)

    rank, ranked = pool.rank, pool.ranked
    for cover in covers:
        yield tuple([ranked[r] for r in sorted([rank[j] for j in cover])])


def has_decomposition(graph: VariableGraph, option: DecompositionOption) -> bool:
    """True iff at least one decomposition exists under *option*."""
    return next(decompositions(graph, option), None) is not None
