"""The eight clique-decomposition options of §4.3.

A decomposition option is determined by three choices:

* clique kind — maximal only (``+`` suffix) or partial;
* cover kind — exact (``XC``) or simple (``SC``);
* retained covers — minimum-size only (``M`` prefix) or all.

This yields MXC+, XC+, MSC+, SC+, MXC, XC, MSC, SC.  Each option turns a
graph structure — its node count and its maximal cliques as node masks,
:func:`structure_key` — into a pool of candidate cliques, and the pool
into decompositions; the CliqueSquare algorithm recurses over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.covers import (
    EnumerationBudget,
    iter_exact_covers,
    iter_simple_covers,
    minimum_covers,
)
from repro.core.variable_graph import Decomposition, VariableGraph

#: A graph structure: its node count and its maximal cliques as node masks.
Structure = tuple[int, frozenset[int]]

#: A clique as a decomposition applies it: its ascending members (node
#: indices) and their node mask.
CliqueMask = tuple[tuple[int, ...], int]


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


def structure_key(node_variables: Sequence[int]) -> Structure:
    """The node count and the maximal cliques as node masks: what fixes a
    graph's candidate cliques, hence its decompositions under any
    option.  Reductions reach one structure many times over.

    *node_variables* holds one bitmask of variables per node (any fixed
    numbering of the variables); a variable on two nodes or more
    contributes the mask of its nodes, its maximal clique (Def. 3.2).
    """
    nodes: dict[int, int] = {}
    for i, variables in enumerate(node_variables):
        node = 1 << i
        while variables:
            low = variables & -variables
            nodes[low] = nodes.get(low, 0) | node
            variables ^= low
    return len(node_variables), frozenset(m for m in nodes.values() if m & (m - 1))


def graph_structure(graph: VariableGraph) -> Structure:
    """:func:`structure_key` of a variable graph, read off its edge map."""
    return len(graph), frozenset(
        sum(1 << i for i in nodes) for nodes in graph.edge_map().values()
    )


def _members(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class CliquePool:
    """The candidate cliques of one graph structure under one option.

    The maximal clique of a variable is the mask of the nodes that hold
    it (Def. 3.2; cliques of two variables may coincide, like J_{f,g}
    in Fig. 3, and are one candidate).  The ``+`` options of §4.3 draw
    from the maximal cliques alone, without singletons: they must cover
    every node with maximal cliques, which is why MXC+ / XC+ can fail
    (Fig. 10).  The others draw from the partial cliques: every subset
    of two nodes or more of a maximal clique, plus every node as a
    singleton (a node carried unchanged) — a star of n patterns has
    2^n - 1.

    A clique is its ascending members and its node mask.  ``ranked``
    holds them in lexicographic order of members, the order a
    decomposition lists its cliques in
    (``variable_graph.canonical_decomposition``); covers are searched
    over ``masks``, in candidate order: by size, then members.
    """

    size: int
    option: DecompositionOption
    #: rank -> clique
    ranked: list[CliqueMask]
    #: candidate index -> rank
    rank: list[int]
    #: candidate index -> node mask
    masks: list[int]

    @classmethod
    def of(cls, structure: Structure, option: DecompositionOption) -> "CliquePool":
        size, maximal = structure
        if option.maximal_only:
            cliques = {mask: _members(mask) for mask in maximal}
        else:
            cliques = {1 << i: (i,) for i in range(size)}
            for mask in maximal:
                subsets: list[CliqueMask] = [((), 0)]
                for i in _members(mask):
                    subsets += [(m + (i,), sub | 1 << i) for m, sub in subsets]
                cliques.update((sub, m) for m, sub in subsets if len(m) > 1)
        ranked = sorted((members, mask) for mask, members in cliques.items())
        rank = sorted(range(len(ranked)), key=lambda r: len(ranked[r][0]))
        return cls(size, option, ranked, rank, [ranked[r][1] for r in rank])

    def covers(
        self, budget: EnumerationBudget | None = None
    ) -> Iterable[tuple[int, ...]]:
        """The option's decompositions of the structure, each as the
        candidate indices of its cliques (:meth:`cliques` lists them).

        Every one satisfies Definition 3.3 (every node covered, strictly
        fewer cliques than nodes).  May be empty — notably for MXC+/XC+
        on queries like Fig. 10 ("when MXC+ and XC+ fail").
        """
        n, masks, option = self.size, self.masks, self.option
        if n <= 1 or not masks:
            return ()
        if option.minimum:
            return minimum_covers(n, masks, exact=option.exact, budget=budget)
        if option.exact:
            return iter_exact_covers(n, masks, n - 1, budget=budget)
        return iter_simple_covers(n, masks, n - 1, budget=budget)

    def cliques(self, cover: tuple[int, ...]) -> tuple[CliqueMask, ...]:
        """The cliques of *cover*, in rank order."""
        ranked, rank = self.ranked, self.rank
        return tuple([ranked[r] for r in sorted([rank[j] for j in cover])])
