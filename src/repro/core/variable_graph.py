"""Variable (multi)graphs — Definitions 3.1, 3.3 and 3.4 of the paper.

A variable graph of a BGP query is a labeled multigraph whose nodes are
*sets of triple patterns* and whose edges connect two distinct nodes with
label ``v`` iff their pattern sets join on variable ``v``.  The initial
graph has one node per triple pattern; clique reductions (Def. 3.4)
produce smaller graphs whose nodes carry unions of patterns, together with
*provenance*: which clique of the previous graph each node came from —
exactly the information CREATEQUERYPLANS (§4.2) needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.sparql.ast import BGPQuery, TriplePattern

#: A clique is a set of node indices of the graph it was found in.
Clique = frozenset[int]

#: A decomposition is a canonically-ordered tuple of cliques (Def. 3.3).
Decomposition = tuple[Clique, ...]


def canonical_decomposition(cliques: Sequence[Clique]) -> Decomposition:
    """Order cliques deterministically (by sorted node indices)."""
    return tuple(sorted(set(cliques), key=lambda c: sorted(c)))


@dataclass(frozen=True)
class VariableGraph:
    """A variable multigraph plus provenance from its parent graph.

    ``nodes[i]`` is the set of triple patterns of node *i*.  For reduced
    graphs, ``provenance[i]`` is the clique (over the *parent* graph's
    node indices) that produced node *i*; it is ``None`` for the initial
    query graph.
    """

    nodes: tuple[frozenset[TriplePattern], ...]
    provenance: tuple[Clique, ...] | None = field(default=None, compare=False)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_query(cls, query: BGPQuery) -> "VariableGraph":
        """Initial variable graph: one node per triple pattern (§3.1)."""
        return cls(nodes=tuple(frozenset([tp]) for tp in query.patterns))

    # -- basic inspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def node_variables(self, i: int) -> frozenset[str]:
        """All variables occurring in node *i*'s triple patterns."""
        return self._node_variables[i]

    @cached_property
    def _node_variables(self) -> tuple[frozenset[str], ...]:
        # Derived once per (immutable) graph; not a dataclass field.
        return tuple(
            frozenset(v for tp in ns for v in tp.variables()) for ns in self.nodes
        )

    def variables(self) -> frozenset[str]:
        """All variables of the graph."""
        out: set[str] = set()
        for i in range(len(self.nodes)):
            out |= self.node_variables(i)
        return frozenset(out)

    def edge_map(self) -> Mapping[str, tuple[int, ...]]:
        """Map each edge label (variable) to the nodes it touches.

        A variable labels edges iff it occurs in at least two distinct
        nodes; the returned node tuple is exactly the *maximal clique*
        of that variable (Def. 3.2): all nodes incident to a v-edge.
        The mapping is computed once per graph and read-only.
        """
        return self._edge_map

    @cached_property
    def _edge_map(self) -> Mapping[str, tuple[int, ...]]:
        occurrences: dict[str, list[int]] = {}
        for i, variables in enumerate(self._node_variables):
            for v in variables:
                occurrences.setdefault(v, []).append(i)
        return MappingProxyType(
            {v: tuple(nodes) for v, nodes in occurrences.items() if len(nodes) >= 2}
        )

    # -- reduction (Definition 3.4) ---------------------------------------

    def reduce(self, decomposition: Sequence[Clique]) -> "VariableGraph":
        """Apply the joins of a clique decomposition (Def. 3.4).

        Every clique becomes a node whose pattern set is the union of the
        member nodes' patterns; edges are recomputed from shared
        variables.  Provenance records the clique per new node.
        """
        decomposition = canonical_decomposition(decomposition)
        self.validate_decomposition(decomposition)
        new_nodes: list[frozenset[TriplePattern]] = []
        for clique in decomposition:
            merged: set[TriplePattern] = set()
            for i in clique:
                merged |= self.nodes[i]
            new_nodes.append(frozenset(merged))
        return VariableGraph(nodes=tuple(new_nodes), provenance=decomposition)

    def validate_decomposition(self, decomposition: Sequence[Clique]) -> None:
        """Check Def. 3.3: node coverage, clique-ness, |D| < |N|."""
        if not decomposition:
            raise ValueError("empty decomposition")
        if len(decomposition) >= len(self.nodes):
            raise ValueError(
                f"decomposition size {len(decomposition)} must be < |N| = {len(self.nodes)}"
            )
        covered: set[int] = set()
        for clique in decomposition:
            if not clique:
                raise ValueError("empty clique in decomposition")
            if not clique <= set(range(len(self.nodes))):
                raise ValueError(f"clique {set(clique)} references unknown nodes")
            if len(clique) >= 2:
                shared = frozenset.intersection(
                    *(self.node_variables(i) for i in clique)
                )
                if not shared:
                    raise ValueError(
                        f"nodes {sorted(clique)} share no variable: not a clique"
                    )
            covered |= clique
        if covered != set(range(len(self.nodes))):
            missing = set(range(len(self.nodes))) - covered
            raise ValueError(f"decomposition does not cover nodes {sorted(missing)}")
