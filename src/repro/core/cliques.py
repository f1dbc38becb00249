"""Variable cliques — Definition 3.2.

Given a variable graph, the *maximal clique* of a variable v is the set of
all nodes incident to a v-labeled edge (equivalently, all nodes containing
v, provided at least two do).  A *partial clique* is any non-empty subset
of a maximal clique.

Cliques are handled as node-index sets.  Two cliques of different
variables may coincide as node sets (e.g. the maximal cliques of f and g
in Fig. 3 collapse into the single join J_{f,g}); such duplicates are
merged, since the induced join — on the intersection of the members'
attribute sets — is identical.
"""

from __future__ import annotations

from itertools import combinations

from repro.core.variable_graph import Clique, VariableGraph


def maximal_cliques_by_variable(graph: VariableGraph) -> dict[str, Clique]:
    """Map each join variable of *graph* to its maximal clique."""
    return {v: frozenset(nodes) for v, nodes in graph.edge_map().items()}


def maximal_cliques(graph: VariableGraph) -> list[Clique]:
    """Distinct maximal cliques (node-set deduplicated), canonical order."""
    return candidate_cliques(graph, maximal_only=True)


def partial_cliques(graph: VariableGraph) -> list[Clique]:
    """All distinct partial cliques: non-empty subsets of maximal cliques.

    Singleton subsets are valid partial cliques (a node carried unchanged
    through a decomposition step, i.e. no join for that node).
    """
    return candidate_cliques(graph, maximal_only=False)


def clique_members(graph: VariableGraph, maximal_only: bool) -> list[tuple[int, ...]]:
    """The distinct cliques of :func:`candidate_cliques`, each as its
    ascending members, in lexicographic order (the order
    ``variable_graph.canonical_decomposition`` sorts cliques by)."""
    by_variable = maximal_cliques_by_variable(graph).values()
    if maximal_only:
        return sorted({tuple(sorted(c)) for c in by_variable})
    # Every node is always available as a singleton "carry" clique, even a
    # node with no join variable left (cannot happen in connected graphs,
    # but keeps degenerate cases safe).  A star of n patterns has 2^n - 1
    # partial cliques.
    out: set[tuple[int, ...]] = {(i,) for i in range(len(graph))}
    for clique in by_variable:
        members = sorted(clique)
        for size in range(2, len(members) + 1):
            out.update(combinations(members, size))
    return sorted(out)


def candidate_cliques(graph: VariableGraph, maximal_only: bool) -> list[Clique]:
    """The clique pool a decomposition option draws from, by size and
    then members.

    ``maximal_only=True`` corresponds to the ``+`` options of §4.3; note
    that even then singletons are *not* added: maximal-clique options must
    cover every node using maximal cliques only, which is exactly why
    MXC+/XC+ can fail on queries like Fig. 10.
    """
    return [frozenset(c) for c in sorted(clique_members(graph, maximal_only), key=len)]


def count_partial_cliques(graph: VariableGraph) -> int:
    """Number of distinct partial cliques (cf. Eq. 3 and Lemma 4.2)."""
    return len(clique_members(graph, maximal_only=False))
