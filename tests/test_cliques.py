"""Unit tests for the candidate-clique pool (Definition 3.2, Lemmas 4.1-4.2).

The pool is built from a graph structure, read off per-node variable
masks the way the search reads it; the brute force it is checked
against reads the cliques off ``VariableGraph.edge_map()``.
"""

import random
from itertools import combinations, islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import (
    MSC,
    MSC_PLUS,
    SC_PLUS,
    CliquePool,
    structure_key,
)
from repro.core.variable_graph import VariableGraph
from repro.sparql.parser import parse_query
from repro.workloads.synthetic import chain_query, star_query
from tests.conftest import random_connected_query
from tests.oracles import decompositions, max_maximal_cliques, max_partial_cliques


def structure(graph: VariableGraph) -> tuple[int, frozenset[int]]:
    bits = {v: 1 << k for k, v in enumerate(sorted(graph.variables()))}
    return structure_key(
        [sum(bits[v] for v in graph.node_variables(i)) for i in range(len(graph))]
    )


def graph_of(text: str) -> VariableGraph:
    return VariableGraph.from_query(parse_query(text))


def mask(nodes) -> int:
    return sum(1 << i for i in nodes)


def candidates(graph: VariableGraph, maximal_only: bool) -> list[frozenset[int]]:
    """The pool's cliques in candidate order (by size, then members)."""
    pool = CliquePool.of(structure(graph), MSC_PLUS if maximal_only else MSC)
    return [frozenset(pool.ranked[r][0]) for r in pool.rank]


def maximal_cliques(graph: VariableGraph) -> list[frozenset[int]]:
    return candidates(graph, maximal_only=True)


def partial_cliques(graph: VariableGraph) -> list[frozenset[int]]:
    return candidates(graph, maximal_only=False)


class TestMaximalCliques:
    def test_paper_q1(self, paper_q1):
        _, maximal = structure(VariableGraph.from_query(paper_q1))
        assert mask({2, 3, 4, 5}) in maximal  # ?d
        assert mask({0, 1, 2}) in maximal  # ?a
        assert mask({9, 10}) in maximal  # ?j
        assert len(maximal) == 6  # Q1 has 6 join variables

    def test_one_clique_per_join_variable(self):
        g = graph_of("SELECT ?x WHERE { ?x p ?y . ?y q ?z . ?x r ?z }")
        assert len(structure(g)[1]) == 3

    def test_duplicate_node_sets_merged(self):
        # both ?x and ?y connect the same two patterns -> one clique set
        g = graph_of("SELECT ?x WHERE { ?x p ?y . ?y q ?x }")
        assert maximal_cliques(g) == [frozenset({0, 1})]

    def test_star_has_single_maximal_clique(self):
        g = VariableGraph.from_query(star_query(6))
        assert maximal_cliques(g) == [frozenset(range(6))]

    def test_chain_has_n_minus_1_cliques(self):
        g = VariableGraph.from_query(chain_query(7))
        cliques = maximal_cliques(g)
        assert len(cliques) == 6
        assert all(len(c) == 2 for c in cliques)

    def test_lemma_41_bound(self):
        for n in (2, 4, 7):
            for q in (chain_query(n), star_query(n)):
                g = VariableGraph.from_query(q)
                assert len(maximal_cliques(g)) <= max_maximal_cliques(n)


class TestPartialCliques:
    def test_star_powerset(self):
        # one maximal clique of n nodes -> 2^n - 1 partial cliques
        g = VariableGraph.from_query(star_query(4))
        assert len(partial_cliques(g)) == 2**4 - 1

    def test_chain_2n_minus_1(self):
        # chain: n-1 pairs + n singletons = 2n - 1 (§4.5 discussion)
        g = VariableGraph.from_query(chain_query(6))
        assert len(partial_cliques(g)) == 2 * 6 - 1

    def test_lemma_42_bound(self):
        for n in (2, 3, 5):
            for q in (chain_query(n), star_query(n)):
                g = VariableGraph.from_query(q)
                assert len(partial_cliques(g)) <= max_partial_cliques(n)

    def test_partial_cliques_include_singletons(self):
        g = VariableGraph.from_query(chain_query(3))
        singles = [c for c in partial_cliques(g) if len(c) == 1]
        assert len(singles) == 3

    def test_every_partial_clique_is_subset_of_a_maximal(self, paper_q1):
        g = VariableGraph.from_query(paper_q1)
        maximal = maximal_cliques(g)
        for c in partial_cliques(g):
            if len(c) >= 2:
                assert any(c <= m for m in maximal), c


class TestCandidateCliques:
    def test_maximal_only_excludes_singletons(self):
        g = VariableGraph.from_query(chain_query(4))
        pool = candidates(g, maximal_only=True)
        assert all(len(c) == 2 for c in pool)

    def test_partial_pool_is_superset(self, paper_q1):
        g = VariableGraph.from_query(paper_q1)
        assert set(candidates(g, True)) <= set(candidates(g, False))


def brute_force(graph: VariableGraph, maximal_only: bool) -> list[tuple[int, ...]]:
    """Def. 3.2 from the edge map: each variable's maximal clique, and
    for partial cliques every subset of two members or more plus every
    node alone; distinct, in lexicographic order."""
    maximal = {tuple(sorted(nodes)) for nodes in graph.edge_map().values()}
    if maximal_only:
        return sorted(maximal)
    out = {(i,) for i in range(len(graph))}
    for members in maximal:
        for size in range(2, len(members) + 1):
            out.update(combinations(members, size))
    return sorted(out)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
@settings(max_examples=30, deadline=None)
def test_pool_equals_the_edge_map_along_reductions(seed, n):
    """Along random MSC and SC+ reductions (SC+ puts one pattern in two
    nodes), the pool's cliques, ranks and candidate order are the
    brute force's."""
    rng = random.Random(seed)
    query = random_connected_query(rng, n)
    for option in (MSC, SC_PLUS):
        graph = VariableGraph.from_query(query)
        while len(graph) > 1:
            for maximal_only in (True, False):
                pool = CliquePool.of(structure(graph), MSC_PLUS if maximal_only else MSC)
                expected = brute_force(graph, maximal_only)
                assert [members for members, _ in pool.ranked] == expected
                assert [m for members, m in pool.ranked] == [mask(c) for c in expected]
                by_size = sorted(range(len(expected)), key=lambda r: len(expected[r]))
                assert pool.rank == by_size
                assert pool.masks == [mask(expected[r]) for r in by_size]
            some = list(islice(decompositions(graph, option), 40))
            graph = graph.reduce(rng.choice(some))
