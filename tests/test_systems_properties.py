"""Property and edge-case tests for the comparator systems.

The Fig. 21 comparators are simulations; what must hold *exactly* is
answer correctness on arbitrary queries and the structural behaviours
the comparison relies on (PWOC detection, fragment decomposition,
centralized-vs-distributed switching).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.graph import RDFGraph
from repro.sparql.ast import BGPQuery, TriplePattern
from repro.sparql.evaluator import evaluate
from repro.sparql.parser import parse_query
from repro.systems.h2rdf import H2RDFPlus
from repro.systems.shape import ShapeSystem, decompose_2f
from tests.oracles import pwoc_anchor_2f


def random_graph(seed: int, n_props: int = 4, size: int = 80) -> RDFGraph:
    rng = random.Random(seed)
    g = RDFGraph(validate=False)
    values = [f"<e{i}>" for i in range(6)]
    for _ in range(size):
        g.add(rng.choice(values), f"p{rng.randrange(n_props)}", rng.choice(values))
    return g


def random_query(seed: int, n: int, n_props: int = 4) -> BGPQuery:
    rng = random.Random(seed)
    while True:
        pool = [f"?v{i}" for i in range(max(2, n))]
        patterns = []
        for i in range(n):
            s, o = rng.sample(pool, 2)
            patterns.append(TriplePattern(s, f"p{rng.randrange(n_props)}", o))
        q = BGPQuery((patterns[0].variables()[0],), tuple(patterns))
        if q.is_connected():
            return q


class TestShapePartitioning:
    def test_local_stores_cover_dataset(self):
        g = random_graph(1)
        shape = ShapeSystem(g, num_nodes=5)
        union = set()
        for store in shape.local_stores:
            union |= set(store)
        assert union == set(g)

    def test_two_hop_expansion_present(self):
        g = RDFGraph([("<a>", "p", "<b>"), ("<b>", "q", "<c>")])
        shape = ShapeSystem(g, num_nodes=4)
        from repro.partitioning.triple_partitioner import place

        node = place("<a>", 4)
        # the anchor's triple and its 1-hop-forward neighbour's triple
        assert ("<a>", "p", "<b>") in shape.local_stores[node]
        assert ("<b>", "q", "<c>") in shape.local_stores[node]

    def test_anchor_detection(self):
        q = parse_query("SELECT ?x WHERE { ?x p1 ?y . ?x p2 ?z . ?y p3 ?w }")
        assert pwoc_anchor_2f(q.patterns) == "?x"

    def test_three_hop_chain_not_pwoc(self):
        q = parse_query("SELECT ?x WHERE { ?x p ?y . ?y p ?z . ?z p ?w }")
        assert pwoc_anchor_2f(q.patterns) is None

    def test_decompose_fragments_are_pwoc(self):
        q = parse_query(
            "SELECT ?x WHERE { ?x p ?y . ?y p ?z . ?z p ?w . ?w p ?u . ?u p ?t }"
        )
        for fragment in decompose_2f(q):
            assert pwoc_anchor_2f(fragment) is not None

    def test_decompose_single_fragment_iff_pwoc(self):
        pwoc = parse_query("SELECT ?x WHERE { ?x p ?y . ?y q ?z }")
        assert len(decompose_2f(pwoc)) == 1
        non_pwoc = parse_query("SELECT ?x WHERE { ?x p ?y . ?z q ?y }")
        assert len(decompose_2f(non_pwoc)) >= 2


class TestComparatorCorrectness:
    @given(st.integers(0, 3_000), st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_shape_answers_match_reference(self, seed, n):
        g = random_graph(seed)
        q = random_query(seed + 7, n)
        shape = ShapeSystem(g, num_nodes=4)
        assert shape.run(q).answers == evaluate(q, g)

    @given(st.integers(0, 3_000), st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_h2rdf_answers_match_reference(self, seed, n):
        g = random_graph(seed)
        q = random_query(seed + 11, n)
        h2 = H2RDFPlus(g, num_nodes=4)
        assert h2.run(q).answers == evaluate(q, g)


class TestH2RDFBehaviour:
    def test_centralized_threshold_switch(self):
        g = random_graph(3, size=120)
        q = random_query(5, 3)
        always_mr = H2RDFPlus(g, centralized_threshold=0)
        always_local = H2RDFPlus(g, centralized_threshold=10**9)
        mr_report = always_mr.run(q)
        local_report = always_local.run(q)
        assert mr_report.answers == local_report.answers
        assert mr_report.num_jobs >= 1
        assert local_report.num_jobs == 0

    def test_job_overhead_only_on_mr_jobs(self):
        from repro.cost.params import CostParams

        g = random_graph(4, size=120)
        q = random_query(9, 3)
        cheap = H2RDFPlus(g, params=CostParams(job_overhead=0.0), centralized_threshold=0)
        costly = H2RDFPlus(g, params=CostParams(job_overhead=999.0), centralized_threshold=0)
        jobs = cheap.run(q).num_jobs
        assert jobs >= 1
        delta = costly.run(q).response_time - cheap.run(q).response_time
        assert delta == pytest.approx(999.0 * jobs)

    def test_left_deep_steps_cover_all_patterns(self):
        g = random_graph(6)
        q = random_query(12, 4)
        report = H2RDFPlus(g).run(q)
        steps = report.details["steps"]
        covered = {tp for s in steps for tp in s.patterns}
        assert len(covered) == len(q.patterns) - 1  # all but the seed pattern

    def test_single_pattern_query(self):
        g = random_graph(8)
        q = BGPQuery(("?s",), (TriplePattern("?s", "p0", "?o"),))
        report = H2RDFPlus(g).run(q)
        assert report.answers == evaluate(q, g)
        assert report.num_jobs == 0


class TestShapeBehaviour:
    def test_pwoc_query_zero_jobs(self):
        g = random_graph(10)
        q = parse_query("SELECT ?x WHERE { ?x p0 ?y . ?x p1 ?z }")
        report = ShapeSystem(g, num_nodes=3).run(q)
        assert report.pwoc and report.num_jobs == 0
        assert report.job_signature == "M"

    def test_non_pwoc_query_one_job_per_fragment_join(self):
        g = random_graph(11)
        q = parse_query("SELECT ?x WHERE { ?x p0 ?y . ?z p1 ?y . ?z p2 ?w }")
        report = ShapeSystem(g, num_nodes=3).run(q)
        fragments = decompose_2f(q)
        assert report.num_jobs == len(fragments) - 1

    def test_local_cost_factor_scales_pwoc_time(self):
        g = random_graph(12)
        q = parse_query("SELECT ?x WHERE { ?x p0 ?y . ?x p1 ?z }")
        fast = ShapeSystem(g, num_nodes=3, local_cost_factor=0.1).run(q)
        slow = ShapeSystem(g, num_nodes=3, local_cost_factor=1.0).run(q)
        assert slow.response_time > fast.response_time
        assert slow.answers == fast.answers
