"""Shared fixtures: paper example queries, small datasets, estimators."""

from __future__ import annotations

import random

import pytest

from repro.cost.cardinality import CardinalityEstimator, CatalogStatistics
from repro.cost.model import PlanCoster
from repro.rdf.graph import RDFGraph
from repro.sparql.ast import BGPQuery, TriplePattern
from repro.sparql.parser import parse_query

# --- paper queries -----------------------------------------------------------

#: Q1 of Fig. 1 — the paper's running example (11 triple patterns).
PAPER_Q1 = """
SELECT ?a ?b WHERE {
    ?a p1 ?b .
    ?a p2 ?c .
    ?d p3 ?a .
    ?d p4 ?e .
    ?l p5 ?d .
    ?f p6 ?d .
    ?f p7 ?g .
    ?g p8 ?h .
    ?g p9 ?i .
    ?i p10 ?j .
    ?j p11 "C1" }
"""

#: Fig. 10 — the 3-pattern chain on which MXC+/XC+ fail to find any plan.
FIG10 = "SELECT ?x ?y WHERE { ?t1 p1 ?x . ?x p2 ?y . ?y p3 ?t3 }"

#: Fig. 11 — the 4-pattern chain QX (minimum covers miss an HO plan).
FIG11_QX = "SELECT ?x WHERE { ?t1 p1 ?x . ?x p2 ?y . ?y p3 ?z . ?z p4 ?t4 }"


def fig14_query() -> BGPQuery:
    """Fig. 14 — the query on which exact-cover variants are HO-lossy.

    t2 shares w with t1, x with t3 and y with t4 (three distinct
    variables on one pattern => a fully variable triple pattern).
    """
    return BGPQuery(
        distinguished=("?w",),
        patterns=(
            TriplePattern("?w", "p1", "?c1"),
            TriplePattern("?w", "?x", "?y"),
            TriplePattern("?x", "p3", "?c3"),
            TriplePattern("?y", "p4", "?c4"),
        ),
        name="fig14",
    )


@pytest.fixture
def paper_q1() -> BGPQuery:
    return parse_query(PAPER_Q1, name="Q1")


@pytest.fixture
def fig10_query() -> BGPQuery:
    return parse_query(FIG10, name="fig10")


@pytest.fixture
def fig11_qx() -> BGPQuery:
    return parse_query(FIG11_QX, name="QX")


@pytest.fixture
def fig14() -> BGPQuery:
    return fig14_query()


# --- small data --------------------------------------------------------------


def make_university_graph(seed: int = 7, people: int = 60, depts: int = 8) -> RDFGraph:
    """A small organization graph exercising s-s, s-o and o-o joins."""
    rng = random.Random(seed)
    g = RDFGraph()
    dept_names = [f"<dept{i}>" for i in range(depts)]
    for i in range(people):
        person = f"<person{i}>"
        g.add(person, "ub:worksFor", rng.choice(dept_names))
        g.add(person, "ub:memberOf", rng.choice(dept_names))
        g.add(
            person,
            "rdf:type",
            "ub:FullProfessor" if rng.random() < 0.4 else "ub:Student",
        )
        if rng.random() < 0.5:
            g.add(person, "ub:emailAddress", f'"person{i}@example.org"')
    for d in dept_names:
        g.add(d, "ub:subOrganizationOf", "<univ0>")
        g.add(d, "rdf:type", "ub:Department")
    return g


@pytest.fixture(scope="session")
def university_graph() -> RDFGraph:
    return make_university_graph()


@pytest.fixture(scope="session")
def university_coster(university_graph: RDFGraph) -> PlanCoster:
    stats = CatalogStatistics.from_graph(university_graph)
    return PlanCoster(CardinalityEstimator(stats))


@pytest.fixture
def program_builds(monkeypatch: pytest.MonkeyPatch) -> list:
    """The job DAG of every level program built while the test runs,
    one entry per build (a spy on ``repro.physical.executor.level_program``)."""
    import repro.physical.executor as executor_module

    real = executor_module.level_program
    builds: list = []

    def spy(compiled: object, num_nodes: int) -> object:
        builds.append(compiled)
        return real(compiled, num_nodes)

    monkeypatch.setattr(executor_module, "level_program", spy)
    return builds


# --- random query generation for property tests ------------------------------


def random_connected_query(rng: random.Random, n: int) -> BGPQuery:
    """A random connected query of *n* patterns (small variable pool)."""
    if n == 1:
        return BGPQuery(("?v0",), (TriplePattern("?v0", "p1", "?v1"),))
    while True:
        pool = [f"?v{i}" for i in range(max(2, (n * 2) // 2))]
        patterns = []
        for i in range(n):
            s, o = rng.sample(pool, 2)
            patterns.append(TriplePattern(s, f"p{i}", o))
        head = (patterns[0].variables()[0],)
        q = BGPQuery(head, tuple(patterns))
        if q.is_connected() and q.join_variables():
            return q
