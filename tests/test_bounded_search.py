"""The cost-bounded clique search against the exhaustive Algorithm 1.

The bound may only cut plans a retained plan dominates, so on every
query the plan selected from the bounded search — signature and cost —
is the one ``select_best_plan`` picks from the full space, the
(height, cost) Pareto front of both spaces is the same, and a
height-optimal plan survives (``check_bounded_search`` checks the first
two; the front's lowest height is the third).
"""

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ledger import generators
from benchmarks.ledger.workloads import ColdShapes
from repro import extract_template, parse_query
from repro.analysis.plan_check import (
    check_bounded_search,
    check_logical_plan,
    check_plan_space,
    corpus_coster,
)
import repro.core.algorithm as algorithm
from repro.core.algorithm import (
    FIRST_PLAN_GRACE_S,
    cliquesquare,
    cost_bounded_search,
)
from repro.core.decomposition import ALL_OPTIONS, MSC, SC_PLUS, VIABLE_OPTIONS
from repro.core.properties import height
from repro.cost.cardinality import CardinalityEstimator, CatalogStatistics
from repro.cost.model import PlanCoster, select_best_plan
from repro.rdf.graph import RDFGraph
from repro.sparql.ast import BGPQuery
from repro.workloads import lubm, lubm_queries
from repro.workloads.synthetic import SyntheticWorkload
from tests.conftest import random_connected_query

CORPUS_SEED = 8612
#: plan spaces at least this large are skipped (SC+ on the larger dense
#: shapes enumerates 10^4-10^5 plans; every other space is far below)
SPACE_CAP = 2_000


def graph_coster(graph: RDFGraph) -> PlanCoster:
    return PlanCoster(CardinalityEstimator(CatalogStatistics.from_graph(graph)))


def lubm_corpus():
    graph = lubm.generate(lubm.LUBMConfig(universities=4))
    return list(lubm_queries.all_queries()), graph_coster(graph)


def checker_corpus():
    """The plan checker's 120 synthetic queries (``sweep_corpus``)."""
    shapes = SyntheticWorkload(
        queries_per_shape=30, max_patterns=8, seed=CORPUS_SEED
    ).generate()
    queries = [q for batch in shapes.values() for q in batch]
    return queries, corpus_coster(queries, CORPUS_SEED)


def ledger_corpus():
    """The 64 ``cold_shapes`` queries, as the service optimizes them."""
    queries = []
    for _cls, text in ColdShapes(seed=12, seconds=16).queries():
        template = extract_template(parse_query(text))
        queries.append(
            template.bind_canonical(template.check_values(template.default_values()))
        )
    return queries, graph_coster(RDFGraph(generators.random_graph(12)))


@pytest.mark.parametrize("corpus", [lubm_corpus, checker_corpus, ledger_corpus])
def test_bounded_search_selects_the_exhaustive_plan(corpus):
    queries, coster = corpus()
    completed = retained = 0
    for query in queries:
        for option in VIABLE_OPTIONS:
            exhaustive = cliquesquare(query, option, max_plans=SPACE_CAP, timeout_s=None)
            if len(exhaustive.plans) == SPACE_CAP:
                assert option is SC_PLUS  # its space alone explodes (Fig. 16)
                continue
            bounded = check_bounded_search(query, exhaustive, coster)
            completed += len(exhaustive.plans)
            retained += len(bounded.plans)
            assert bounded.pruned > 0 or len(bounded.plans) == len(exhaustive.plans)
            if option is MSC:  # whose minimum is the optimal height (Thm 4.3)
                best = min(height(p) for p in exhaustive.plans)
                assert check_plan_space(query, bounded, optimal=best) == best
    assert retained < completed  # the bound does cut something


def test_cliquesquare_never_prunes(paper_q1):
    result = cliquesquare(paper_q1, MSC, timeout_s=60)
    assert result.pruned == 0
    assert result.states > len(result.plans) > 0


@pytest.mark.parametrize("budget", [{"max_plans": 1}, {"timeout_s": 1e-9}])
def test_exhausted_budget_still_returns_a_valid_plan(paper_q1, university_coster, budget):
    limits = {"max_plans": None, "timeout_s": None, **budget}
    result = cost_bounded_search(paper_q1, university_coster, MSC, **limits)
    assert result.truncated
    assert len(result.plans) == 1
    check_logical_plan(result.plans[0], paper_q1)
    # ... the first plan of the enumeration, like the unbounded search.
    first = cliquesquare(paper_q1, MSC, **limits)
    assert first.truncated
    assert [p.signature() for p in first.plans] == [result.plans[0].signature()]


def enumerations(monkeypatch, query, coster, option, truncate):
    """Run one bounded search, counting ``decompositions()`` calls per
    graph structure; *truncate* marks the budget cut short on no call,
    on the first call of each structure, or on every call."""
    real = algorithm.decompositions
    calls: Counter = Counter()

    def spy(graph, opt, budget=None, pool=None):
        key = (len(graph), frozenset(map(frozenset, graph.edge_map().values())))
        covers = list(real(graph, opt, budget, pool))
        if truncate == "always" or (truncate == "first" and not calls[key]):
            budget.truncated = True  # as if the deadline tripped at the end
        calls[key] += 1
        return covers

    monkeypatch.setattr(algorithm, "decompositions", spy)
    result = cost_bounded_search(query, coster, option, max_plans=None, timeout_s=60)
    monkeypatch.undo()
    return calls, result


def test_minimum_options_enumerate_each_structure_once_per_search(
    paper_q1, university_coster, monkeypatch
):
    def run(truncate):
        return enumerations(monkeypatch, paper_q1, university_coster, MSC, truncate)

    visits, uncached = run("always")  # a truncated list is never stored
    assert uncached.truncated and max(visits.values()) > 1
    once, result = run("never")
    assert once == Counter(dict.fromkeys(visits, 1)) and not result.truncated
    twice, _ = run("first")
    assert twice == Counter({key: min(n, 2) for key, n in visits.items()})
    again, _ = run("never")  # the memo lives inside one search
    assert again == once
    assert result.states == uncached.states
    assert [p.signature() for p in result.plans] == [
        p.signature() for p in uncached.plans
    ]


def test_other_options_enumerate_every_state(fig11_qx, university_coster, monkeypatch):
    visits, _ = enumerations(monkeypatch, fig11_qx, university_coster, SC_PLUS, "always")
    calls, _ = enumerations(monkeypatch, fig11_qx, university_coster, SC_PLUS, "never")
    assert calls == visits and max(calls.values()) > 1


@pytest.mark.parametrize("bounded", [False, True])
def test_timeout_is_wall_clock_before_the_first_plan(bounded):
    """A thin 13-pattern query needs seconds of minimum-cover enumeration
    for its first MSC plan (~2.4 s on a 2-CPU container), well past
    the grace; the deadline must stop it without one."""
    query = SyntheticWorkload(
        queries_per_shape=6, min_patterns=10, max_patterns=14, seed=3
    ).generate(["thin"])["thin"][3]
    assert len(query.patterns) == 13
    coster = corpus_coster([query], CORPUS_SEED) if bounded else None
    start = time.monotonic()
    if bounded:
        result = cost_bounded_search(query, coster, MSC, max_plans=None, timeout_s=0.05)
    else:
        result = cliquesquare(query, MSC, max_plans=None, timeout_s=0.05)
    assert time.monotonic() - start < FIRST_PLAN_GRACE_S + 0.5
    assert result.truncated and not result.plans


def test_repeated_pattern_disables_the_bound(university_coster):
    query = parse_query(
        "SELECT ?x WHERE { ?x ub:worksFor ?d . ?x ub:memberOf ?d . "
        "?d ub:subOrganizationOf ?u . ?x ub:worksFor ?d }"
    )
    assert len(set(query.patterns)) < len(query.patterns)
    exhaustive = cliquesquare(query, MSC)
    bounded = check_bounded_search(query, exhaustive, university_coster)
    assert bounded.pruned == 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=8),
)
def test_random_connected_bgps(seed, n):
    rng = random.Random(seed)
    query: BGPQuery = random_connected_query(rng, n)
    coster = corpus_coster([query], seed)
    # The explosive non-minimum options only on small queries.
    options = ALL_OPTIONS if n <= 5 else VIABLE_OPTIONS
    for option in options:
        exhaustive = cliquesquare(query, option, max_plans=5_000, timeout_s=30)
        if exhaustive.truncated or not exhaustive.plans:
            continue  # too large / MXC+ and XC+ can fail (Fig. 10)
        bounded = check_bounded_search(query, exhaustive, coster)
        _best, cost = select_best_plan(bounded.unique_plans(), coster)
        assert cost == min(coster.cost(p) for p in exhaustive.plans)
