"""Golden optimizer output: a faster search must find the same plans.

``fixtures/optimizer_golden.json`` records, for every query of the LUBM
14, the 64 ``cold_shapes`` shapes, the plan checker's 120 synthetic
BGPs and 32 larger random shapes (9-12 patterns, the tail the
``cold_shapes`` sizes stop short of), what the optimizer produced:

* the MSC cost-bounded search (the service's optimizer): reduction
  states visited, plans retained, branches pruned and a digest of the
  plan ``select_best_plan`` picks from them;
* the raw plan count of :func:`cliquesquare` under each minimum option
  (MSC, MXC, MSC+, MXC+).

Every search runs without a plan cap or deadline, so the numbers do not
depend on the host.  The test asserts exact equality; regenerate the
fixture only for a change that is meant to alter the plan space::

    PYTHONPATH=src python -m tests.test_optimizer_golden
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.analysis.plan_check import corpus_coster
from repro.core.algorithm import cliquesquare, cost_bounded_search
from repro.core.decomposition import MSC, MSC_PLUS, MXC, MXC_PLUS
from repro.cost.model import select_best_plan
from repro.workloads.synthetic import random_query
from tests.test_bounded_search import checker_corpus, ledger_corpus, lubm_corpus

FIXTURE = Path(__file__).parent / "fixtures" / "optimizer_golden.json"
LARGE_SEED = 41


def large_corpus():
    """Four thin and four dense ``random_query`` shapes of each size
    9..12, over seeded made-up statistics."""
    rng = random.Random(LARGE_SEED)
    queries = [
        random_query(n, dense=dense, rng=rng)
        for n in (9, 10, 11, 12)
        for dense in (False, True)
        for _ in range(4)
    ]
    return queries, corpus_coster(queries, LARGE_SEED)


CORPORA = {
    "lubm": lubm_corpus,
    "cold_shapes": ledger_corpus,
    "synthetic": checker_corpus,
    "large": large_corpus,
}
MINIMUM_OPTIONS = (MSC, MXC, MSC_PLUS, MXC_PLUS)


def plan_digest(signature: tuple) -> str:
    """A short stable digest of a plan signature (nested str tuples)."""
    text = json.dumps(signature, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def snapshot(corpus: str) -> list[dict]:
    queries, coster = CORPORA[corpus]()
    rows = []
    for query in queries:
        bounded = cost_bounded_search(query, coster, MSC, max_plans=None, timeout_s=None)
        best, _ = select_best_plan(bounded.unique_plans(), coster)
        rows.append(
            {
                "query": str(query),
                "states": bounded.states,
                "plan_count": bounded.plan_count,
                "pruned": bounded.pruned,
                "selected": plan_digest(best.signature()),
                "plan_counts": {
                    option.name: cliquesquare(
                        query, option, max_plans=None, timeout_s=None
                    ).plan_count
                    for option in MINIMUM_OPTIONS
                },
            }
        )
    return rows


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_optimizer_matches_the_golden_fixture(corpus, golden):
    want = golden[corpus]
    got = snapshot(corpus)
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert got_row == want_row, want_row["query"]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({c: snapshot(c) for c in sorted(CORPORA)}, indent=1) + "\n"
    )
    print(f"wrote {FIXTURE}")
