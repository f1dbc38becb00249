"""SHAPE comparator — simulated (see DESIGN.md substitutions).

SHAPE [23] hash-partitions RDF by subject with *semantic hash
partitioning*: each partition is expanded along forward (subject ->
object) edges so that queries whose pattern graph fits within the
expansion radius are parallelizable without communication (PWOC) and run
entirely inside the per-node local stores (RDF-3X in the original).  We
model the 2-hop *forward* scheme (2f), which the paper found best for
LUBM.

Behaviour reproduced:

* **PWOC detection**: a query is PWOC under 2f iff some anchor variable
  reaches every triple pattern's subject within one forward hop (the
  pattern's triples then lie within two hops of the anchor).
* **PWOC execution**: zero MapReduce jobs; every node evaluates the full
  query on its expanded local store; answers are unioned.  Local
  evaluation is indexed (RDF-3X), charged at ``local_cost_factor`` per
  accessed tuple — cheaper per tuple than CSQ's HDFS scans.
* **non-PWOC execution**: the query is greedily decomposed into maximal
  PWOC fragments; fragments are evaluated locally, then joined by a
  chain of binary MapReduce jobs (one job per join), reproducing
  SHAPE's single heuristic plan (no cost model, binary joins).
"""

from __future__ import annotations

from collections import defaultdict

from repro.cost.params import CostParams
from repro.partitioning.triple_partitioner import place
from repro.rdf.graph import RDFGraph
from repro.relational.joins import hash_join
from repro.relational.relation import Relation
from repro.sparql.ast import BGPQuery, TriplePattern
from repro.sparql.evaluator import bindings
from repro.systems.base import SystemReport

#: Default unit costs: indexed local stores are cheap per tuple; MapReduce
#: joins pay the usual §5.4-style freight plus job initialization.
SHAPE_PARAMS = CostParams(job_overhead=400.0)

#: RDF-3X-style indexed access cost per retrieved tuple, relative to c_read.
LOCAL_COST_FACTOR = 0.35


def pwoc_anchor_2f(patterns: tuple[TriplePattern, ...]) -> str | None:
    """An anchor term making the pattern set PWOC under 2f, or None."""
    candidates = {tp.s for tp in patterns}
    for anchor in sorted(candidates):
        reachable = {anchor}
        for tp in patterns:
            if tp.s == anchor:
                reachable.add(tp.o)
        if all(tp.s in reachable for tp in patterns):
            return anchor
    return None


def is_pwoc_2f(query: BGPQuery) -> bool:
    """True iff the whole query is PWOC under 2-hop forward partitioning."""
    return pwoc_anchor_2f(query.patterns) is not None


def decompose_2f(query: BGPQuery) -> list[tuple[TriplePattern, ...]]:
    """Greedy decomposition into maximal PWOC fragments.

    Repeatedly picks the anchor covering the most remaining patterns
    (subject within one forward hop), which is SHAPE's partition-aware
    query decomposition in spirit.
    """
    remaining = list(query.patterns)
    fragments: list[tuple[TriplePattern, ...]] = []
    while remaining:
        best: list[TriplePattern] = []
        for anchor in sorted({tp.s for tp in remaining}):
            reachable = {anchor}
            for tp in remaining:
                if tp.s == anchor:
                    reachable.add(tp.o)
            fragment = [tp for tp in remaining if tp.s in reachable]
            if len(fragment) > len(best):
                best = fragment
        fragments.append(tuple(best))
        chosen = set(best)
        remaining = [tp for tp in remaining if tp not in chosen]
    return fragments


class ShapeSystem:
    """The SHAPE-2f comparator."""

    name = "SHAPE-2f"

    def __init__(
        self,
        graph: RDFGraph,
        num_nodes: int = 7,
        params: CostParams = SHAPE_PARAMS,
        local_cost_factor: float = LOCAL_COST_FACTOR,
    ) -> None:
        self.graph = graph
        self.num_nodes = num_nodes
        self.params = params
        self.local_cost_factor = local_cost_factor
        self.local_stores = self._partition_2f()

    # -- partitioning -----------------------------------------------------------

    def _partition_2f(self) -> list[RDFGraph]:
        """Subject-hash partitioning with 2-hop forward expansion."""
        by_subject: dict[str, list[tuple[str, str, str]]] = defaultdict(list)
        for triple in self.graph:
            by_subject[triple[0]].append(triple)
        stores = [RDFGraph(validate=False) for _ in range(self.num_nodes)]
        for subject, triples in by_subject.items():
            node = place(subject, self.num_nodes)
            frontier: set[str] = set()
            for s, p, o in triples:
                stores[node].add(s, p, o)
                frontier.add(o)
            # Second forward hop: replicate the triples of objects.
            for obj in frontier:
                for s, p, o in by_subject.get(obj, ()):
                    stores[node].add(s, p, o)
        return stores

    # -- fragment evaluation ------------------------------------------------------

    def _fragment_relation(
        self, fragment: tuple[TriplePattern, ...]
    ) -> tuple[Relation, float]:
        """Evaluate a PWOC fragment on every local store; union results.

        Returns the fragment relation and the (parallel) evaluation time:
        the max over nodes of indexed access work.
        """
        attrs: list[str] = []
        for tp in fragment:
            for v in tp.variables():
                if v not in attrs:
                    attrs.append(v)
        rows: set[tuple] = set()
        slowest = 0.0
        unit = self.params.c_read * self.local_cost_factor
        for store in self.local_stores:
            accessed = sum(store.count_match(tp.s, tp.p, tp.o) for tp in fragment)
            produced = 0
            for binding in bindings(fragment, store):
                rows.add(tuple(binding[a] for a in attrs))
                produced += 1
            slowest = max(slowest, (accessed + produced) * unit)
        return Relation(tuple(attrs), list(rows)), slowest

    # -- query execution ------------------------------------------------------------

    def run(self, query: BGPQuery) -> SystemReport:
        fragments = decompose_2f(query)
        pwoc = len(fragments) == 1
        relations: list[Relation] = []
        response = 0.0
        for fragment in fragments:
            relation, elapsed = self._fragment_relation(fragment)
            # Fragments evaluate in one map-only pass together.
            response = max(response, elapsed)
            relations.append(relation)

        current = relations[0]
        num_jobs = 0
        p = self.params
        for relation in relations[1:]:
            # One binary repartition-join MapReduce job per fragment join.
            shuffled = len(current) + len(relation)
            joined = hash_join(current, relation)
            response += (
                p.job_overhead
                + shuffled * (p.c_read + p.c_shuffle)
                + (len(current) + len(relation) + len(joined)) * p.c_join
                + len(joined) * p.c_write
            )
            num_jobs += 1
            current = joined

        result = current.project(tuple(query.distinguished))
        return SystemReport(
            system=self.name,
            query_name=query.name or str(query),
            answers=result.to_set(),
            response_time=response,
            num_jobs=num_jobs,
            job_signature="M" if pwoc else str(num_jobs),
            pwoc=pwoc,
            details={"fragments": fragments},
        )
