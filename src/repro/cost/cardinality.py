"""Catalog statistics and cardinality estimation.

The §5.4 cost formulas need cardinalities |op| for every operator.  The
estimator keeps classical per-property statistics (triple counts and
per-position distinct counts, the same statistics RDF-3X-style engines
keep) and combines them with the textbook independence assumptions:

* a scan of property p reads count(p) tuples;
* constants reduce cardinality by the distinct count of their position;
* an n-way join on shared variables divides the product of the input
  cardinalities by (max distinct)^{occurrences-1} per join variable.

Estimates are *subset-determined*: the estimated cardinality of a join
result depends only on the set of triple patterns it covers, which makes
the binary-plan dynamic programming of ``core.binary`` exact for the
model (optimal substructure holds).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import is_variable
from repro.sparql.ast import TriplePattern


@dataclass
class PropertyStats:
    """Statistics for one property value."""

    count: int = 0
    distinct_subjects: int = 0
    distinct_objects: int = 0


@dataclass(frozen=True)
class TripleDelta:
    """The catalog-visible novelty of one incoming triple.

    Each flag records whether the triple introduces a value the graph
    has not seen in that role yet; the flags must be computed *before*
    the triple is inserted (see :func:`triple_delta`).  Applying the
    delta to a :class:`CatalogStatistics` (:meth:`CatalogStatistics
    .apply_delta`) reproduces exactly what a full
    :meth:`CatalogStatistics.from_graph` recompute would produce, at
    O(1) per triple instead of O(|G|) per mutation batch.
    """

    property: str
    new_subject: bool
    new_property: bool
    new_object: bool
    new_property_subject: bool
    new_property_object: bool


def triple_delta(graph: RDFGraph, s: str, p: str, o: str) -> TripleDelta | None:
    """The :class:`TripleDelta` of adding (s, p, o) to *graph*.

    Must be called **before** ``graph.add(s, p, o)``.  Returns ``None``
    when the triple is already present (its insertion changes nothing).
    """
    if (s, p, o) in graph:
        return None
    return TripleDelta(
        property=p,
        new_subject=not graph.has_subject(s),
        new_property=not graph.has_property(p),
        new_object=not graph.has_object(o),
        new_property_subject=not graph.has_subject_property(s, p),
        new_property_object=not graph.has_property_object(p, o),
    )


@dataclass
class CatalogStatistics:
    """Dataset-level statistics backing the estimator."""

    triple_count: int = 0
    distinct_subjects: int = 0
    distinct_properties: int = 0
    distinct_objects: int = 0
    per_property: dict[str, PropertyStats] = field(default_factory=dict)

    @classmethod
    def from_graph(cls, graph: RDFGraph) -> "CatalogStatistics":
        """Collect statistics in one pass over an RDF graph."""
        stats = cls(
            triple_count=len(graph),
            distinct_subjects=len(graph.subjects),
            distinct_properties=len(graph.properties),
            distinct_objects=len(graph.objects),
        )
        for p in graph.properties:
            subjects: set[str] = set()
            objects: set[str] = set()
            count = 0
            for s, _, o in graph.match("?s", p, "?o"):
                subjects.add(s)
                objects.add(o)
                count += 1
            stats.per_property[p] = PropertyStats(
                count=count,
                distinct_subjects=len(subjects),
                distinct_objects=len(objects),
            )
        return stats

    def copy(self) -> "CatalogStatistics":
        """An independent copy (per-property entries are not aliased)."""
        return CatalogStatistics(
            triple_count=self.triple_count,
            distinct_subjects=self.distinct_subjects,
            distinct_properties=self.distinct_properties,
            distinct_objects=self.distinct_objects,
            per_property={p: replace(ps) for p, ps in self.per_property.items()},
        )

    def apply_delta(self, delta: TripleDelta) -> None:
        """Fold one new triple's :class:`TripleDelta` into the catalog.

        The incremental path of the statistics: a mutation batch copies
        the catalog once and applies one delta per genuinely new triple,
        instead of recomputing every count from the graph.  Equivalent
        to :meth:`from_graph` on the post-mutation graph (asserted in
        tests/test_cluster.py).
        """
        self.triple_count += 1
        self.distinct_subjects += delta.new_subject
        self.distinct_properties += delta.new_property
        self.distinct_objects += delta.new_object
        prop = self.per_property.get(delta.property)
        if prop is None:
            prop = self.per_property[delta.property] = PropertyStats()
        prop.count += 1
        prop.distinct_subjects += delta.new_property_subject
        prop.distinct_objects += delta.new_property_object


class CardinalityEstimator:
    """Estimates scan/output cardinalities and per-variable distinct counts.

    An estimator reads one catalog that nobody mutates (a write swaps in
    a new estimator over a new catalog), so every estimate is computed
    once and memoized.
    """

    def __init__(self, stats: CatalogStatistics) -> None:
        self.stats = stats
        self._pattern_cache: dict[TriplePattern, float] = {}
        self._distinct_cache: dict[tuple[TriplePattern, str], float] = {}
        self._subset_cache: dict[frozenset[TriplePattern], float] = {}

    # -- per-pattern ------------------------------------------------------

    def scan_cardinality(self, tp: TriplePattern) -> float:
        """Tuples the Map Scan for *tp* reads.

        With the §5.1 layout, a bound property selects a single property
        file; an unbound property forces reading every file.
        """
        if is_variable(tp.p):
            return float(self.stats.triple_count)
        prop = self.stats.per_property.get(tp.p)
        return float(prop.count) if prop else 0.0

    def pattern_cardinality(self, tp: TriplePattern) -> float:
        """Estimated matches of *tp* after all constant filters."""
        card = self._pattern_cache.get(tp)
        if card is None:
            card = self._pattern_cache[tp] = self._pattern_cardinality(tp)
        return card

    def _pattern_cardinality(self, tp: TriplePattern) -> float:
        card = self.scan_cardinality(tp)
        if card == 0:
            return 0.0
        if not is_variable(tp.p):
            prop = self.stats.per_property[tp.p]
            if not is_variable(tp.s):
                card /= max(prop.distinct_subjects, 1)
            if not is_variable(tp.o):
                card /= max(prop.distinct_objects, 1)
        else:
            if not is_variable(tp.s):
                card /= max(self.stats.distinct_subjects, 1)
            if not is_variable(tp.o):
                card /= max(self.stats.distinct_objects, 1)
        # Repeated variable inside one pattern (?x p ?x): one more filter.
        tp_vars = [t for t in (tp.s, tp.p, tp.o) if is_variable(t)]
        if len(tp_vars) != len(set(tp_vars)):
            card /= max(self.stats.distinct_subjects, 1)
        return max(card, 1e-9)

    def pattern_distinct(self, tp: TriplePattern, var: str) -> float:
        """Estimated distinct values *var* takes among matches of *tp*."""
        distinct = self._distinct_cache.get((tp, var))
        if distinct is None:
            distinct = self._distinct_cache[tp, var] = self._pattern_distinct(tp, var)
        return distinct

    def _pattern_distinct(self, tp: TriplePattern, var: str) -> float:
        card = self.pattern_cardinality(tp)
        positions = tp.positions_of(var)
        if not positions:
            raise ValueError(f"{var} does not occur in {tp}")
        pos = positions[0]
        if not is_variable(tp.p):
            prop = self.stats.per_property.get(tp.p)
            if prop is None:
                return 0.0
            if pos == "s":
                return float(min(prop.distinct_subjects, card) or 1)
            if pos == "o":
                return float(min(prop.distinct_objects, card) or 1)
            return 1.0  # var is the (bound) property: impossible, defensive
        if pos == "p":
            return float(min(self.stats.distinct_properties, card) or 1)
        if pos == "s":
            return float(min(self.stats.distinct_subjects, card) or 1)
        return float(min(self.stats.distinct_objects, card) or 1)

    # -- per pattern-set ---------------------------------------------------

    def subset_cardinality(self, patterns: frozenset[TriplePattern]) -> float:
        """Estimated result size of the natural join of *patterns*.

        |join(S)| = prod |tp| / prod_v (max_tp V(tp, v))^{occ(v)-1}
        with occ(v) = number of patterns of S containing v.  The
        patterns are taken in sorted order: a frozenset's iteration
        order follows string-hash randomization, and float products in
        another order can differ in the last bit from process to process.
        """
        patterns = frozenset(patterns)
        cached = self._subset_cache.get(patterns)
        if cached is not None:
            return cached
        card = 1.0
        occurrences: dict[str, list[float]] = {}
        for tp in sorted(patterns):
            card *= self.pattern_cardinality(tp)
            for v in tp.variables():
                occurrences.setdefault(v, []).append(self.pattern_distinct(tp, v))
        for distincts in occurrences.values():
            if len(distincts) > 1:
                denominator = max(max(distincts), 1.0)
                card /= denominator ** (len(distincts) - 1)
        card = max(card, 0.0)
        self._subset_cache[patterns] = card
        return card
