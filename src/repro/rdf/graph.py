"""In-memory RDF graph (triple store) with permutation indexes.

The graph keeps triples as raw strings (the §5.1 store loaded from it
is what numbers terms) and maintains the classical permutation indexes
(SPO, POS, OSP plus the single-position indexes) so that the reference
evaluator and the local node engines can answer any triple-pattern
lookup without scanning.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from repro.rdf.terms import is_variable, validate_triple

Triple = tuple[str, str, str]


class RDFGraph:
    """A set of RDF triples with lookup indexes.

    The graph is an *RDF dataset* in the paper's sense (§2): a set of
    (s p o) triples.  Duplicates are ignored.
    """

    def __init__(self, triples: Iterable[Triple] = (), validate: bool = True) -> None:
        self._triples: set[Triple] = set()
        self._spo: dict[str, dict[str, set[str]]] = defaultdict(lambda: defaultdict(set))
        self._pos: dict[str, dict[str, set[str]]] = defaultdict(lambda: defaultdict(set))
        self._osp: dict[str, dict[str, set[str]]] = defaultdict(lambda: defaultdict(set))
        self._validate = validate
        for s, p, o in triples:
            self.add(s, p, o)

    # -- mutation ---------------------------------------------------------

    def add(self, s: str, p: str, o: str) -> bool:
        """Add a triple; return True if it was new."""
        if self._validate:
            validate_triple(s, p, o)
        triple = (s, p, o)
        if triple in self._triples:
            return False
        self._triples.add(triple)
        self._spo[s][p].add(o)
        self._pos[p][o].add(s)
        self._osp[o][s].add(p)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; return the number of new ones."""
        return sum(1 for s, p, o in triples if self.add(s, p, o))

    # -- inspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    @property
    def properties(self) -> set[str]:
        """The set of distinct property values in the graph."""
        return set(self._pos.keys())

    @property
    def subjects(self) -> set[str]:
        """The set of distinct subject values."""
        return set(self._spo.keys())

    @property
    def objects(self) -> set[str]:
        """The set of distinct object values."""
        return set(self._osp.keys())

    def count_property(self, p: str) -> int:
        """Number of triples with property *p*."""
        return sum(len(ss) for ss in self._pos.get(p, {}).values())

    # O(1) membership probes, used by the incremental catalog-statistics
    # maintenance to decide whether an incoming triple introduces a new
    # distinct value *before* the triple is inserted.

    def has_subject(self, s: str) -> bool:
        """Does any triple have subject *s*?"""
        return s in self._spo

    def has_property(self, p: str) -> bool:
        """Does any triple have property *p*?"""
        return p in self._pos

    def has_object(self, o: str) -> bool:
        """Does any triple have object *o*?"""
        return o in self._osp

    def has_subject_property(self, s: str, p: str) -> bool:
        """Does any triple match (s, p, ?o)?"""
        inner = self._spo.get(s)
        return inner is not None and p in inner

    def has_property_object(self, p: str, o: str) -> bool:
        """Does any triple match (?s, p, o)?"""
        inner = self._pos.get(p)
        return inner is not None and o in inner

    # -- pattern matching -------------------------------------------------

    def match(self, s: str = "?s", p: str = "?p", o: str = "?o") -> Iterator[Triple]:
        """Yield all triples matching the pattern.

        A position is a wildcard iff it is a SPARQL variable.  The most
        selective available index is used for each of the 8 bound/unbound
        combinations.
        """
        sb, pb, ob = not is_variable(s), not is_variable(p), not is_variable(o)
        if sb and pb and ob:
            if (s, p, o) in self._triples:
                yield (s, p, o)
        elif sb and pb:
            for obj in self._spo.get(s, {}).get(p, ()):
                yield (s, p, obj)
        elif pb and ob:
            for subj in self._pos.get(p, {}).get(o, ()):
                yield (subj, p, o)
        elif sb and ob:
            for prop in self._osp.get(o, {}).get(s, ()):
                yield (s, prop, o)
        elif sb:
            for prop, objs in self._spo.get(s, {}).items():
                for obj in objs:
                    yield (s, prop, obj)
        elif pb:
            for obj, subjs in self._pos.get(p, {}).items():
                for subj in subjs:
                    yield (subj, p, obj)
        elif ob:
            for subj, props in self._osp.get(o, {}).items():
                for prop in props:
                    yield (subj, prop, o)
        else:
            yield from self._triples

    def count_match(self, s: str = "?s", p: str = "?p", o: str = "?o") -> int:
        """Count triples matching the pattern (used by the cardinality estimator)."""
        return sum(1 for _ in self.match(s, p, o))
