"""SPARQL BGP abstract syntax: triple patterns and conjunctive queries.

The paper works with the BGP (Basic Graph Pattern) dialect of SPARQL,
i.e. Select-Project-Join conjunctive queries (§2):

    SELECT ?v1 ... ?vm WHERE { t1 . t2 . ... tn }

Triple patterns generalize triples by allowing variables in any position
(objects may also be literals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from repro.rdf.terms import (
    RDF_TYPE,
    RDF_TYPE_SHORTHAND,
    is_constant,
    is_literal,
    is_placeholder,
    is_variable,
)


@dataclass(frozen=True, order=True)
class TriplePattern:
    """A triple pattern (s p o) over (U ∪ V) x (U ∪ V) x (U ∪ L ∪ V).

    Subject and object positions additionally admit ``$name`` parameter
    placeholders (prepared-query templates); the property position does
    not — the property drives the §5.1 file layout and the cost model,
    so it is part of a query's *structure*, never of its parameters.
    """

    s: str
    p: str
    o: str

    def __post_init__(self) -> None:
        if self.p == RDF_TYPE_SHORTHAND:
            object.__setattr__(self, "p", RDF_TYPE)
        if is_literal(self.s):
            raise ValueError(f"literal in subject position: {self.s!r}")
        if is_literal(self.p):
            raise ValueError(f"literal in property position: {self.p!r}")
        if is_placeholder(self.p):
            raise ValueError(
                f"parameter placeholder in property position: {self.p!r} "
                "(properties are structural and cannot be parameterized)"
            )

    def variables(self) -> tuple[str, ...]:
        """Variables of this pattern, in s,p,o order, deduplicated."""
        return self._variables

    @cached_property
    def _variables(self) -> tuple[str, ...]:
        # Computed once per (immutable) pattern; not a dataclass field, so
        # equality, hashing and ordering ignore it.
        seen: list[str] = []
        for term in (self.s, self.p, self.o):
            if is_variable(term) and term not in seen:
                seen.append(term)
        return tuple(seen)

    def __getstate__(self) -> dict[str, str]:
        # Only the fields travel (rpc task specs pickle patterns); the
        # derived-variables cache is rebuilt on demand.
        return {"s": self.s, "p": self.p, "o": self.o}

    def constants(self) -> tuple[str, ...]:
        """Constant terms of this pattern, in s,p,o order."""
        return tuple(t for t in (self.s, self.p, self.o) if is_constant(t))

    def placeholders(self) -> tuple[str, ...]:
        """Parameter placeholders of this pattern, in s,o order, deduplicated."""
        seen: list[str] = []
        for term in (self.s, self.o):
            if is_placeholder(term) and term not in seen:
                seen.append(term)
        return tuple(seen)

    def positions_of(self, var: str) -> tuple[str, ...]:
        """Which of 's','p','o' hold *var*."""
        return tuple(
            pos for pos, term in zip("spo", (self.s, self.p, self.o)) if term == var
        )

    def __str__(self) -> str:
        return f"{self.s} {self.p} {self.o}"


@dataclass(frozen=True)
class BGPQuery:
    """A conjunctive (BGP) query: distinguished variables + triple patterns.

    The paper restricts attention to queries without cartesian products;
    :meth:`is_connected` checks that restriction (see §2: a query with a
    product is decomposed into x-free subqueries).
    """

    distinguished: tuple[str, ...]
    patterns: tuple[TriplePattern, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError("a BGP query needs at least one triple pattern")
        allvars = self.variables()
        for v in self.distinguished:
            if not is_variable(v):
                raise ValueError(f"distinguished term is not a variable: {v!r}")
            if v not in allvars:
                raise ValueError(f"distinguished variable {v!r} not in query body")

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[TriplePattern]:
        return iter(self.patterns)

    def variables(self) -> tuple[str, ...]:
        """All variables of the query, in first-occurrence order."""
        seen: list[str] = []
        for tp in self.patterns:
            for v in tp.variables():
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    def placeholders(self) -> tuple[str, ...]:
        """All parameter placeholders of the query, in first-occurrence order."""
        seen: list[str] = []
        for tp in self.patterns:
            for p in tp.placeholders():
                if p not in seen:
                    seen.append(p)
        return tuple(seen)

    def join_variables(self) -> tuple[str, ...]:
        """Variables occurring in at least two triple patterns.

        These drive the variable graph (Definition 3.1): an edge exists
        between two patterns iff they share a variable, and the join
        variables are exactly the edge labels.
        """
        counts: dict[str, int] = {}
        for tp in self.patterns:
            for v in tp.variables():
                counts[v] = counts.get(v, 0) + 1
        return tuple(v for v in self.variables() if counts[v] >= 2)

    def is_connected(self) -> bool:
        """True iff the query has no cartesian product (one join component)."""
        if len(self.patterns) == 1:
            return True
        # Union-find over patterns linked by shared variables.
        parent = list(range(len(self.patterns)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        by_var: dict[str, int] = {}
        for i, tp in enumerate(self.patterns):
            for v in tp.variables():
                if v in by_var:
                    parent[find(i)] = find(by_var[v])
                else:
                    by_var[v] = i
        return len({find(i) for i in range(len(self.patterns))}) == 1

    def __str__(self) -> str:
        head = " ".join(self.distinguished)
        body = " . ".join(str(tp) for tp in self.patterns)
        return f"SELECT {head} WHERE {{ {body} }}"
