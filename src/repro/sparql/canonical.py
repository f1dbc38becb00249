"""Canonical forms for BGP queries (structure signatures).

The query service (``repro.service``) memoizes optimizer output per
*query shape*: two queries that differ only by variable renaming and/or
triple-pattern reordering share one cached plan.  This module computes a
canonical form — an exact invariant, not a lossy hash — so that

    signature(q1) == signature(q2)   iff   q1 ≅ q2

where ≅ is isomorphism of basic graph patterns: a bijection of variables
that maps the pattern multiset of one query onto the other's and the
distinguished-variable set onto the other's.  Constants are part of the
shape (two queries probing different IRIs cost differently and compile
to different scans, so they must not share a plan-cache entry).

The algorithm is the classical individualization–refinement scheme used
for graph canonization, specialized to the small hypergraphs that BGP
queries are (a variable is a vertex; each triple pattern connects the
variables it mentions):

1. colour every variable by local invariants (distinguished?, the
   multiset of (pattern skeleton, positions) it occurs in);
2. refine colours with neighbouring colours until the partition is
   stable (1-WL / colour refinement);
3. if some colour class still holds several variables, individualize
   each candidate in turn, re-refine, and keep the lexicographically
   least canonical form among the branches.

BGP queries have at most a few dozen variables and almost always enough
constants to make refinement discrete, so the search is tiny; a budget
caps pathological symmetric inputs, and callers fall back to treating
such a query as uncacheable.

On top of the exact canonical form, this module implements *template
extraction* (:func:`extract_template`): the liftable RDF constants of a
query (subject and object positions; properties are structural) are
replaced by typed parameter placeholders, and the placeholder-bearing
query is canonicalized.  The resulting :class:`QueryTemplate` has a
*constant-independent* structure signature — two queries that differ
only in liftable constants share one template — plus an ordered binding
vector mapping each parameter slot back to the constant (or explicit
``$name`` placeholder) it was lifted from.  The optimizer then runs once
per template, and each concrete query is served by late-binding its
constants into the template's compiled plan.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from repro.rdf.terms import (
    is_blank,
    is_iri,
    is_literal,
    is_placeholder,
    is_variable,
    kind_of,
)
from repro.sparql.ast import BGPQuery, TriplePattern


class CanonicalizationBudgetExceeded(RuntimeError):
    """The individualization search exceeded its node budget.

    Raised only for highly symmetric queries (large constant-free
    cliques/cycles); the service treats those as uncacheable rather
    than spending unbounded time canonizing them.
    """


@dataclass
class CanonicalQuery:
    """A query together with its canonical form.

    ``query`` is the renamed, pattern-sorted canonical variant (safe to
    optimize in place of the original — its answers are the original's
    modulo the variable ``mapping``), ``signature`` is a hashable value
    equal across isomorphic queries, and ``mapping`` sends each original
    variable to its canonical name.
    """

    query: BGPQuery
    signature: tuple
    mapping: dict[str, str]


def _skeleton(tp: TriplePattern) -> tuple:
    """The pattern with variables replaced by local occurrence indexes.

    Captures constants and intra-pattern variable equalities (``?x p ?x``
    vs ``?x p ?y``) while forgetting variable names.
    """
    local: dict[str, int] = {}
    out = []
    for term in (tp.s, tp.p, tp.o):
        if is_variable(term):
            out.append(("v", str(local.setdefault(term, len(local)))))
        else:
            out.append(("c", term))
    return tuple(out)


def _rank(keys: dict[str, tuple]) -> dict[str, int]:
    """Convert comparable colour keys into dense integer ranks."""
    order = {key: i for i, key in enumerate(sorted(set(keys.values())))}
    return {v: order[key] for v, key in keys.items()}


class _Canonizer:
    def __init__(self, query: BGPQuery, budget: int) -> None:
        self.query = query
        self.budget = budget
        self.distinguished = frozenset(query.distinguished)
        self.variables = query.variables()
        #: per pattern: (skeleton, {var: positions})
        self.pattern_info = [
            (_skeleton(tp), {v: tp.positions_of(v) for v in tp.variables()})
            for tp in query.patterns
        ]
        #: patterns (indexes) touching each variable
        self.touching: dict[str, list[int]] = {v: [] for v in self.variables}
        for i, (_, occ) in enumerate(self.pattern_info):
            for v in occ:
                self.touching[v].append(i)
        self.best: tuple | None = None
        self.best_order: tuple[str, ...] | None = None

    # -- colour refinement -------------------------------------------------

    def initial_ranks(self) -> dict[str, int]:
        keys = {
            v: (
                v in self.distinguished,
                tuple(
                    sorted(
                        (self.pattern_info[i][0], self.pattern_info[i][1][v])
                        for i in self.touching[v]
                    )
                ),
            )
            for v in self.variables
        }
        return _rank(keys)

    def refine(self, ranks: dict[str, int]) -> dict[str, int]:
        while True:
            keys = {}
            for v in self.variables:
                signature = []
                for i in self.touching[v]:
                    skel, occ = self.pattern_info[i]
                    others = tuple(
                        sorted((ranks[u], occ[u]) for u in occ if u != v)
                    )
                    signature.append((skel, occ[v], others))
                keys[v] = (ranks[v], tuple(sorted(signature)))
            new_ranks = _rank(keys)
            if new_ranks == ranks:
                return ranks
            ranks = new_ranks

    # -- individualization search -----------------------------------------

    def search(self, ranks: dict[str, int]) -> None:
        self.budget -= 1
        if self.budget < 0:
            raise CanonicalizationBudgetExceeded(
                f"canonicalization budget exhausted for {self.query}"
            )
        tied: list[str] | None = None
        by_rank: dict[int, list[str]] = {}
        for v, r in ranks.items():
            by_rank.setdefault(r, []).append(v)
        for r in sorted(by_rank):
            if len(by_rank[r]) > 1:
                tied = sorted(by_rank[r])
                break
        if tied is None:
            self._consider(ranks)
            return
        for v in tied:
            keys = {
                u: (ranks[u], 0 if u == v else 1) for u in self.variables
            }
            self.search(self.refine(_rank(keys)))

    def _consider(self, ranks: dict[str, int]) -> None:
        order = tuple(sorted(self.variables, key=lambda v: ranks[v]))
        form = self._form(order)
        if self.best is None or form < self.best:
            self.best = form
            self.best_order = order

    def _form(self, order: tuple[str, ...]) -> tuple:
        rename = {v: f"?c{i:03d}" for i, v in enumerate(order)}

        def term(t: str) -> str:
            return rename.get(t, t)

        patterns = tuple(
            sorted((term(tp.s), term(tp.p), term(tp.o)) for tp in self.query.patterns)
        )
        head = tuple(sorted(rename[v] for v in self.distinguished))
        return (patterns, head)


def canonicalize(query: BGPQuery, budget: int = 4096) -> CanonicalQuery:
    """Compute the canonical form of *query*.

    Raises :class:`CanonicalizationBudgetExceeded` when the symmetry
    search would exceed *budget* refinement nodes.
    """
    canon = _Canonizer(query, budget)
    if canon.variables:
        canon.search(canon.refine(canon.initial_ranks()))
    else:
        canon._consider({})
    assert canon.best is not None and canon.best_order is not None
    patterns, head = canon.best
    rename = {v: f"?c{i:03d}" for i, v in enumerate(canon.best_order)}
    canonical = BGPQuery(
        distinguished=head,
        patterns=tuple(TriplePattern(*t) for t in patterns),
        name=query.name,
    )
    return CanonicalQuery(query=canonical, signature=canon.best, mapping=rename)


def structure_signature(query: BGPQuery, budget: int = 4096) -> tuple:
    """The renaming/reordering-invariant signature of *query*."""
    return canonicalize(query, budget).signature


# -- parameterized plan templates ---------------------------------------------

#: Kind markers substituted for lifted terms before canonicalization.
#: They start with ``$?`` — a spelling the parser rejects for user
#: placeholders — so they can never collide with a real query term.
_MARKER = {
    "iri": "$?iri",
    "literal": "$?lit",
    "blank": "$?blank",
    "term": "$?any",
}
_MARKER_TERMS = frozenset(_MARKER.values())


@dataclass(frozen=True)
class TemplateParam:
    """One parameter slot of a :class:`QueryTemplate`.

    ``slot`` is the position in the binding vector (canonical order),
    ``placeholder`` the ``$s<slot>`` term standing for it in the
    template's canonical query, ``name`` the user-facing name (the
    ``$name`` from the query text, or an auto-generated ``p<i>`` in
    query-text occurrence order for lifted constants), ``default`` the
    original constant (``None`` for explicit placeholders), and
    ``source`` the (pattern index, position) of the original query the
    parameter was lifted from.
    """

    slot: int
    name: str
    placeholder: str
    kind: str
    default: str | None
    source: tuple[int, str]
    explicit: bool = False


@dataclass
class QueryTemplate:
    """A query with its constants lifted into an ordered parameter vector.

    ``query`` is the canonical templated query (variables renamed
    ``?c...``, parameters renamed ``$s<slot>``), ``signature`` the
    constant-independent structure signature — equal across queries that
    differ only in liftable constants (and across variable renaming /
    pattern reordering), ``params`` the binding vector in slot order,
    ``mapping`` the original-variable-to-canonical-variable renaming,
    and ``source`` the query the template was extracted from.
    """

    query: BGPQuery
    signature: tuple
    params: tuple[TemplateParam, ...]
    mapping: dict[str, str]
    source: BGPQuery

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def param_names(self) -> tuple[str, ...]:
        """User-facing parameter names, in query-text occurrence order."""
        # Occurrence order is (pattern index, subject before object) —
        # sorting the raw position letters would put 'o' before 's'.
        ordered = sorted(
            self.params,
            key=lambda p: (p.source[0], 0 if p.source[1] == "s" else 1),
        )
        out: list[str] = []
        for p in ordered:
            if p.name not in out:
                out.append(p.name)
        return tuple(out)

    def digest(self) -> str:
        """A short stable hex digest of the structure signature."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        # Once per template: every outcome of it reports the digest.
        return hashlib.sha1(repr(self.signature).encode()).hexdigest()[:12]

    def default_values(self) -> tuple[str | None, ...]:
        """The original constants, in slot order (None for explicit params)."""
        return tuple(p.default for p in self.params)

    def check_values(self, values: tuple[str | None, ...]) -> tuple[str, ...]:
        """Validate a binding vector; returns it fully typed, or raises."""
        if len(values) != len(self.params):
            raise ValueError(
                f"template takes {len(self.params)} parameters, "
                f"got {len(values)}"
            )
        for param, value in zip(self.params, values):
            label = f"parameter ${param.name}"
            if value is None:
                raise ValueError(f"{label} is unbound")
            if not isinstance(value, str) or not value:
                raise ValueError(f"{label}: not an RDF term: {value!r}")
            if is_variable(value) or is_placeholder(value):
                raise ValueError(f"{label}: must bind a constant, got {value!r}")
            if param.source[1] == "s" and is_literal(value):
                raise ValueError(
                    f"{label}: literal {value} cannot bind a subject position"
                )
            if param.kind in ("iri", "blank") and not (
                is_iri(value) or is_blank(value)
            ):
                raise ValueError(
                    f"{label}: expected a resource (IRI/blank node), "
                    f"got {value!r}"
                )
            if param.kind == "literal" and not is_literal(value):
                raise ValueError(
                    f"{label}: expected a literal, got {value!r}"
                )
        return tuple(values)  # type: ignore[return-value]

    def substitution(self, values: tuple[str, ...]) -> dict[str, str]:
        """The placeholder -> constant mapping for a binding vector."""
        return {p.placeholder: v for p, v in zip(self.params, values)}

    def bind_canonical(self, values: tuple[str, ...]) -> BGPQuery:
        """The canonical query with *values* substituted for the slots."""
        subst = self.substitution(values)
        patterns = tuple(
            TriplePattern(
                subst.get(tp.s, tp.s), tp.p, subst.get(tp.o, tp.o)
            )
            for tp in self.query.patterns
        )
        return BGPQuery(self.query.distinguished, patterns, name=self.query.name)

    def bind_source(self, values: tuple[str, ...]) -> BGPQuery:
        """The original-variable-space query with *values* bound.

        Binding the default values reproduces ``source`` exactly.
        """
        terms = [
            {"s": tp.s, "p": tp.p, "o": tp.o} for tp in self.source.patterns
        ]
        for param, value in zip(self.params, values):
            i, pos = param.source
            terms[i][pos] = value
        patterns = tuple(
            TriplePattern(t["s"], t["p"], t["o"]) for t in terms
        )
        return BGPQuery(
            self.source.distinguished, patterns, name=self.source.name
        )

    def instance_key(self, values: tuple[str, ...]) -> tuple:
        """The cache key of one fully-bound instance of this template.

        Template signature plus the binding vector: equal keys identify
        literally identical canonical bound queries, so plan- and
        result-cache entries stored under an instance key are safe to
        serve to any query producing the same key.

        The key is *sound but not complete* for isomorphism: when the
        masked query is symmetric and only the constants distinguish
        the variables (e.g. ``?x p <A> . ?y p <B>`` vs its ?x/?y swap),
        two isomorphic queries can canonicalize with swapped slots and
        produce different keys.  Such pairs miss each other's cache
        entries (they still share the template, so neither re-optimizes)
        but can never be served each other's rows — the safe direction.
        The pre-template constant-inclusive signature unified these;
        the template signature trades that rare sharing for
        constant-independence.
        """
        return (self.signature, tuple(values))


def extract_template(
    query: BGPQuery, budget: int = 4096, lift_constants: bool = True
) -> QueryTemplate:
    """Lift the liftable constants of *query* into a parameter vector.

    Liftable positions are subject and object constants, plus explicit
    ``$name`` placeholders already present in the query.  Properties are
    never lifted: the property selects the §5.1 partition files and
    drives the cost model, so it is part of query structure.  (An
    ``rdf:type`` object *is* liftable — the physical scan re-derives its
    file selection from the bound pattern at execution time.)

    With ``lift_constants=False`` only explicit placeholders become
    parameters and the signature degenerates to the classical
    constant-inclusive canonical signature — one code path serves both
    the template-sharing and the ablation/legacy behaviour.

    Raises :class:`CanonicalizationBudgetExceeded` like
    :func:`canonicalize` (masking constants can only add symmetry).
    """
    occurrences: list[tuple[int, str, str, str | None, str | None]] = []
    masked: list[TriplePattern] = []
    for i, tp in enumerate(query.patterns):
        terms = {"s": tp.s, "p": tp.p, "o": tp.o}
        for pos in ("s", "o"):
            term = terms[pos]
            if is_variable(term):
                continue
            if is_placeholder(term):
                kind = "term"
                occurrences.append((i, pos, kind, None, term[1:]))
                terms[pos] = _MARKER[kind]
            elif lift_constants:
                kind = kind_of(term).value
                occurrences.append((i, pos, kind, term, None))
                terms[pos] = _MARKER[kind]
        masked.append(TriplePattern(terms["s"], terms["p"], terms["o"]))
    masked_query = BGPQuery(query.distinguished, tuple(masked), name=query.name)
    canon = canonicalize(masked_query, budget)

    # Canonical slots: enumerate marker occurrences over the canonical
    # pattern order (s before o within a pattern) and substitute the
    # canonical placeholder names.
    slots_at: dict[tuple[int, str], int] = {}
    templated: list[TriplePattern] = []
    slot = 0
    for j, ctp in enumerate(canon.query.patterns):
        terms = {"s": ctp.s, "p": ctp.p, "o": ctp.o}
        for pos in ("s", "o"):
            if terms[pos] in _MARKER_TERMS:
                slots_at[(j, pos)] = slot
                terms[pos] = f"$s{slot}"
                slot += 1
        templated.append(TriplePattern(terms["s"], terms["p"], terms["o"]))

    # Correspondence original pattern -> canonical pattern.  Canonical
    # patterns are exactly the renamed masked patterns, sorted; identical
    # masked patterns are interchangeable, so a greedy first-fit
    # assignment is sound.
    remaining: dict[tuple[str, str, str], list[int]] = {}
    for j, ctp in enumerate(canon.query.patterns):
        remaining.setdefault((ctp.s, ctp.p, ctp.o), []).append(j)
    pattern_at: list[int] = []
    for tp in masked:
        renamed = tuple(canon.mapping.get(t, t) for t in (tp.s, tp.p, tp.o))
        pattern_at.append(remaining[renamed].pop(0))

    explicit_names = {name for (_, _, _, _, name) in occurrences if name}
    by_slot: dict[int, TemplateParam] = {}
    auto = 0
    for i, pos, kind, default, explicit_name in occurrences:
        k = slots_at[(pattern_at[i], pos)]
        if explicit_name is None:
            while f"p{auto}" in explicit_names:
                auto += 1
            name, auto = f"p{auto}", auto + 1
        else:
            name = explicit_name
        by_slot[k] = TemplateParam(
            slot=k,
            name=name,
            placeholder=f"$s{k}",
            kind=kind,
            default=default,
            source=(i, pos),
            explicit=explicit_name is not None,
        )
    params = tuple(by_slot[k] for k in range(len(by_slot)))

    return QueryTemplate(
        query=BGPQuery(
            distinguished=canon.query.distinguished,
            patterns=tuple(templated),
            name=query.name,
        ),
        signature=canon.signature,
        params=params,
        mapping=canon.mapping,
        source=query,
    )
