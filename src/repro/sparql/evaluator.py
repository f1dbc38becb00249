"""Reference BGP evaluator (ground truth for every execution engine).

Implements the evaluation semantics of §2 directly:

    eval(q) = { mu(?v1..?vm) | mu: var(q) -> val(G), {mu(t1)..mu(tn)} ⊆ G }

using index nested loops with a greedy most-bound-first pattern order.
Every distributed engine in this repo is tested against this evaluator.
"""

from __future__ import annotations

from typing import Iterable

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import is_variable
from repro.sparql.ast import BGPQuery, TriplePattern

Binding = dict[str, str]


def _substitute(tp: TriplePattern, binding: Binding) -> tuple[str, str, str]:
    """Apply a partial binding to a pattern, leaving free variables in place."""
    return (
        binding.get(tp.s, tp.s),
        binding.get(tp.p, tp.p),
        binding.get(tp.o, tp.o),
    )


def _bound_count(tp: TriplePattern, binding: Binding) -> int:
    """Number of bound positions of *tp* under *binding* (selectivity proxy)."""
    return sum(
        1
        for term in (tp.s, tp.p, tp.o)
        if not is_variable(term) or term in binding
    )


def _bound_variables(tp: TriplePattern, binding: Binding) -> int:
    """Number of *variables* of *tp* already bound.

    The primary ordering criterion: patterns connected to the current
    partial binding must come before unconnected ones, otherwise the
    evaluation wanders into cartesian-product branches (e.g. LUBM Q5,
    where every pattern ties on bound-position count).
    """
    return sum(1 for v in tp.variables() if v in binding)


def evaluate(query: BGPQuery, graph: RDFGraph) -> set[tuple[str, ...]]:
    """Evaluate *query* over *graph*; return the set of distinguished-variable
    tuples (SPARQL set semantics on SELECT DISTINCT, which is what the
    paper's result cardinalities |Q| count)."""
    results: set[tuple[str, ...]] = set()
    for binding in bindings(query.patterns, graph):
        results.add(tuple(binding[v] for v in query.distinguished))
    return results


def count(query: BGPQuery, graph: RDFGraph) -> int:
    """Cardinality of the distinct query answer."""
    return len(evaluate(query, graph))


def unify(tp: TriplePattern, triple: tuple[str, str, str]) -> Binding | None:
    """The binding under which *tp* matches *triple*, or None: constants
    must equal, and a variable repeated in *tp* must meet one value."""
    binding: Binding = {}
    for term, value in zip((tp.s, tp.p, tp.o), triple):
        if is_variable(term):
            if binding.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return binding


def bindings(
    patterns: Iterable[TriplePattern],
    graph: RDFGraph,
    seed: Binding | None = None,
) -> Iterable[Binding]:
    """Yield all total bindings satisfying all *patterns* over *graph*
    that extend *seed* (a partial binding; default: the empty one)."""
    remaining = list(patterns)

    def extend(binding: Binding, todo: list[TriplePattern]) -> Iterable[Binding]:
        if not todo:
            yield dict(binding)
            return
        # Greedy: stay connected to the current binding, then most-bound.
        todo = sorted(
            todo,
            key=lambda tp: (-_bound_variables(tp, binding), -_bound_count(tp, binding)),
        )
        tp, rest = todo[0], todo[1:]
        s, p, o = _substitute(tp, binding)
        for ms, mp, mo in graph.match(s, p, o):
            new = dict(binding)
            ok = True
            for term, value in ((tp.s, ms), (tp.p, mp), (tp.o, mo)):
                if is_variable(term):
                    if term in new and new[term] != value:
                        ok = False
                        break
                    new[term] = value
            if ok:
                yield from extend(new, rest)

    yield from extend(dict(seed) if seed else {}, remaining)
