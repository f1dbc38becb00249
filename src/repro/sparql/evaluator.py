"""Reference BGP evaluator (ground truth for every execution engine).

Implements the evaluation semantics of §2 directly:

    eval(q) = { mu(?v1..?vm) | mu: var(q) -> val(G), {mu(t1)..mu(tn)} ⊆ G }

using index nested loops with a greedy most-bound-first pattern order,
computed once per set of bound variables (:class:`_Join`).  Every
distributed engine in this repo is tested against this evaluator.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Collection, Iterable, Iterator

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import is_variable
from repro.sparql.ast import BGPQuery, TriplePattern

Binding = dict[str, str]


def _bound_count(tp: TriplePattern, bound: Collection[str]) -> int:
    """Number of bound positions of *tp* when the variables *bound* are
    (selectivity proxy)."""
    return sum(
        1 for term in (tp.s, tp.p, tp.o) if not is_variable(term) or term in bound
    )


def _bound_variables(tp: TriplePattern, bound: Collection[str]) -> int:
    """Number of *variables* of *tp* among *bound*.

    The primary ordering criterion: patterns connected to the current
    partial binding must come before unconnected ones, otherwise the
    evaluation wanders into cartesian-product branches (e.g. LUBM Q5,
    where every pattern ties on bound-position count).
    """
    return sum(1 for v in tp.variables() if v in bound)


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


class _Join:
    """The order :func:`bindings` joins *patterns* in when the variables
    *seeded* are bound before the first, compiled to a nested loop over
    one list of slots.

    The order is greedy: at each step the remaining patterns are stably
    sorted by bound variables, then bound positions, both descending,
    and the first is taken; matching it binds all its variables.  Only
    *which* variables are bound enters the sort, never their values, so
    the order is the same on every branch of the nested loop.

    A binding under construction is one list, ``values``: a slot per
    variable (the seeded ones first, then each in the order a step
    first binds it), then the lookup wildcard and the patterns'
    constants, which no step writes.  Each step names the three slots
    its index lookup reads, the ``(position, slot)`` pairs a match
    writes, and the ``(position, position)`` pairs a variable repeated
    inside the pattern makes equal.
    """

    __slots__ = ("order", "seeded", "names", "template", "steps")

    def __init__(
        self, patterns: tuple[TriplePattern, ...], seeded: frozenset[str]
    ) -> None:
        self.seeded = tuple(sorted(seeded))
        #: the bound variables' slots: the seeded ones, then those bound
        #: by each step taken so far
        slot = {v: i for i, v in enumerate(self.seeded)}
        width = len(seeded.union(*(tp.variables() for tp in patterns)))
        template: list[str | None] = [None] * width
        constants: dict[str, int] = {}

        def constant(term: str) -> int:
            if term not in constants:
                constants[term] = len(template)
                template.append(term)
            return constants[term]

        wildcard = constant("?")
        todo = list(patterns)
        order: list[TriplePattern] = []
        steps: list[tuple[tuple[int, ...], tuple, tuple]] = []
        while todo:
            todo.sort(
                key=lambda tp: (-_bound_variables(tp, slot), -_bound_count(tp, slot))
            )
            tp = todo.pop(0)
            lookup: list[int] = []
            writes: list[tuple[int, int]] = []
            checks: list[tuple[int, int]] = []
            first: dict[str, int] = {}
            for position, term in enumerate((tp.s, tp.p, tp.o)):
                if not is_variable(term):
                    lookup.append(constant(term))
                elif term in slot:
                    lookup.append(slot[term])
                elif term in first:
                    lookup.append(wildcard)
                    checks.append((first[term], position))
                else:
                    lookup.append(wildcard)
                    first[term] = position
            for v, position in first.items():
                slot[v] = len(slot)
                writes.append((position, slot[v]))
            order.append(tp)
            steps.append((tuple(lookup), tuple(writes), tuple(checks)))
        self.order = tuple(order)
        self.names = tuple(slot)
        self.template = tuple(template)
        self.steps = tuple(steps)


@lru_cache(maxsize=1024)
def _compiled(patterns: tuple[TriplePattern, ...], seeded: frozenset[str]) -> _Join:
    return _Join(patterns, seeded)


def bindings(
    patterns: Iterable[TriplePattern],
    graph: RDFGraph,
    seed: Binding | None = None,
) -> Iterator[Binding]:
    """Yield all total bindings satisfying all *patterns* over *graph*
    that extend *seed* (a partial binding; default: the empty one).

    Index nested loops in the order :class:`_Join` fixes, compiled once
    per ``(patterns, seeded variables)``: each step is one
    ``graph.match`` lookup with the bound positions filled in, and a
    match writes the variables it binds into the binding's slots.
    """
    seed = seed or {}
    join = _compiled(tuple(patterns), frozenset(seed))
    names, steps = join.names, join.steps
    values = list(join.template)
    for i, v in enumerate(join.seeded):
        values[i] = seed[v]
    if not steps:
        yield dict(zip(names, values))
        return
    # One match iterator per depth; a step's lookup reads the slots the
    # steps above it wrote for the triple they are on.
    last = len(steps) - 1
    s, p, o = steps[0][0]
    stack = [graph.match(values[s], values[p], values[o])]
    while stack:
        depth = len(stack) - 1
        _, writes, checks = steps[depth]
        for triple in stack[depth]:
            if checks and any(triple[a] != triple[b] for a, b in checks):
                continue
            for position, slot in writes:
                values[slot] = triple[position]
            if depth == last:
                yield dict(zip(names, values))
                continue
            s, p, o = steps[depth + 1][0]
            stack.append(graph.match(values[s], values[p], values[o]))
            break
        else:
            stack.pop()
