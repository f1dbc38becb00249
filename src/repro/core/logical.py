"""Logical CliqueSquare operators and plans — §4.1.

Operators: Match (leaf, one triple pattern), n-ary Join on an attribute
set A, Select, Project.  A logical plan is a rooted DAG of operators;
sub-DAGs can be shared (simple covers yield DAG plans).

All operators are immutable and structurally hashable, so two plans that
are "the same" compare equal — which is how duplicate plans produced by
different decomposition sequences are detected (the uniqueness ratio of
Fig. 19).  Join children are kept in a canonical order so that operator
equality is insensitive to enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, Iterator, TypeVar

from repro.sparql.ast import BGPQuery, TriplePattern

T = TypeVar("T")


class derived(Generic[T]):
    """``functools.cached_property`` without its lock.

    The value is computed on first access and stored in the instance
    ``__dict__`` under the method's name, where every later lookup finds
    it before this (non-data) descriptor.  Before Python 3.12,
    ``cached_property`` takes a class-wide lock on each first access;
    the optimizer builds thousands of operators per search, and a value
    derived from immutable fields is the same whichever thread computes
    it first.
    """

    def __init__(self, fn: Callable[[Any], T]) -> None:
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj: Any, owner: type | None = None) -> T:
        if obj is None:
            return self  # type: ignore[return-value]
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class LogicalOperator:
    """Base class for logical operators.  Subclasses are frozen dataclasses.

    Operators are immutable, so what is derived from their fields
    (covered patterns, join output attributes, height, signature) is computed
    once per object with :class:`derived`: it lives in the instance
    ``__dict__``, outside the dataclass fields, so ``__eq__`` and
    ``__hash__`` are untouched.
    """

    @property
    def attrs(self) -> tuple[str, ...]:
        """Output attributes (variable names), in canonical order."""
        raise NotImplementedError

    @property
    def children(self) -> tuple["LogicalOperator", ...]:
        return ()

    def patterns(self) -> frozenset[TriplePattern]:
        """The triple patterns this operator's sub-DAG covers."""
        return self._patterns

    @derived
    def _patterns(self) -> frozenset[TriplePattern]:
        out: set[TriplePattern] = set()
        for child in self.children:
            out |= child.patterns()
        return frozenset(out)

    @derived
    def height(self) -> int:
        """Largest number of join operators on a path from here to a leaf."""
        below = max((child.height for child in self.children), default=0)
        return below + isinstance(self, Join)

    @derived
    def _signature(self) -> tuple:
        if isinstance(self, Match):
            return ("M", str(self.pattern))
        if isinstance(self, Join):
            return ("J", self.on, tuple(sorted(signature(c) for c in self.inputs)))
        if isinstance(self, Select):
            return ("S", self.conditions, signature(self.child))
        if isinstance(self, Project):
            return ("P", self.on, signature(self.child))
        raise TypeError(f"unknown operator {type(self)!r}")

    def iter_operators(self) -> Iterator["LogicalOperator"]:
        """All distinct operators of the sub-DAG, parents before children."""
        seen: set[int] = set()
        stack: list[LogicalOperator] = [self]
        while stack:
            op = stack.pop()
            if id(op) in seen:
                continue
            seen.add(id(op))
            yield op
            stack.extend(op.children)


@dataclass(frozen=True)
class Match(LogicalOperator):
    """Match M_tp: the relation of triples matching a triple pattern."""

    pattern: TriplePattern

    @property
    def attrs(self) -> tuple[str, ...]:
        return self.pattern.variables()

    @derived
    def _patterns(self) -> frozenset[TriplePattern]:
        return frozenset([self.pattern])

    def __str__(self) -> str:
        return f"M[{self.pattern}]"


@dataclass(frozen=True)
class Join(LogicalOperator):
    """n-ary star equality join J_A(op1..opm).

    ``on`` is the attribute set A — the variables shared by *all* inputs.
    Equalities on attributes shared by only some inputs are enforced too
    (the §4.2 residual selections, folded into natural-join semantics).
    """

    on: tuple[str, ...]
    inputs: tuple[LogicalOperator, ...]

    def __post_init__(self) -> None:
        if len(self.inputs) < 2:
            raise ValueError("a join needs at least two inputs")
        shared = set(self.inputs[0].attrs)
        for child in self.inputs[1:]:
            shared &= set(child.attrs)
        if not set(self.on) <= shared:
            raise ValueError(
                f"join attributes {self.on} not shared by all inputs"
            )
        if not self.on:
            raise ValueError("empty join attribute set (cartesian product)")

    @property
    def children(self) -> tuple[LogicalOperator, ...]:
        return self.inputs

    @property
    def attrs(self) -> tuple[str, ...]:
        return self._attrs

    @derived
    def _attrs(self) -> tuple[str, ...]:
        out: list[str] = []
        for child in self.inputs:
            for a in child.attrs:
                if a not in out:
                    out.append(a)
        return tuple(out)

    def __str__(self) -> str:
        on = ",".join(a.lstrip("?") for a in self.on)
        return f"J_{on}({', '.join(str(c) for c in self.inputs)})"


@dataclass(frozen=True)
class Select(LogicalOperator):
    """Select sigma_c: keep tuples satisfying a conjunction of equalities.

    Conditions are (attribute, constant) pairs.  With natural-join
    semantics and constant filtering at match level, logical plans rarely
    need explicit selections; the operator exists for completeness and
    for hand-built plans.
    """

    conditions: tuple[tuple[str, str], ...]
    child: LogicalOperator

    @property
    def children(self) -> tuple[LogicalOperator, ...]:
        return (self.child,)

    @property
    def attrs(self) -> tuple[str, ...]:
        return self.child.attrs

    def __str__(self) -> str:
        conds = ",".join(f"{a}={v}" for a, v in self.conditions)
        return f"S[{conds}]({self.child})"


@dataclass(frozen=True)
class Project(LogicalOperator):
    """Project pi_A onto an attribute list."""

    on: tuple[str, ...]
    child: LogicalOperator

    def __post_init__(self) -> None:
        missing = set(self.on) - set(self.child.attrs)
        if missing:
            raise ValueError(f"projection attrs {missing} missing from child")

    @property
    def children(self) -> tuple[LogicalOperator, ...]:
        return (self.child,)

    @property
    def attrs(self) -> tuple[str, ...]:
        return self.on

    def __str__(self) -> str:
        on = ",".join(a.lstrip("?") for a in self.on)
        return f"pi[{on}]({self.child})"


def rewrite_patterns(
    op: LogicalOperator,
    pattern_fn: Callable[[TriplePattern], TriplePattern],
    _memo: dict[int, LogicalOperator] | None = None,
) -> LogicalOperator:
    """Rebuild a sub-DAG with every Match pattern passed through
    *pattern_fn*, preserving shared-sub-DAG identity (simple covers).

    Used by the prepared-query machinery to move a plan between its
    template form (parameter placeholders) and a bound form (concrete
    constants); ``pattern_fn`` must not change which variables a pattern
    mentions, so joins and projections revalidate unchanged.
    """
    memo = _memo if _memo is not None else {}
    cached = memo.get(id(op))
    if cached is not None:
        return cached
    if isinstance(op, Match):
        new: LogicalOperator = Match(pattern=pattern_fn(op.pattern))
    elif isinstance(op, Join):
        new = Join(
            on=op.on,
            inputs=tuple(
                rewrite_patterns(c, pattern_fn, memo) for c in op.inputs
            ),
        )
    elif isinstance(op, Select):
        new = Select(
            conditions=op.conditions,
            child=rewrite_patterns(op.child, pattern_fn, memo),
        )
    elif isinstance(op, Project):
        new = Project(
            on=op.on, child=rewrite_patterns(op.child, pattern_fn, memo)
        )
    else:
        raise TypeError(f"unknown operator {type(op)!r}")
    memo[id(op)] = new
    return new


def signature(op: LogicalOperator) -> tuple:
    """A canonical, hashable, order-insensitive description of a sub-DAG.

    Used to sort join children deterministically and to deduplicate plans.
    """
    return op._signature


def make_join(inputs: list[LogicalOperator]) -> LogicalOperator:
    """Build a canonical n-ary join: children deduplicated and sorted, A =
    the attributes shared by all inputs.  A single (after dedup) input is
    returned unchanged."""
    # A stable sort keeps equal signatures in input order, so the first
    # of each run is the first occurrence; adjacent signatures compare
    # without hashing them whole.
    ordered = sorted(inputs, key=signature)
    unique = ordered[:1]
    for op in ordered[1:]:
        if signature(op) != signature(unique[-1]):
            unique.append(op)
    if len(unique) == 1:
        return unique[0]
    shared = set(unique[0].attrs)
    for op in unique[1:]:
        shared &= set(op.attrs)
    on = tuple(sorted(shared))
    return Join(on=on, inputs=tuple(unique))


@dataclass(frozen=True)
class LogicalPlan:
    """A complete logical plan for a query: an operator DAG whose root
    projects onto the distinguished variables."""

    root: LogicalOperator
    query: BGPQuery

    @classmethod
    def wrap(cls, body: LogicalOperator, query: BGPQuery) -> "LogicalPlan":
        """Add the final projection (§4.2) on top of a plan body."""
        root: LogicalOperator = body
        if tuple(query.distinguished) != body.attrs:
            root = Project(on=tuple(query.distinguished), child=body)
        return cls(root=root, query=query)

    @property
    def body(self) -> LogicalOperator:
        """The plan without its final projection."""
        return self.root.child if isinstance(self.root, Project) else self.root

    def signature(self) -> tuple:
        return signature(self.root)

    def __hash__(self) -> int:
        return hash(self.signature())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogicalPlan):
            return NotImplemented
        return self.signature() == other.signature()

    def __str__(self) -> str:
        return str(self.root)
