"""Named-attribute relations: the tuple currency of every executor.

A :class:`Relation` is an ordered attribute schema plus a list of rows;
attribute names are SPARQL variable names (``?x``) so a relation is a set
of solution mappings restricted to its schema.  All physical operators
(map scans, joins, projections) consume and produce relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

Row = tuple


@dataclass
class Relation:
    """An ordered schema plus rows.  Rows are tuples aligned to ``attrs``."""

    attrs: tuple[str, ...]
    rows: list[Row] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(set(self.attrs)) != len(self.attrs):
            raise ValueError(f"duplicate attributes in schema: {self.attrs}")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def index_of(self, attr: str) -> int:
        """Position of *attr* in the schema."""
        try:
            return self.attrs.index(attr)
        except ValueError:
            raise KeyError(f"attribute {attr!r} not in schema {self.attrs}") from None

    def key(self, attrs: Sequence[str]) -> Callable[[Row], tuple]:
        """Return a function extracting the given attributes from a row."""
        idx = tuple(self.index_of(a) for a in attrs)
        return lambda row: tuple(row[i] for i in idx)

    def project(self, attrs: Sequence[str]) -> "Relation":
        """Project (with de-duplication) onto *attrs*."""
        extract = self.key(attrs)
        seen: set[tuple] = set()
        out: list[Row] = []
        for row in self.rows:
            key = extract(row)
            if key not in seen:
                seen.add(key)
                out.append(key)
        return Relation(tuple(attrs), out)

    def distinct(self) -> "Relation":
        """Remove duplicate rows, preserving first-seen order."""
        seen: set[Row] = set()
        out: list[Row] = []
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return Relation(self.attrs, out)

    def to_set(self) -> set[Row]:
        """Rows as a set (order-insensitive comparison)."""
        return set(self.rows)
