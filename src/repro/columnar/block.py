"""The :class:`ColumnBlock` representation and its conversion seams.

A block stores a relation column-wise: one parallel array of int64 term
ids per attribute.  Ids come from a :class:`~repro.rdf.dictionary
.Dictionary`, so equality of terms is equality of machine words and a
block round-trips losslessly through :func:`to_blocks` / :func:`to_rows`
for any terms the dictionary can hold (IRIs, literals, blank nodes —
any string).

Columns are numpy ``int64`` arrays — the one representation between
operators.  Without numpy this module still imports (the service reads
:data:`HAVE_NUMPY` to resolve its default backend) but builds no
columns: ``make_backend("columnar")`` refuses there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.rdf.dictionary import Dictionary

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None

HAVE_NUMPY = np is not None


def columnar_available() -> bool:
    """True when the columnar backend can run here: numpy imports."""
    return HAVE_NUMPY


def make_column(ids: Iterable[int]):
    """An int64 id column from an iterable of ints."""
    return np.fromiter(ids, dtype=np.int64)


def empty_column():
    return np.empty(0, dtype=np.int64)


@dataclass
class ColumnBlock:
    """An ordered attribute schema plus one id column per attribute.

    The columnar analogue of :class:`~repro.relational.relation.Relation`:
    ``columns[i][r]`` is the id of row ``r``'s value for ``attrs[i]``.
    All columns have equal length.
    """

    attrs: tuple[str, ...]
    columns: tuple

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def index_of(self, attr: str) -> int:
        try:
            return self.attrs.index(attr)
        except ValueError:
            raise KeyError(
                f"attribute {attr!r} not in schema {self.attrs}"
            ) from None

    def column(self, attr: str):
        return self.columns[self.index_of(attr)]

    def id_rows(self) -> list[tuple]:
        """Rows as tuples of ids (row-major view of the columns)."""
        if not self.columns:
            return []
        return list(zip(*self.columns))

    @classmethod
    def empty(cls, attrs: Sequence[str]) -> "ColumnBlock":
        return cls(tuple(attrs), tuple(empty_column() for _ in attrs))

    @classmethod
    def from_id_rows(cls, attrs: Sequence[str], rows: Sequence[tuple]) -> "ColumnBlock":
        """A block from row-major id tuples (inverse of :meth:`id_rows`)."""
        attrs = tuple(attrs)
        if not rows:
            return cls.empty(attrs)
        return cls(attrs, tuple(make_column(col) for col in zip(*rows)))

    # -- conversion seams -----------------------------------------------------

    @classmethod
    def from_rows(
        cls, attrs: Sequence[str], rows: Iterable[tuple], dictionary: Dictionary
    ) -> "ColumnBlock":
        """Encode term-tuple rows against *dictionary* (growing it),
        one column at a time."""
        attrs = tuple(attrs)
        columns = tuple(
            make_column(dictionary.encode_many(terms)) for terms in zip(*rows)
        )
        return cls(attrs, columns) if columns else cls.empty(attrs)

    def to_rows(self, dictionary: Dictionary) -> list[tuple]:
        """Decode back to term-tuple rows, preserving row order, one
        column at a time."""
        decode = dictionary.decode_many
        return list(zip(*[decode(col.tolist()) for col in self.columns]))


def to_blocks(relation, dictionary: Dictionary) -> ColumnBlock:
    """Encode a :class:`Relation` (or anything with ``attrs``/``rows``)."""
    return ColumnBlock.from_rows(relation.attrs, relation.rows, dictionary)


def to_rows(block: ColumnBlock, dictionary: Dictionary) -> list[tuple]:
    """Decode a block to term-tuple rows (module-level alias)."""
    return block.to_rows(dictionary)
