"""The :class:`ColumnBlock` representation and its conversion seams.

A block stores a relation column-wise: one parallel array of int64 term
ids per attribute.  Ids come from a :class:`~repro.rdf.dictionary
.Dictionary`, so equality of terms is equality of machine words and a
block round-trips losslessly through :func:`to_blocks` / :func:`to_rows`
for any terms the dictionary can hold (IRIs, literals, blank nodes —
any string).

A block that leaves the task that built it — as a shuffle chunk, a
job output, the answer — carries the dictionary its ids belong to.
That makes it a *chunk* of :mod:`repro.mapreduce.jobs` (sized, iterates
as term-tuple rows) for any consumer, while a consumer working over the
same dictionary takes the id columns as they are (:func:`gather`); and
it lets the block keep that dictionary out of any pickle: it pickles as
its decoded rows.  That is the correct, slow way across a process
boundary; a transport that wants the ids to cross pickles with a codec
that swaps each block for its id columns in the frame's one buffer
(:meth:`repro.columnar.wire.WireCodec.dumps` — both ends hold the
store's numbering, so the ids need no translation).

The answer of a plan stays a block too: :func:`answer_block` gathers
the result chunks and drops duplicate rows in id space, and terms
reappear only when :func:`answer_rows` builds the answer set — one
:meth:`~repro.rdf.dictionary.Dictionary.decode_column` per column,
taken in whatever order the reader wants them.

Columns are numpy ``int64`` arrays — the one representation between
operators.  numpy is a requirement of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.rdf.dictionary import Dictionary


def make_column(ids: Iterable[int]):
    """An int64 id column from an iterable of ints."""
    return np.fromiter(ids, dtype=np.int64)


def empty_column():
    return np.empty(0, dtype=np.int64)


_INT64_MAX = (1 << 63) - 1


def pack_codes(columns: Sequence):
    """One int64 code per row, equal exactly where the rows' id tuples
    over *columns* are equal.

    Ids are dictionary positions, hence non-negative.  A single column
    is its own code; several pack mixed-radix, column by column, and
    where the radix product could leave int64 (ids near 2^63, or many
    wide columns) both factors are first replaced by their dense ranks,
    which are below the row count.
    """
    codes = columns[0]
    for col in columns[1:]:
        span = int(col.max()) + 1
        if (int(codes.max()) + 1) * span > _INT64_MAX:
            codes = np.unique(codes, return_inverse=True)[1]
            col = np.unique(col, return_inverse=True)[1]
            span = int(col.max()) + 1
        codes = codes * span + col
    return codes


@dataclass
class ColumnBlock:
    """An ordered attribute schema plus one id column per attribute.

    The columnar analogue of :class:`~repro.relational.relation.Relation`:
    ``columns[i][r]`` is the id of row ``r``'s value for ``attrs[i]``.
    All columns have equal length.  As a chunk handed to another task
    only the columns count: a consumer names them by the schema it
    expects (:func:`gather`), exactly as it must for a row list.
    """

    attrs: tuple[str, ...]
    columns: tuple
    #: the dictionary the ids belong to (a reference, never a copy);
    #: None only for blocks that stay inside one kernel computation
    dictionary: Dictionary | None = field(default=None, repr=False, compare=False)
    #: the row count of a block with no columns to take it from (the
    #: answer of a variable-free pattern: that many empty rows)
    count: int = 0

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else self.count

    def __iter__(self) -> Iterator[tuple]:
        """The term-tuple rows, decoded against the block's dictionary."""
        return iter(self.to_rows())

    def __getitem__(self, rows: slice) -> "ColumnBlock":
        """The sub-block of a row slice (views of the columns)."""
        return ColumnBlock(
            self.attrs,
            tuple([col[rows] for col in self.columns]),
            self.dictionary,
            len(range(*rows.indices(self.count))),
        )

    def __reduce__(self):
        # Crossing a process boundary with its dictionary would ship the
        # whole term table per block; the rows are what the peer wants.
        if self.dictionary is None:
            return (ColumnBlock, (self.attrs, self.columns, None, self.count))
        return (list, (self.to_rows(),))

    def index_of(self, attr: str) -> int:
        try:
            return self.attrs.index(attr)
        except ValueError:
            raise KeyError(
                f"attribute {attr!r} not in schema {self.attrs}"
            ) from None

    def column(self, attr: str):
        return self.columns[self.index_of(attr)]

    @classmethod
    def empty(
        cls, attrs: Sequence[str], dictionary: Dictionary | None = None
    ) -> "ColumnBlock":
        return cls(tuple(attrs), tuple(empty_column() for _ in attrs), dictionary)

    # -- conversion seams -----------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        attrs: Sequence[str],
        rows: Iterable[tuple],
        dictionary: Dictionary,
        mint: bool = True,
    ) -> "ColumnBlock":
        """Encode term-tuple rows against *dictionary*, one column at a
        time: growing it, or — ``mint=False`` — only looking terms up
        (``KeyError`` for a term it does not hold)."""
        attrs = tuple(attrs)
        if not attrs:
            return cls(attrs, (), dictionary, sum(1 for _ in rows))
        encode = dictionary.encode_many if mint else dictionary.ids_of
        columns = tuple(make_column(encode(terms)) for terms in zip(*rows))
        if not columns:
            return cls.empty(attrs, dictionary)
        return cls(attrs, columns, dictionary)

    def to_rows(self, dictionary: Dictionary | None = None) -> list[tuple]:
        """Decode back to term-tuple rows (against the block's own
        dictionary unless one is given), preserving row order, one
        column at a time."""
        if dictionary is None:
            dictionary = self.dictionary
        if not self.columns:
            return [()] * self.count
        decode = dictionary.decode_column
        return list(zip(*[decode(col) for col in self.columns]))


def to_blocks(relation, dictionary: Dictionary) -> ColumnBlock:
    """Encode a :class:`Relation` (or anything with ``attrs``/``rows``)."""
    return ColumnBlock.from_rows(relation.attrs, relation.rows, dictionary)


def to_rows(block: ColumnBlock, dictionary: Dictionary) -> list[tuple]:
    """Decode a block to term-tuple rows (module-level alias)."""
    return block.to_rows(dictionary)


# -- chunks in, chunks out ------------------------------------------------------


def gather(
    attrs: Sequence[str],
    chunks: Iterable,
    dictionary: Dictionary,
    encode_rows: Callable[[Sequence[str], Iterable[tuple], Dictionary], ColumnBlock]
    | None = None,
) -> ColumnBlock:
    """Every row of *chunks* as one block over *dictionary*.

    Blocks already over that dictionary contribute their id columns
    untouched (one ``np.concatenate`` per column when there are
    several), whatever they call them — *attrs* names the result; any
    other chunk — a row list, a block from a foreign dictionary — is
    iterated as rows and encoded by ``encode_rows(attrs, rows,
    dictionary)``.
    """
    attrs = tuple(attrs)
    blocks = [
        chunk
        if isinstance(chunk, ColumnBlock) and chunk.dictionary is dictionary
        else encode_rows(attrs, chunk, dictionary)
        for chunk in chunks
        if len(chunk)
    ]
    if not blocks:
        return ColumnBlock.empty(attrs, dictionary)
    if len(blocks) == 1:
        block = blocks[0]
        if block.attrs == attrs:
            return block
        return ColumnBlock(attrs, block.columns, dictionary, block.count)
    columns = zip(*[block.columns for block in blocks])
    return ColumnBlock(
        attrs,
        tuple(np.concatenate(cols) for cols in columns),
        dictionary,
        sum(block.count for block in blocks),
    )


def answer_block(
    attrs: Sequence[str], chunks: Iterable, dictionary: Dictionary
) -> ColumnBlock:
    """A plan's answer: every row of its result *chunks* as one block
    over *dictionary*, each distinct id tuple once.

    Every reduce partition (or map task) projects on its own, so a row
    recurs across them when the projection dropped the partition key;
    the duplicates go here, in id space — a sort of the packed row
    codes, then ``np.unique`` when it finds any — and no term is
    decoded.  A chunk that is not a block over *dictionary* (a row list
    of the tuple engine) is looked up in it: every answer term is a
    stored term.  A block without columns keeps one row if it had any
    (the answer ``{()}``).
    """
    block = gather(
        attrs, chunks, dictionary, partial(ColumnBlock.from_rows, mint=False)
    )
    if not block.columns:
        return ColumnBlock(block.attrs, (), dictionary, min(len(block), 1))
    if len(block) > 1:
        codes = pack_codes(block.columns)
        ordered = np.sort(codes)
        # A plain sort finds out whether there is anything to drop — at
        # a fraction of the stable sort that locates the first copies.
        if (ordered[1:] == ordered[:-1]).any():
            first = np.unique(codes, return_index=True)[1]
            columns = tuple(col[first] for col in block.columns)
            block = ColumnBlock(block.attrs, columns, dictionary)
    return block


def answer_rows(
    block: ColumnBlock, attrs: Sequence[str] | None = None
) -> frozenset[tuple]:
    """The term tuples of an answer block as an immutable set, its
    columns taken in *attrs* order (default: the block's own) — one
    decode per column, no intermediate row list.  With no columns to
    take, the set is ``{()}`` when the block has rows and empty
    otherwise."""
    if not len(block):
        return frozenset()
    if attrs is None:
        columns = block.columns
    else:
        columns = [block.column(attr) for attr in attrs]
    if not columns:
        return frozenset({()})
    decode = block.dictionary.decode_column
    return frozenset(zip(*[decode(col) for col in columns]))
