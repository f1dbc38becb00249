"""The columnar shard wire format.

What crosses the RPC boundary (map inputs, reduce exchange chunks,
result payloads) is id buffers, never pickled tuple lists: a
:class:`PackedRows` holds one buffer per column, each at the narrowest
of 1/2/4/8 bytes that holds its largest id (a map result's emits stay
grouped per reduce partition: group sizes beside one row buffer, no
per-row partition column).

The ids are the store's.  The §5.1 store numbers every term once, at
load (``PartitionedStore.add``), and every snapshot carries that
dictionary; a shard worker primed with its snapshot holds a replica,
which the driver keeps in step by shipping the suffix the worker lacks
(``TableUpdate``).  Both ends of a connection therefore number every
term alike, and a codec is stateless: one dictionary, nothing
translated, nothing to re-seed.  There are two ways in and out of the
buffers, one format between them:

* **The block path.**  A :class:`ColumnBlock` over the codec's
  dictionary is packed by ``astype`` to the narrowest width and
  ``tobytes``; a buffer is unpacked by ``np.frombuffer`` back into a
  block over the codec's dictionary — on an endpoint that computes on
  blocks (``blocks=True``: both ends of an rpc shard connection).  No
  term is touched.
* **The row path.**  :func:`pack_rows` / :func:`unpack_rows` look up
  and decode term-tuple rows cell by cell.  It is what a row endpoint
  (``blocks=False``) unpacks to, and how any chunk that is not a block
  over the codec's dictionary packs (a row list, a foreign
  dictionary's block).  Rows whose cells are not all strings (never
  produced by the plan specs, but closure tasks could), ragged rows and
  zero-arity rows cross pickled as-is via :class:`RawRows`.

Both produce the same :class:`PackedRows` bytes, so a block packed on
one end unpacks to rows on a row endpoint and the reverse.

A codec never numbers a term: packing a term its dictionary does not
hold raises ``KeyError``, and a worker's codec (``limit=``) refuses any
id at or past the length the driver last synced, so an id a worker
numbered on its own fails loudly instead of decoding to another term
on the driver.

Id buffers are *native* byte order — the wire only ever spans
processes on one machine (the workers are localhost children), so no
byte swapping is needed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.columnar.block import ColumnBlock, chunk_rows
from repro.mapreduce.hdfs import DistributedRelation, chunks_of

#: Wire formats the rpc shard transport speaks (ShardedPlanExecutor's
#: ``wire_format``; the query service ships "columnar").
WIRE_FORMATS = ("columnar", "pickle")

# The narrowest stdlib array typecode per byte width available on this
# platform (C type sizes vary; 1/2/4/8 all exist on every supported one).
_TYPECODE: dict[int, str] = {}
for _tc in "BHILQ":
    _TYPECODE.setdefault(array(_tc).itemsize, _tc)


def _width_for(max_value: int, limit: int | None = None) -> int:
    if limit is not None and max_value >= limit:
        raise ValueError(
            f"id {max_value} is past the {limit} terms the driver synced: "
            "a term the store never numbered"
        )
    for width in (1, 2, 4, 8):
        if width in _TYPECODE and max_value < 1 << (8 * width):
            return width
    raise OverflowError(f"id {max_value} exceeds 64 bits")


# -- wire dataclasses ---------------------------------------------------------


@dataclass(frozen=True)
class PackedRows:
    """A row set as parallel id columns: ``count`` rows, one buffer per
    column at ``widths[i]`` bytes per id, concatenated into ``data``."""

    count: int
    widths: tuple[int, ...]
    data: bytes


@dataclass(frozen=True)
class RawRows:
    """Fallback: rows that cannot be id-encoded cross pickled as-is."""

    rows: tuple


@dataclass(frozen=True)
class PackedRelation:
    """A :class:`DistributedRelation` with per-node packed partitions."""

    attrs: tuple[str, ...]
    partitions: tuple


@dataclass(frozen=True)
class PackedMapResult:
    """One map task's result: emits grouped per reduce partition — the
    ``(partition, tag, row count)`` of each group plus one packed row
    set holding the groups back to back — the
    direct output rows, and the task metrics (pickled — tiny)."""

    emits: object
    direct: object
    metrics: object


@dataclass(frozen=True)
class PackedReduceResult:
    """One reduce task's result: output rows plus task metrics."""

    rows: object
    metrics: object


# -- the row path ---------------------------------------------------------------


def _packable(rows: Sequence[tuple]) -> bool:
    """Rows id-encode only when rectangular, at least one cell wide and
    all-string (the plan specs guarantee this; closure-style tasks may
    not, and zero-arity rows have no column to carry their count)."""
    if not rows:
        return True
    arity = len(rows[0])
    return arity > 0 and all(
        len(row) == arity and all(type(term) is str for term in row)
        for row in rows
    )


def _pack_matrix(rows: Sequence[tuple], limit: int | None = None) -> PackedRows:
    """Pack row-major int tuples into column buffers (no empty check)."""
    count = len(rows)
    if count == 0:
        return PackedRows(0, (), b"")
    widths = []
    chunks = []
    for column in zip(*rows):
        width = _width_for(max(column), limit)
        widths.append(width)
        chunks.append(array(_TYPECODE[width], column).tobytes())
    return PackedRows(count, tuple(widths), b"".join(chunks))


def _unpack_matrix(packed: PackedRows) -> list[tuple]:
    if packed.count == 0:
        return []
    columns = []
    offset = 0
    for width in packed.widths:
        end = offset + packed.count * width
        columns.append(array(_TYPECODE[width], packed.data[offset:end]))
        offset = end
    return list(zip(*columns))


def pack_rows(
    rows: Sequence[tuple], encode: Callable[[str], int], limit: int | None = None
):
    """Term-tuple rows -> :class:`PackedRows` (or :class:`RawRows` when
    the rows are ragged, zero-arity or any cell is not a string); no id
    may reach *limit*."""
    if not _packable(rows):
        return RawRows(tuple(rows))
    return _pack_matrix(
        [tuple(encode(term) for term in row) for row in rows], limit
    )


def unpack_rows(packed, decode: Callable[[int], str]) -> list[tuple]:
    if isinstance(packed, RawRows):
        return list(packed.rows)
    return [
        tuple(decode(i) for i in ids) for ids in _unpack_matrix(packed)
    ]


def _emit_groups(shuffle: Sequence[tuple]) -> tuple:
    return tuple((partition, tag, len(chunk)) for partition, tag, chunk in shuffle)


def _split_emits(groups: tuple, rows) -> list[tuple]:
    """Cut the back-to-back *rows* (a row list or a block) into one
    ``(partition, tag, chunk)`` per group."""
    shuffle = []
    start = 0
    for partition, tag, count in groups:
        shuffle.append((partition, tag, rows[start : start + count]))
        start += count
    return shuffle


# -- the block path -------------------------------------------------------------

#: numpy dtype per id width, native byte order (ids are below 2^63, so
#: the widest is a plain int64 — which also indexes without a cast).
_DTYPE = {1: "u1", 2: "u2", 4: "u4", 8: "i8"}


def pack_columns(columns: Sequence, limit: int | None = None) -> PackedRows:
    """Equal-length, non-empty id columns -> :class:`PackedRows`, byte
    for byte what :func:`pack_rows` makes of the same ids (none of
    which may reach *limit*)."""
    widths = []
    buffers = []
    for column in columns:
        width = _width_for(int(column.max()), limit)
        widths.append(width)
        buffers.append(column.astype(_DTYPE[width], copy=False).tobytes())
    return PackedRows(len(columns[0]), tuple(widths), b"".join(buffers))


def unpack_columns(packed: PackedRows) -> list:
    """The id columns of a non-empty :class:`PackedRows`, as read-only
    views of its buffer at their packed widths."""
    columns = []
    offset = 0
    for width in packed.widths:
        columns.append(
            np.frombuffer(packed.data, _DTYPE[width], packed.count, offset)
        )
        offset += packed.count * width
    return columns


@lru_cache(maxsize=None)
def _positional(arity: int) -> tuple[str, ...]:
    """Column names of a block straight off the wire: the frame carries
    no schema (a row list never did either), so the consumer names the
    columns (:func:`repro.columnar.block.gather`)."""
    return tuple(f"_{i}" for i in range(arity))


class WireCodec:
    """One endpoint of a columnar shard connection (see module docs):
    a stateless packer over *snapshot*'s dictionary — the store's on
    the driver, its replica on a worker.

    ``blocks`` says what this end unpacks to: blocks over the
    dictionary (it computes on them) or row lists.  ``limit`` is the
    dictionary length the driver last synced: a worker's codec refuses
    to ship any id at or past it.  ``send`` and ``recv`` both name the
    dictionary (the row functions take their ``encode`` / ``decode``).
    Holding no mutable state, a codec may encode and decode on any
    thread in any order.
    """

    def __init__(
        self, snapshot, blocks: bool = False, limit: int | None = None
    ) -> None:
        self.dictionary = self.send = self.recv = snapshot.dictionary
        self.blocks = blocks
        self.limit = limit

    # -- chunks <-> packed rows ------------------------------------------------

    def _pack(self, chunks: Sequence):
        """The rows of a chunk sequence, packed back to back: the id
        columns as they are when every chunk is a block over this
        codec's dictionary, the row path otherwise."""
        chunks = [chunk for chunk in chunks if len(chunk)]
        dictionary = self.dictionary
        if chunks and all(
            type(chunk) is ColumnBlock and chunk.dictionary is dictionary
            for chunk in chunks
        ):
            arity = len(chunks[0].columns)
            if arity and all(len(chunk.columns) == arity for chunk in chunks):
                columns = (
                    chunks[0].columns
                    if len(chunks) == 1
                    else [
                        np.concatenate(cols)
                        for cols in zip(*[chunk.columns for chunk in chunks])
                    ]
                )
                return pack_columns(columns, self.limit)
        return pack_rows(chunk_rows(chunks), dictionary.id_of, self.limit)

    def _unpack(self, packed, attrs: tuple[str, ...] | None = None):
        """One chunk from a packed row set: a block over the dictionary
        (named *attrs* where the frame says, positionally otherwise), or
        a row list on a row endpoint and for :class:`RawRows`."""
        if not self.blocks or isinstance(packed, RawRows) or not packed.count:
            return unpack_rows(packed, self.dictionary.decode)
        columns = tuple(col.astype(np.int64) for col in unpack_columns(packed))
        if attrs is None:
            attrs = _positional(len(columns))
        return ColumnBlock(attrs, columns, self.dictionary)

    # -- encoding (outgoing) --------------------------------------------------

    def _pack_level(self, msg):
        """An ``ExecuteLevel`` with its chunk payloads (map ``inputs``
        partitions, reduce exchange chunks per tag) packed."""
        pack = self._pack
        if msg.phase == "map":
            inputs = {
                name: PackedRelation(
                    attrs=relation.attrs,
                    partitions=tuple(
                        pack(chunks_of(part)) for part in relation.partitions
                    ),
                )
                for name, relation in msg.inputs.items()
            }
            return replace(msg, inputs=inputs)
        return replace(
            msg,
            tasks=tuple(
                (
                    spec,
                    partition,
                    {tag: pack(chunks) for tag, chunks in grouped.items()},
                )
                for spec, partition, grouped in msg.tasks
            ),
        )

    def _pack_results(self, reply):
        """A ``ResultsReply`` with packed results: map results are
        ``(emits, direct, metrics)`` triples, reduce results
        ``(rows, metrics)`` pairs, every chunk packed as it is (an id
        block by its columns, a row list by rows)."""
        pack = self._pack
        packed = []
        for result in reply.results:
            if len(result) == 3:
                emits, direct, metrics = result
                packed.append(
                    PackedMapResult(
                        emits=(
                            _emit_groups(emits),
                            pack([chunk for _p, _tag, chunk in emits]),
                        ),
                        direct=pack((direct,)),
                        metrics=metrics,
                    )
                )
            else:
                rows, metrics = result
                packed.append(
                    PackedReduceResult(rows=pack((rows,)), metrics=metrics)
                )
        return replace(reply, results=packed)

    def encode(self, msg):
        """Pack a frameable message — ``ExecuteLevel``, ``ExecuteBatch``,
        ``ResultsReply`` or ``BatchReply`` (whose error members cross as
        they are) — picking the shape by its fields."""
        replies = getattr(msg, "replies", None)
        if replies is not None:  # BatchReply
            return replace(
                msg, replies=tuple((rid, self.encode(sub)) for rid, sub in replies)
            )
        items = getattr(msg, "items", None)
        if items is not None:  # ExecuteBatch
            return replace(
                msg, items=tuple((rid, self.encode(level)) for rid, level in items)
            )
        if getattr(msg, "results", None) is not None:  # ResultsReply
            return self._pack_results(msg)
        if getattr(msg, "phase", None) is None:  # e.g. an ErrorReply
            return msg
        return self._pack_level(msg)

    # -- decoding (incoming) --------------------------------------------------

    def decode(self, msg):
        """Unpack what :meth:`encode` packed into the shapes the engine
        exchanges: a map input partition and a result chunk are one
        chunk each, a reducer's ``grouped`` is ``{tag: [chunk]}``."""
        replies = getattr(msg, "replies", None)
        if replies is not None:  # BatchReply
            return replace(
                msg, replies=tuple((rid, self.decode(sub)) for rid, sub in replies)
            )
        items = getattr(msg, "items", None)
        if items is not None:  # ExecuteBatch
            return replace(
                msg, items=tuple((rid, self.decode(level)) for rid, level in items)
            )
        results = getattr(msg, "results", None)
        if results is not None:  # ResultsReply
            return replace(msg, results=[self._decode_result(r) for r in results])
        phase = getattr(msg, "phase", None)
        if phase is None:  # e.g. an ErrorReply inside a BatchReply
            return msg
        unpack = self._unpack
        if phase == "map":
            inputs = {
                name: DistributedRelation(
                    attrs=packed.attrs,
                    partitions=[
                        unpack(part, packed.attrs) for part in packed.partitions
                    ],
                )
                for name, packed in msg.inputs.items()
            }
            return replace(msg, inputs=inputs)
        return replace(
            msg,
            tasks=tuple(
                (
                    spec,
                    partition,
                    {tag: [unpack(packed)] for tag, packed in grouped.items()},
                )
                for spec, partition, grouped in msg.tasks
            ),
        )

    def _decode_result(self, result):
        unpack = self._unpack
        if isinstance(result, PackedMapResult):
            groups, rows = result.emits
            return (
                _split_emits(groups, unpack(rows)),
                unpack(result.direct),
                result.metrics,
            )
        return unpack(result.rows), result.metrics
