"""The columnar shard wire format: one id buffer per frame.

What crosses the RPC boundary on the columnar wire (a level's map
inputs and reduce exchange, a level's results) is id columns, never
pickled tuple lists.  :meth:`WireCodec.dumps` pickles a whole message
in one pass (protocol 5) with a ``reducer_override`` that swaps every
non-empty :class:`ColumnBlock` over the codec's dictionary for a
reference into one buffer: the columns of all those blocks, end to end,
at the narrowest of 1/2/4/8 bytes that holds the frame's largest id
(one ``max``, one ``astype``, one ``tobytes``).  :meth:`WireCodec.loads`
reads that buffer back as one int64 array and unpickles the message
with a ``find_class`` hook that resolves each reference to views of it
— blocks over the receiving codec's dictionary, with their attributes.
Every message shape (``ExecuteLevel``, ``ExecuteBatch``,
``ResultsReply``, ``BatchReply`` and their error members) crosses this
way; the codec walks none of them.  Anything else in the frame pickles
as it always does: a row list as its rows, a block over another
dictionary as its decoded rows (:meth:`ColumnBlock.__reduce__`), so no
:class:`~repro.rdf.dictionary.Dictionary` is ever pickled into a frame.

The ids are the store's.  The §5.1 store numbers every term once, at
load (``PartitionedStore.add``), and every snapshot carries that
dictionary; a shard worker synced to its view holds a replica, which
the driver keeps in step by shipping the suffix the worker lacks (in
the ``Sync`` frame that brings it current).  Both ends of a connection therefore number every
term alike, and a codec is stateless: one dictionary, nothing
translated, nothing to re-seed.  A codec never numbers a term, and a
worker's codec (``limit=``) refuses a frame holding an id at or past
the length the driver last synced, so an id a worker numbered on its
own fails loudly instead of decoding to another term on the driver.

A frame is a fixed header (the id width, the pickle's length), the
pickle, then the id buffer.  Id buffers are *native* byte order — the
wire only ever spans processes on one machine (the workers are
localhost children), so no byte swapping is needed.

:func:`pack_rows` / :func:`unpack_rows`, :class:`PackedRows`,
:class:`RawRows` and ``WireCodec.send`` / ``.recv`` are the row-at-a-
time packing the wire used before; they stay only because the ledger's
wire probe (``benchmarks/ledger/layers.py::probe_wire``) imports them.
"""

from __future__ import annotations

import io
import pickle
import struct
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.columnar.block import ColumnBlock

#: Wire formats the rpc shard transport speaks (ShardedPlanExecutor's
#: ``wire_format``; the query service ships "columnar").
WIRE_FORMATS = ("columnar", "pickle")

# The narrowest stdlib array typecode per byte width available on this
# platform (C type sizes vary; 1/2/4/8 all exist on every supported one).
_TYPECODE: dict[int, str] = {}
for _tc in "BHILQ":
    _TYPECODE.setdefault(array(_tc).itemsize, _tc)

#: numpy dtype per id width, native byte order (ids are below 2^63, so
#: the widest is a plain int64 — which also indexes without a cast).
_DTYPE = {1: "u1", 2: "u2", 4: "u4", 8: "i8"}

#: A frame's header: the id width in bytes, the pickle's length.
_HEADER = struct.Struct("=BQ")


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


# -- one buffer per frame ---------------------------------------------------------


def _block(offset: int, count: int, attrs: tuple[str, ...]):
    """What a block is pickled as inside a frame (by reference); only
    :meth:`WireCodec.loads` can resolve it, against the frame's buffer."""
    raise pickle.UnpicklingError("an id block reads only through WireCodec.loads")


class _FramePickler(pickle.Pickler):
    """Pickles one frame, collecting the columns of every non-empty
    block over *dictionary* and pickling the block as ``_block(offset,
    count, attrs)`` — where its columns start in the frame's buffer."""

    def __init__(self, file, dictionary) -> None:
        super().__init__(file, protocol=5)
        self.dictionary = dictionary
        self.columns: list = []
        self.size = 0

    def reducer_override(self, obj):
        if type(obj) is ColumnBlock and obj.dictionary is self.dictionary:
            count = len(obj)
            if count:
                offset = self.size
                self.columns += obj.columns
                self.size += count * len(obj.columns)
                return _block, (offset, count, obj.attrs)
        return NotImplemented


class _FrameUnpickler(pickle.Unpickler):
    """Unpickles one frame, resolving each ``_block`` to the codec's
    view of the frame's buffer."""

    def __init__(self, file, view: Callable) -> None:
        super().__init__(file)
        self.view = view

    def find_class(self, module: str, name: str):
        if name == "_block" and module == __name__:
            return self.view
        return super().find_class(module, name)


class WireCodec:
    """One endpoint of a columnar shard connection (see module docs):
    a stateless framer over *snapshot*'s dictionary — the store's on
    the driver, its replica on a worker.

    ``limit`` is the dictionary length the driver last synced: a
    worker's codec refuses to ship any id at or past it.  Holding no
    mutable state, a codec may frame and read frames on any thread in
    any order.
    """

    def __init__(self, snapshot, limit: int | None = None) -> None:
        #: ``send`` / ``recv`` name the dictionary for the ledger's row
        #: probe (``pack_rows`` / ``unpack_rows`` take their ``encode``
        #: / ``decode``)
        self.dictionary = self.send = self.recv = snapshot.dictionary
        self.limit = limit

    def dumps(self, obj) -> bytes:
        """*obj* as one frame: its pickle, every block over this codec's
        dictionary swapped for a reference into one id buffer."""
        out = io.BytesIO()
        out.seek(_HEADER.size)
        pickler = _FramePickler(out, self.dictionary)
        pickler.dump(obj)
        size = out.tell() - _HEADER.size
        width = 1
        if pickler.columns:
            ids = np.concatenate(pickler.columns)
            width = _width_for(int(ids.max()), self.limit)
            out.write(ids.astype(_DTYPE[width], copy=False).tobytes())
        out.seek(0)
        out.write(_HEADER.pack(width, size))
        return out.getvalue()

    def loads(self, frame: bytes):
        """The message :meth:`dumps` framed, its blocks views of the
        frame's buffer over this codec's dictionary."""
        width, size = _HEADER.unpack_from(frame)
        start = _HEADER.size + size
        ids = np.frombuffer(
            frame, _DTYPE[width], (len(frame) - start) // width, start
        ).astype(np.int64)
        file = io.BytesIO(frame)
        file.seek(_HEADER.size)
        return _FrameUnpickler(file, partial(self._view, ids)).load()

    def _view(self, ids, offset: int, count: int, attrs: tuple[str, ...]):
        """One block of a frame: *attrs* columns of *count* ids each,
        end to end from *offset* in the frame's *ids*."""
        columns = tuple(
            ids[start : start + count]
            for start in range(offset, offset + count * len(attrs), count)
        )
        return ColumnBlock(attrs, columns, self.dictionary, 0 if columns else count)


# -- the row packing the ledger's wire probe still measures -----------------------


@dataclass(frozen=True)
class PackedRows:
    """A row set as parallel id columns: ``count`` rows, one buffer per
    column at ``widths[i]`` bytes per id, concatenated into ``data``.
    Kept for the ledger's wire probe only (see the module docs)."""

    count: int
    widths: tuple[int, ...]
    data: bytes


@dataclass(frozen=True)
class RawRows:
    """Rows :func:`pack_rows` cannot id-encode, kept as they are.  Kept
    for the ledger's wire probe only (see the module docs)."""

    rows: tuple


def _packable(rows: Sequence[tuple]) -> bool:
    """Rows id-encode only when rectangular, at least one cell wide and
    all-string (zero-arity rows have no column to carry their count)."""
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
    may reach *limit*.  Kept for the ledger's wire probe only."""
    if not _packable(rows):
        return RawRows(tuple(rows))
    return _pack_matrix(
        [tuple(encode(term) for term in row) for row in rows], limit
    )


def unpack_rows(packed, decode: Callable[[int], str]) -> list[tuple]:
    """The rows :func:`pack_rows` packed.  Kept for the ledger's wire
    probe only."""
    if isinstance(packed, RawRows):
        return list(packed.rows)
    return [
        tuple(decode(i) for i in ids) for ids in _unpack_matrix(packed)
    ]
