"""The columnar shard wire format.

What crosses the RPC boundary (map inputs, reduce exchange chunks,
result payloads) is dictionary-encoded id buffers, never pickled tuple
lists: a :class:`PackedRows` holds one buffer per column, each at the
narrowest of 1/2/4/8 bytes that holds its largest id (a map result's
emits stay grouped per reduce partition: group sizes beside one row
buffer, no per-row partition column).

Each endpoint of a connection keeps two *connection* dictionaries, both
deterministically seeded from the shard's resident
:class:`StoreSnapshot` at prime time (node by node, file insertion
order, triple order — the snapshot is the same pickled object on both
ends, so the seeded ids agree by construction):

* ``send`` — grown by this endpoint as it encodes outgoing chunks;
* ``recv`` — a replica of the peer's ``send``, maintained by replaying
  the dictionary delta each incoming frame carries.

A frame therefore ships only ids plus the delta of terms the peer's
replica doesn't already hold (snapshot-resident terms never cross the
wire, and any term crosses at most once per connection).  The sender
advances its delta watermark only after the frame is actually written,
so a frame lost to a transport failure merely re-ships its delta —
and :meth:`Dictionary.merge_entries` makes re-delivery idempotent.
A worker respawn re-primes the connection, resetting both ends.

There are two ways in and out of those buffers, one format between
them:

* **The block path** (needs numpy).  An endpoint that computes in an id
  space of its own — a shard worker's columnar backend, the driver's
  router — gives the codec that dictionary as ``local``.  The engine's
  chunks then cross as they are: a :class:`ColumnBlock` over ``local``
  is packed by one gather through a cached ``local → send`` id map,
  ``astype`` to the narrowest width and ``tobytes``; a buffer is
  unpacked by ``np.frombuffer``, one gather through the ``recv →
  local`` map, and leaves as a block over ``local``.  No term is
  touched on a warm connection.  The maps (:class:`_IdMap`) are int64
  arrays, ``-1`` where an id has not been asked for yet; all three
  dictionaries involved are append-only, so a mapped id never moves
  and the maps are only ever extended (by decoding the missing ids in
  one dictionary and encoding them in the other — ``terms_translated``
  counts those).
* **The row path** (stdlib only: this module imports and serves rows
  without numpy).  :func:`pack_rows` / :func:`unpack_rows` encode and
  decode term-tuple rows cell by cell.  It is what an endpoint with
  ``local=None`` speaks (a serial worker, a numpy-less host), and the
  block path's fallback for any chunk that is not a block over
  ``local`` (a row list, a foreign dictionary's block).  Rows whose
  cells are not all strings (never produced by the plan specs, but
  closure tasks could), ragged rows and zero-arity rows cross pickled
  as-is via :class:`RawRows`.

Both produce the same :class:`PackedRows` bytes, so the two ends of a
connection choose independently: a block packed on the driver unpacks
to rows on a serial worker and the reverse.

Id buffers are *native* byte order — the wire only ever spans
processes on one machine (the workers are localhost children), so no
byte swapping is needed.
"""

from __future__ import annotations

import threading
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

from repro.analysis.locks import checked
from repro.columnar.block import ColumnBlock, chunk_rows, np
from repro.mapreduce.hdfs import DistributedRelation, chunks_of
from repro.rdf.dictionary import Dictionary

#: Wire formats the shard transport speaks (ServiceConfig.wire_format).
WIRE_FORMATS = ("columnar", "pickle")

# The narrowest stdlib array typecode per byte width available on this
# platform (C type sizes vary; 1/2/4/8 all exist on every supported one).
_TYPECODE: dict[int, str] = {}
for _tc in "BHILQ":
    _TYPECODE.setdefault(array(_tc).itemsize, _tc)


def _width_for(max_value: int) -> int:
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
    set holding the groups back to back (:func:`pack_emits`) — the
    direct output rows, and the task metrics (pickled — tiny)."""

    emits: object
    direct: object
    metrics: object


@dataclass(frozen=True)
class PackedReduceResult:
    """One reduce task's result: output rows plus task metrics."""

    rows: object
    metrics: object


@dataclass(frozen=True)
class ColumnarFrame:
    """An encoded message plus the dictionary delta it depends on:
    ``delta_terms`` are the sender's dictionary entries from id
    ``delta_start`` on, which the receiver replays into its replica
    before unpacking ``payload``."""

    payload: object
    delta_start: int
    delta_terms: tuple[str, ...]


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


def _pack_matrix(rows: Sequence[tuple]) -> PackedRows:
    """Pack row-major int tuples into column buffers (no empty check)."""
    count = len(rows)
    if count == 0:
        return PackedRows(0, (), b"")
    widths = []
    chunks = []
    for column in zip(*rows):
        width = _width_for(max(column))
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


def pack_rows(rows: Sequence[tuple], encode: Callable[[str], int]):
    """Term-tuple rows -> :class:`PackedRows` (or :class:`RawRows` when
    the rows are ragged, zero-arity or any cell is not a string)."""
    if not _packable(rows):
        return RawRows(tuple(rows))
    return _pack_matrix(
        [tuple(encode(term) for term in row) for row in rows]
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


def pack_emits(shuffle: Sequence[tuple], encode: Callable[[str], int]) -> tuple:
    """A map task's shuffle output — ``(partition, tag, chunk)`` per
    reduce partition — as ``(groups, rows)``: the ``(partition, tag, row
    count)`` of every chunk, and all their rows back to back, packed
    once (blocks over one dictionary decode together, see
    :func:`~repro.columnar.block.chunk_rows`)."""
    rows = chunk_rows([chunk for _partition, _tag, chunk in shuffle])
    return _emit_groups(shuffle), pack_rows(rows, encode)


def unpack_emits(packed: tuple, decode: Callable[[int], str]) -> list[tuple]:
    groups, rows = packed
    return _split_emits(groups, unpack_rows(rows, decode))


# -- the block path -------------------------------------------------------------

#: numpy dtype per id width, native byte order (ids are below 2^63, so
#: the widest is a plain int64 — which also indexes without a cast).
_DTYPE = {1: "u1", 2: "u2", 4: "u4", 8: "i8"}


def pack_columns(columns: Sequence) -> PackedRows:
    """Equal-length, non-empty id columns -> :class:`PackedRows`, byte
    for byte what :func:`pack_rows` makes of the same ids."""
    widths = []
    buffers = []
    for column in columns:
        width = _width_for(int(column.max()))
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


class _IdMap:
    """A cached id translation from one append-only dictionary to
    another: ``table[i]`` is the id *dst* gives the term *src* calls
    ``i``, or ``-1`` until somebody asks.

    A warm map translates a column with one gather.  Missing ids are
    filled by decoding them in *src* and encoding them in *dst* (under
    *dst_lock* when *dst* has other writers); the extended table is
    built aside and published with one assignment, as
    :class:`~repro.columnar.kernels.HashMemo` does, so a reader never
    sees a half-filled one.  Fills are serialized by the owning codec's
    lock.
    """

    def __init__(self, src: Dictionary, dst: Dictionary, dst_lock=None) -> None:
        self._src = src
        self._dst = dst
        self._dst_lock = nullcontext() if dst_lock is None else dst_lock
        self._table = np.empty(0, dtype=np.int64)
        #: ids translated term by term (the python slow path)
        self.translated = 0

    def __call__(self, ids):
        """The *dst* ids of a non-empty *src* id column."""
        table = self._table
        if int(ids.max()) < len(table):
            out = table[ids]
            if int(out.min()) >= 0:
                return out
        return self._fill(ids)[ids]

    def _fill(self, ids):
        old = self._table
        table = np.full(max(len(old), len(self._src)), -1, dtype=np.int64)
        table[: len(old)] = old
        if int(ids.max()) >= len(table):
            raise KeyError(int(ids.max()))
        missing = np.unique(ids[table[ids] < 0])
        terms = self._src.decode_many(missing.tolist())
        with self._dst_lock:
            table[missing] = self._dst.encode_many(terms)
        self.translated += len(missing)
        self._table = table
        return table


# -- the codec ----------------------------------------------------------------


def _seed_dictionary(snapshot) -> Dictionary:
    """A dictionary over every term resident in *snapshot*, in the
    snapshot's own deterministic iteration order."""
    dictionary = Dictionary()
    encode = dictionary.encode
    for files in snapshot.files:
        for triples in files.values():
            for s, p, o in triples:
                encode(s)
                encode(p)
                encode(o)
    return dictionary


class WireCodec:
    """One endpoint of a columnar shard connection (see module docs).

    *local* is the dictionary this endpoint computes in — its blocks
    cross as id buffers and what it receives arrives as blocks over
    it; *local_lock* guards that dictionary's growth when the codec is
    not its only writer (a backend's tasks, the router's other
    connections).  ``local=None`` is a row endpoint: chunks go out via
    :func:`pack_rows`, row lists come in.

    Concurrency contract (the multiplexed transport encodes from many
    threads over one connection): the codec's own state — both
    connection dictionaries, the id maps and the delta watermark — is
    guarded by an internal lock (taken before *local_lock*, never
    after), so concurrent ``encode_*`` calls assign ids safely.  What
    the codec *cannot* enforce is frame ordering: the delta watermark
    protocol requires that frames are **sent in the order their commit
    callbacks run**, so callers must hold their connection's send lock
    across encode + send and invoke ``commit`` before releasing it.
    A frame encoded after another thread grew the dictionary simply
    carries a window that also covers those not-yet-shipped ids —
    harmless over-shipping, since the receiver replays deltas in send
    order and :meth:`Dictionary.merge_entries` is idempotent.  Decoding
    likewise must happen in receive order (each endpoint has a single
    reader, which is exactly that).
    """

    def __init__(
        self, snapshot, local: Dictionary | None = None, local_lock=None
    ) -> None:
        self.send = _seed_dictionary(snapshot)
        self.recv = _seed_dictionary(snapshot)
        self.local = local
        if local is not None:
            self._to_send = _IdMap(local, self.send)
            self._to_local = _IdMap(self.recv, local, local_lock)
        self._watermark = len(self.send)
        self._lock = checked(threading.RLock(), "WireCodec._lock")
        # Cumulative wire telemetry (guarded by _lock), surfaced via
        # stats() and the service's Prometheus exposition.
        self.frames_encoded = 0
        self.frames_decoded = 0
        self.terms_shipped = 0

    def stats(self) -> dict[str, int]:
        """Cumulative frame/delta counters for this endpoint;
        ``terms_translated`` counts the ids that took the id maps'
        term-by-term slow path (0 per frame on a warm connection, and
        always 0 on a row endpoint)."""
        with self._lock:
            translated = 0
            if self.local is not None:
                translated = self._to_send.translated + self._to_local.translated
            return {
                "frames_encoded": self.frames_encoded,
                "frames_decoded": self.frames_decoded,
                "terms_shipped": self.terms_shipped,
                "terms_translated": translated,
            }

    # -- chunks <-> packed rows ------------------------------------------------

    def _pack(self, chunks: Sequence):
        """The rows of a chunk sequence, packed back to back: id columns
        gathered through the ``local → send`` map when every chunk is a
        block over ``local``, the row path otherwise."""
        chunks = [chunk for chunk in chunks if len(chunk)]
        local = self.local
        if local is not None and chunks and all(
            type(chunk) is ColumnBlock and chunk.dictionary is local
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
                return pack_columns([self._to_send(col) for col in columns])
        return pack_rows(chunk_rows(chunks), self.send.encode)

    def _unpack(self, packed, attrs: tuple[str, ...] | None = None):
        """One chunk from a packed row set: a block over ``local``
        (named *attrs* where the frame says, positionally otherwise), or
        a row list on a row endpoint and for :class:`RawRows`."""
        if self.local is None or isinstance(packed, RawRows) or not packed.count:
            return unpack_rows(packed, self.recv.decode)
        columns = tuple(self._to_local(col) for col in unpack_columns(packed))
        if attrs is None:
            attrs = _positional(len(columns))
        return ColumnBlock(attrs, columns, self.local)

    # -- encoding (outgoing) --------------------------------------------------

    def _frame(self, payload) -> tuple[ColumnarFrame, Callable[[], None]]:
        start = self._watermark
        frame = ColumnarFrame(payload, start, self.send.entries_from(start))
        new_len = len(self.send)
        self.frames_encoded += 1
        self.terms_shipped += len(frame.delta_terms)

        def commit() -> None:
            with self._lock:
                # Commits run in send order; max() keeps a late commit
                # from rolling the watermark back should a caller ever
                # violate that.
                self._watermark = max(self._watermark, new_len)

        return frame, commit

    def _pack_level(self, msg):
        """An ``ExecuteLevel`` with its chunk payloads (map ``inputs``
        partitions, reduce exchange chunks per tag) packed; no frame
        wrapping."""
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
        block by gather, a row list by rows); no frame wrapping."""
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

    def encode_execute_level(self, msg):
        """Pack an ``ExecuteLevel``; returns ``(frame, commit)`` where
        *commit* advances the delta watermark once the frame is sent."""
        with self._lock:
            return self._frame(self._pack_level(msg))

    def encode_execute_batch(self, msg):
        """Pack every level in an ``ExecuteBatch`` into one frame (one
        shared dictionary delta for the whole batch)."""
        with self._lock:
            items = tuple(
                (rid, self._pack_level(level)) for rid, level in msg.items
            )
            return self._frame(replace(msg, items=items))

    def encode_results(self, reply):
        """Pack a ``ResultsReply``; returns ``(frame, commit)``."""
        with self._lock:
            return self._frame(self._pack_results(reply))

    def encode_batch_results(self, reply):
        """Pack a ``BatchReply``'s per-request ``ResultsReply`` members
        (error members cross unpacked) into one frame."""
        with self._lock:
            replies = tuple(
                (
                    rid,
                    self._pack_results(sub)
                    if getattr(sub, "results", None) is not None
                    else sub,
                )
                for rid, sub in reply.replies
            )
            return self._frame(replace(reply, replies=replies))

    def encode_payload(self, msg):
        """Encode any frameable message — ``ExecuteLevel``,
        ``ExecuteBatch``, ``ResultsReply`` or ``BatchReply`` — picking
        the shape by its fields; returns ``(frame, commit)``."""
        if getattr(msg, "items", None) is not None:
            return self.encode_execute_batch(msg)
        if getattr(msg, "replies", None) is not None:
            return self.encode_batch_results(msg)
        if getattr(msg, "results", None) is not None:
            return self.encode_results(msg)
        return self.encode_execute_level(msg)

    # -- decoding (incoming) --------------------------------------------------

    def decode_frame(self, frame: ColumnarFrame):
        """Replay the frame's dictionary delta, then unpack its payload
        (an ``ExecuteLevel``, ``ExecuteBatch``, ``ResultsReply`` or
        ``BatchReply``) into the shapes the engine exchanges: a map
        input partition and a result chunk are one chunk each, a
        reducer's ``grouped`` is ``{tag: [chunk]}``."""
        with self._lock:
            self.recv.merge_entries(frame.delta_start, frame.delta_terms)
            self.frames_decoded += 1
            return self._decode_payload(frame.payload)

    def _decode_payload(self, payload):
        replies = getattr(payload, "replies", None)
        if replies is not None:  # BatchReply
            return replace(
                payload,
                replies=tuple(
                    (rid, self._decode_payload(sub)) for rid, sub in replies
                ),
            )
        items = getattr(payload, "items", None)
        if items is not None:  # ExecuteBatch
            return replace(
                payload,
                items=tuple(
                    (rid, self._decode_payload(level)) for rid, level in items
                ),
            )
        results = getattr(payload, "results", None)
        if results is not None:  # ResultsReply
            return replace(
                payload, results=[self._decode_result(r) for r in results]
            )
        phase = getattr(payload, "phase", None)
        if phase is None:  # e.g. an ErrorReply inside a BatchReply
            return payload
        unpack = self._unpack
        if phase == "map":
            inputs = {
                name: DistributedRelation(
                    attrs=packed.attrs,
                    partitions=[
                        unpack(part, packed.attrs) for part in packed.partitions
                    ],
                )
                for name, packed in payload.inputs.items()
            }
            return replace(payload, inputs=inputs)
        return replace(
            payload,
            tasks=tuple(
                (
                    spec,
                    partition,
                    {tag: [unpack(packed)] for tag, packed in grouped.items()},
                )
                for spec, partition, grouped in payload.tasks
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
