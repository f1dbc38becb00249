"""The columnar shard wire format.

Rows crossing the RPC boundary (map inputs, reduce exchange rows,
result payloads) are packed as dictionary-encoded id buffers instead of
pickled tuple lists.  The engine's chunks cross as rows: the frame
builders flatten them, this codec packs row lists and unpacks to row
lists (a map result's emits stay grouped per reduce partition: group
sizes beside one row buffer, no per-row partition column).

Each endpoint of a connection keeps two
dictionaries, both deterministically seeded from the shard's resident
:class:`StoreSnapshot` at prime time (node by node, file insertion
order, triple order — the snapshot is the same pickled object on both
ends, so the seeded ids agree by construction):

* ``send`` — grown by this endpoint as it encodes outgoing rows;
* ``recv`` — a replica of the peer's ``send``, maintained by replaying
  the dictionary delta each incoming frame carries.

A frame therefore ships only ids plus the delta of terms the peer's
replica doesn't already hold (snapshot-resident terms never cross the
wire, and any term crosses at most once per connection).  The sender
advances its delta watermark only after the frame is actually written,
so a frame lost to a transport failure merely re-ships its delta —
and :meth:`Dictionary.merge_entries` makes re-delivery idempotent.
A worker respawn re-primes the connection, resetting both ends.

Id buffers are little-ish endian *native* byte order — the wire only
ever spans processes on one machine (the workers are localhost
children), so no byte swapping is needed; each column is packed at the
narrowest of 1/2/4/8 bytes that holds its largest id.  Rows whose cells
are not all strings (never produced by the plan specs, but closure
tasks could) fall back to their pickled form via :class:`RawRows`.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.columnar.block import chunk_rows
from repro.mapreduce.hdfs import DistributedRelation
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


# -- packing ------------------------------------------------------------------


def _packable(rows: Sequence[tuple]) -> bool:
    """Rows id-encode only when rectangular with all-string cells (the
    plan specs guarantee this; closure-style tasks may not)."""
    if not rows:
        return True
    arity = len(rows[0])
    return all(
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
    the rows are ragged or any cell is not a string)."""
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


def pack_emits(shuffle: Sequence[tuple], encode: Callable[[str], int]) -> tuple:
    """A map task's shuffle output — ``(partition, tag, chunk)`` per
    reduce partition — as ``(groups, rows)``: the ``(partition, tag, row
    count)`` of every chunk, and all their rows back to back, packed
    once (blocks over one dictionary decode together, see
    :func:`~repro.columnar.block.chunk_rows`)."""
    groups = tuple((partition, tag, len(chunk)) for partition, tag, chunk in shuffle)
    rows = chunk_rows([chunk for _partition, _tag, chunk in shuffle])
    return groups, pack_rows(rows, encode)


def unpack_emits(packed: tuple, decode: Callable[[int], str]) -> list[tuple]:
    groups, rows = packed
    rows = unpack_rows(rows, decode)
    shuffle = []
    start = 0
    for partition, tag, count in groups:
        shuffle.append((partition, tag, rows[start : start + count]))
        start += count
    return shuffle


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

    Concurrency contract (the multiplexed transport encodes from many
    threads over one connection): the codec's own state — both
    dictionaries and the delta watermark — is guarded by an internal
    lock, so concurrent ``encode_*`` calls assign ids safely.  What the
    codec *cannot* enforce is frame ordering: the delta watermark
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

    def __init__(self, snapshot) -> None:
        self.send = _seed_dictionary(snapshot)
        self.recv = _seed_dictionary(snapshot)
        self._watermark = len(self.send)
        self._lock = threading.RLock()
        # Cumulative wire telemetry (guarded by _lock), surfaced via
        # stats() and the service's Prometheus exposition.
        self.frames_encoded = 0
        self.frames_decoded = 0
        self.terms_shipped = 0

    def stats(self) -> dict[str, int]:
        """Cumulative frame/delta counters for this endpoint."""
        with self._lock:
            return {
                "frames_encoded": self.frames_encoded,
                "frames_decoded": self.frames_decoded,
                "terms_shipped": self.terms_shipped,
            }

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
        """An ``ExecuteLevel`` with its row payloads (map ``inputs`` or
        reduce exchange rows) packed; no frame wrapping."""
        encode = self.send.encode
        if msg.phase == "map":
            inputs = {
                name: PackedRelation(
                    attrs=relation.attrs,
                    partitions=tuple(
                        pack_rows(part, encode) for part in relation.partitions
                    ),
                )
                for name, relation in msg.inputs.items()
            }
            return replace(msg, inputs=inputs)
        return replace(
            msg,
            tasks=tuple(
                (
                    job,
                    partition,
                    {
                        tag: pack_rows(rows, encode)
                        for tag, rows in grouped.items()
                    },
                )
                for job, partition, grouped in msg.tasks
            ),
        )

    def _pack_results(self, reply):
        """A ``ResultsReply`` with packed results: map results are
        ``(emits, direct, metrics)`` triples, reduce results
        ``(rows, metrics)`` pairs, their chunks flattened to rows here
        (whatever a task returned — row list or id block — the peer gets
        row lists back); no frame wrapping."""
        encode = self.send.encode
        packed = []
        for result in reply.results:
            if len(result) == 3:
                emits, direct, metrics = result
                packed.append(
                    PackedMapResult(
                        emits=pack_emits(emits, encode),
                        direct=pack_rows(list(direct), encode),
                        metrics=metrics,
                    )
                )
            else:
                rows, metrics = result
                packed.append(
                    PackedReduceResult(
                        rows=pack_rows(list(rows), encode), metrics=metrics
                    )
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
        ``BatchReply``)."""
        with self._lock:
            self.recv.merge_entries(frame.delta_start, frame.delta_terms)
            self.frames_decoded += 1
            return self._decode_payload(frame.payload, self.recv.decode)

    def _decode_payload(self, payload, decode):
        replies = getattr(payload, "replies", None)
        if replies is not None:  # BatchReply
            return replace(
                payload,
                replies=tuple(
                    (rid, self._decode_payload(sub, decode))
                    for rid, sub in replies
                ),
            )
        items = getattr(payload, "items", None)
        if items is not None:  # ExecuteBatch
            return replace(
                payload,
                items=tuple(
                    (rid, self._decode_payload(level, decode))
                    for rid, level in items
                ),
            )
        results = getattr(payload, "results", None)
        if results is not None:  # ResultsReply
            return replace(
                payload,
                results=[self._decode_result(r, decode) for r in results],
            )
        phase = getattr(payload, "phase", None)
        if phase is None:  # e.g. an ErrorReply inside a BatchReply
            return payload
        if phase == "map":
            inputs = {
                name: DistributedRelation(
                    attrs=packed.attrs,
                    partitions=[
                        unpack_rows(part, decode) for part in packed.partitions
                    ],
                )
                for name, packed in payload.inputs.items()
            }
            return replace(payload, inputs=inputs)
        return replace(
            payload,
            tasks=tuple(
                (
                    job,
                    partition,
                    {
                        tag: unpack_rows(packed, decode)
                        for tag, packed in grouped.items()
                    },
                )
                for job, partition, grouped in payload.tasks
            ),
        )

    @staticmethod
    def _decode_result(result, decode):
        if isinstance(result, PackedMapResult):
            return (
                unpack_emits(result.emits, decode),
                unpack_rows(result.direct, decode),
                result.metrics,
            )
        return unpack_rows(result.rows, decode), result.metrics
