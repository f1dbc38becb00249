"""The shard worker, its frames, and the two clients that carry them.

A shard is one :class:`_WorkerState`, whichever transport reaches it —
what a §5 node is: it holds, resident,

* its shard's :class:`~repro.partitioning.triple_partitioner
  .StoreSnapshot` — the §5.1 partition files of the nodes it owns —
  kept current by one frame, :class:`Sync`, that takes it from the
  view it holds to the view the driver wants: the nodes it lacks, the
  nodes it drops, the dictionary suffix and the epoch, in one step;
* one engine, the id-space one, that runs every level it is sent — no
  pool of its own: the shards are the parallelism;
* its topology epoch and its counters.

And **nothing about plans**: a worker is stateless between levels, the
way a Hadoop node keeps only its partition files and is handed a job's
task code with the job.  A query reaches it as one
:class:`ExecuteLevel` per level and phase per shard, carrying the task
specs themselves — the very ``ChainMapSpec`` / ``MapOnlySpec`` /
``StarReduceSpec`` objects the engine handed the router — plus the
exchange chunks; the worker runs them as received.
:meth:`_WorkerState.handle` is the one place a frame changes or reads
worker state, whichever client delivered it: :class:`LocalShardClient`
(in process: frames cross as objects, blocks by reference) or
:class:`ShardWorkerClient` (rpc: the worker is a **server process** — a
stdlib :class:`multiprocessing.connection.Listener` on a localhost
socket, HMAC-authenticated — whose loop, :func:`_worker_main`, keeps
only the socket).

Over the socket both ends number terms as the store does: a worker's
first :class:`Sync` carries the store's dictionary, every later one the
suffix its replica misses, so on the columnar wire (fixed per
connection when the worker is spawned) a level or results frame
crosses as one pickle plus one id buffer holding all its blocks' ids,
translated nowhere, and neither the driver nor a worker decodes a term
to move it.  Message frames are pickled
dataclasses with an explicit size cap; oversized frames, unknown
message types, specs that do not pickle and ids no store numbered
surface as typed errors, never hangs or wrong answers.

The connection is **multiplexed**: every frame travels in a
:class:`Request`/:class:`Reply` envelope carrying a request id.  The
worker's main thread is the connection's single reader; it dispatches
``ExecuteLevel``/:class:`ExecuteBatch` frames onto a small thread pool
(``pipeline`` wide) so levels of concurrent queries overlap, while
state-mutating frames serialize behind the worker's readers-writer
state lock.  Driver-side, a per-connection reader thread matches
replies to waiters by id, so :class:`ShardWorkerClient` holds no lock
across a round trip.  Retries are safe because workers are stateless
between levels: a level frame that arrives twice simply runs twice, and
the reader drops the reply no waiter owns.

The driver side — routing, epochs, respawn, migrations — is
:class:`repro.cluster.router.ShardRouter`'s, for both clients.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing.connection import Client, Listener
from types import SimpleNamespace
from typing import NamedTuple, Sequence

from repro.analysis.locks import ReadWriteLock, checked
from repro.mapreduce.backends import (
    DEFAULT_RPC_PIPELINE,
    ColumnarBackend,
    TaskBatch,
    TaskInvocation,
    task_timing,
)
from repro.columnar.block import ColumnBlock
from repro.columnar.engine import task_groups
from repro.columnar.wire import WireCodec
from repro.mapreduce.hdfs import HDFS, DistributedRelation
from repro.mapreduce.jobs import TaskContext
from repro.obs.trace import SpanAccumulator
from repro.partitioning.layout import PLACEMENTS
from repro.partitioning.triple_partitioner import StoreSnapshot

#: Hard cap on one pickled message frame (request or reply).  Large
#: enough for any realistic exchange payload, small enough that a
#: runaway frame fails typed instead of exhausting memory.
DEFAULT_MAX_FRAME_BYTES = 128 * 1024 * 1024

#: Seconds to wait for a spawned worker to report its listening address.
DEFAULT_SPAWN_TIMEOUT = 60.0

#: Task spans a traced :class:`ExecuteLevel` ships back per level — one
#: per task group the engine ran; further ones are summarized by a
#: ``task_spans_dropped`` attribute on the execute span (span records
#: travel over the wire).
MAX_TASK_SPANS = 16


# -- typed errors --------------------------------------------------------------


class RpcError(RuntimeError):
    """Base class of every typed RPC-layer error."""


class RpcProtocolError(RpcError):
    """An undecodable frame or unknown message type reached a worker,
    or a frame could not be encoded at all (a task spec that does not
    pickle, a term or id the store never numbered: rejected by the
    sending end, before a byte is sent)."""


class FrameTooLarge(RpcError):
    """A message frame exceeded ``max_frame_bytes``."""


class WorkerStateError(RpcError):
    """A request arrived in a state the worker cannot serve (e.g. an
    :class:`ExecuteLevel` before any :class:`Sync`, or a :class:`Sync`
    whose base the worker does not hold)."""


class WorkerSpawnError(RpcError):
    """A shard worker process could not be started or contacted."""


class StaleEpoch(RpcError):
    """An execute frame was stamped with a topology epoch the worker is
    not at: the owner table moved underneath the query.  The driver
    handles it by re-routing the frame's tasks against the current
    table (:meth:`repro.cluster.router.ShardRouter._reroute_level`), so a query that
    started before a rebalance still answers correctly after it.
    """

    def __init__(self, shard: int, frame_epoch: int, worker_epoch: int) -> None:
        super().__init__(
            f"shard {shard} is at topology epoch {worker_epoch}, "
            f"frame stamped {frame_epoch}"
        )
        self.shard = shard
        self.frame_epoch = frame_epoch
        self.worker_epoch = worker_epoch

    def __reduce__(self):
        # Multi-argument constructor breaks default exception pickling;
        # errors in this module must survive a pickled hop.
        return (StaleEpoch, (self.shard, self.frame_epoch, self.worker_epoch))


class ShardUnavailable(RuntimeError):
    """A shard worker failed, was respawned once, and failed again.

    The one-retry budget is per request: a crashed worker is restarted
    transparently (its snapshot synced afresh) and the failed request resent
    exactly once.  Sustained failure surfaces as
    this typed error — counted in ``snapshot_stats().shard_failures``
    when raised through the query service — rather than a hang.
    """

    def __init__(self, shard: int, message: str) -> None:
        super().__init__(f"shard {shard} unavailable: {message}")
        self.shard = shard
        self.message = message

    def __reduce__(self):
        # The two-argument constructor breaks default exception
        # pickling; errors in this module must survive a pickled hop.
        return (ShardUnavailable, (self.shard, self.message))


#: Connection-level failures that mean "the worker process is gone"
#: (as opposed to a typed error reply, which means the *request* failed
#: on a live worker).  BrokenPipeError/ConnectionError are OSErrors.
_TRANSPORT_ERRORS = (EOFError, OSError)


# -- message frames ------------------------------------------------------------


@dataclass(frozen=True)
class Sync:
    """Bring the worker from the state it holds to one shard view: the
    one frame that changes what a worker holds (:func:`sync_frame`
    builds it).

    ``base`` is the snapshot token the frame applies to — ``None`` for a
    full sync, which applies to any worker — and ``token`` the view's.
    ``files`` maps each node the worker lacks, or holds at an older node
    version, to its partition file map; ``drops`` lists the nodes it no
    longer owns.  ``terms`` is the store dictionary from id
    ``terms_from`` on; a full sync carries the dictionary itself, which
    pickles as its term list (a replica) and in process stays the
    store's own.  ``epoch`` is the owner-table version the view was
    taken under: the worker adopts it with the data, so a level frame
    routed under the old table meets :class:`StaleEpoch`, never a node
    the worker has dropped.

    Idempotent: a worker already at ``token`` and ``epoch`` merges the
    suffix (terms it holds merge as no-ops) and changes nothing else,
    and a frame older than what the worker holds (an earlier epoch, or
    older node versions within its epoch) changes nothing, so duplicate
    and late frames are harmless.  Any other base, or a suffix that
    gaps or conflicts with the replica, is a typed
    :class:`WorkerStateError` that leaves the worker as it was: the
    driver answers it with a full sync.
    """

    base: tuple | None
    token: tuple
    files: dict[int, dict[str, tuple]] = field(default_factory=dict)
    drops: tuple[int, ...] = ()
    terms_from: int = 0
    terms: Sequence[str] = ()
    epoch: int = 0


def _node_versions(token) -> dict | None:
    """``{node: version}`` of a shard view token — ``(store uid, nodes,
    versions)``, :meth:`~repro.cluster.sharded_store.ShardedStore
    .snapshot` — or None for any other token."""
    if token is None or len(token) != 3 or type(token[1]) is not tuple:
        return None
    return dict(zip(token[1], token[2]))


def sync_frame(held: tuple | None, view: StoreSnapshot, epoch: int) -> Sync:
    """The :class:`Sync` taking a worker to *view* at *epoch* from
    *held*, the driver's record of it — the ``(token, epoch)`` its last
    sync acknowledged and the dictionary length synced, or None.

    A delta when both tokens are views of one store: the file maps of
    the nodes whose version the held token lacks, the nodes it names
    that the view does not, and the dictionary past the held length.
    Otherwise a full sync from empty."""
    old = None if held is None else _node_versions(held[0])
    new = _node_versions(view.token)
    if old is None or new is None or held[0][0] != view.token[0]:
        files = {node: f for node, f in enumerate(view.files) if f}
        return Sync(None, view.token, files, (), 0, view.dictionary, epoch)
    return Sync(
        base=held[0],
        token=view.token,
        files={n: view.files[n] for n, v in new.items() if old.get(n) != v},
        drops=tuple(n for n in old if n not in new),
        terms_from=held[2],
        terms=view.dictionary.entries_from(held[2]),
        epoch=epoch,
    )


@dataclass(frozen=True)
class ExecuteLevel:
    """Run one scheduling level's tasks owned by this shard.

    The frame carries the tasks themselves, not their names.
    ``phase="map"``: ``tasks`` are the map task specs (each knows its
    node and chain) and ``inputs`` carries the shard-local slices of
    shuffled intermediates the level's map chains read.
    ``phase="reduce"``: ``tasks`` are ``(reduce_spec, partition,
    grouped)`` — the cross-shard exchange, ``{tag: chunks}`` as the
    engine grouped it: about one block per map task group that sent
    the partition rows.  Chunks travel as they are: on the columnar
    wire the whole frame is one pickle whose blocks are references into
    one id buffer, on the pickle wire a block pickles as its rows.
    Requests are self-contained (the worker
    keeps nothing about a plan or a query between levels), which is
    what makes respawn-and-retry safe.

    ``trace_ctx`` is the driver's picklable ``(trace_id, span_id)``
    tracing context (:func:`repro.obs.trace.trace_ctx`); None — the
    default, and the wire cost when tracing is off — disables all
    worker-side span accumulation for the frame.

    ``epoch`` stamps the owner-table version the driver routed this
    level under; a worker at another epoch rejects the frame with
    :class:`StaleEpoch` and the driver re-routes against the current
    table, so a concurrent rebalance can never misplace a level.
    """

    level: int
    phase: str
    tasks: tuple
    inputs: dict[str, DistributedRelation] = field(default_factory=dict)
    trace_ctx: tuple | None = None
    epoch: int = 0


@dataclass(frozen=True)
class ExecuteBatch:
    """Several queries' :class:`ExecuteLevel` s for one shard, coalesced
    into a single frame.

    ``items`` pairs each level with the sub-request id its reply
    demultiplexes under in the :class:`BatchReply`.  The batch shares
    one encode/send/recv across its members; each member executes
    independently worker-side, so one failing level yields a per-item
    :class:`ErrorReply`, never poisons its neighbours.
    """

    items: tuple = ()


@dataclass(frozen=True)
class BatchReply:
    """Per-item replies of one :class:`ExecuteBatch`: ``(sub_request_id,
    ResultsReply | ErrorReply)`` pairs, in item order."""

    replies: tuple = ()


@dataclass(frozen=True)
class Stats:
    """Read the worker's counters (idempotent)."""


@dataclass(frozen=True)
class StatsReply:
    shard: int
    pid: int
    snapshot_token: tuple | None
    tasks_run: int
    levels_run: int
    #: syncs that changed the worker's partition files
    primes: int
    bytes_received: int
    #: dispatch-pool size: how many levels may execute concurrently
    pipeline: int = 1
    #: levels currently executing / accepted but not yet started
    inflight: int = 0
    queue_depth: int = 0
    #: high-water mark of ``inflight`` over the worker's life
    peak_inflight: int = 0
    #: ExecuteBatch frames served
    batches: int = 0
    #: length of the worker's replica of the store dictionary
    terms: int = 0


@dataclass(frozen=True)
class Shutdown:
    """Stop serving and exit (replied to before the worker exits)."""


@dataclass(frozen=True)
class OkReply:
    value: object = None


@dataclass(frozen=True)
class ResultsReply:
    """Task results of one :class:`ExecuteLevel`, in task order.

    ``spans`` carries the worker's span records for a traced frame
    (:class:`repro.obs.trace.SpanAccumulator` tuples, offsets relative
    to the worker's frame receipt); empty when tracing is off.
    """

    results: list
    spans: tuple = ()


@dataclass(frozen=True)
class ErrorReply:
    """A request failed on a live worker; carries the typed exception."""

    error: BaseException
    kind: str = ""


@dataclass(frozen=True)
class Request:
    """The envelope every driver→worker frame travels in: a connection-
    unique ``id`` the reply is matched back under, plus the message
    itself — on the columnar wire, a level or batch as the bytes of its
    codec frame (:meth:`~repro.columnar.wire.WireCodec.dumps`)."""

    id: int
    msg: object


@dataclass(frozen=True)
class Reply:
    """The worker→driver envelope.  ``id`` echoes the request's; the
    reserved id ``-1`` is a connection-level broadcast (the worker could
    not attribute the failure to a request — e.g. an undecodable or
    oversized incoming frame), which fails every in-flight waiter.

    On the columnar wire a results payload is the bytes of its codec
    frame; ``encode_s`` reports the worker's time to frame it
    (:meth:`~repro.columnar.wire.WireCodec.dumps`).  It lives on the
    envelope because a span *inside* the payload cannot time the
    encoding of that same payload; the envelope pickle itself stays
    untimed (≈0 on the pickle wire), which is documented behaviour."""

    id: int
    payload: object
    encode_s: float = 0.0


#: All frame types, for protocol round-trip tests.
MESSAGE_TYPES = (
    Sync,
    ExecuteLevel,
    ExecuteBatch,
    Stats,
    StatsReply,
    Shutdown,
    OkReply,
    ResultsReply,
    BatchReply,
    ErrorReply,
    Request,
    Reply,
)

#: The worker dispatch table (FRAME001): frames the worker main loop or
#: :meth:`_WorkerState.handle` accepts.  A frame added to :data:`MESSAGE_TYPES`
#: without an entry here (or in :data:`CLIENT_HANDLED`) is a lint error,
#: and the main loop rejects frames outside this table with a typed
#: protocol error instead of an arbitrary failure mid-dispatch.
WORKER_HANDLED = (
    Sync,
    ExecuteLevel,
    ExecuteBatch,
    Stats,
    Shutdown,
    Request,
)

#: Frames only ever decoded on the driver side (replies + envelope).
CLIENT_HANDLED = (
    OkReply,
    ResultsReply,
    BatchReply,
    StatsReply,
    ErrorReply,
    Reply,
)


def _no_delay(conn) -> None:
    """Turn Nagle's algorithm off on a connection's TCP socket.

    ``multiprocessing.connection`` writes a frame over 16 KiB as two
    sends, header then body; with Nagle on, the body waits for the
    header's ACK, which the peer delays (~40 ms on Linux) — one stall
    per large frame, in either direction.
    """
    sock = socket.fromfd(conn.fileno(), socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    finally:
        sock.close()  # the duplicate descriptor; the option stays set


# -- the worker process --------------------------------------------------------


class _WorkerState:
    """Everything resident in one shard worker: the snapshot (and with
    it the store's dictionary — over rpc a replica of it), the one
    engine that runs tasks against it, the topology epoch and
    the counters.  The same class serves in a shard server process and,
    behind :class:`LocalShardClient`, in the driver.

    Levels may execute on several threads at once (a server's dispatch
    pool, concurrent queries in process): resident-state swaps
    serialize behind :attr:`rwlock` and every counter behind the stats
    mutex."""

    def __init__(
        self,
        shard: int,
        num_nodes: int,
        pipeline: int = 1,
        wire_format: str | None = "columnar",
    ) -> None:
        self.shard = shard
        self.num_nodes = num_nodes
        self.pipeline = pipeline
        #: how level frames cross this worker's connection (``None`` in
        #: process: no framing at all)
        self.wire_format = wire_format
        self.backend = ColumnarBackend()
        # snapshot/wire/epoch are resident-state: swapped (the dictionary
        # grown) only by a Sync, under rwlock.write(), and read during
        # level execution under rwlock.read() — the RW lock, not a
        # mutex, because reads are long (whole levels) and concurrent,
        # so a state swap never interleaves with a running level.
        self.snapshot: StoreSnapshot | None = None
        #: columnar wire codec of this connection; None = pickle wire
        self.wire: WireCodec | None = None
        #: topology epoch (owner-table version); never goes back
        self.epoch = 0
        self.rwlock = ReadWriteLock("_WorkerState.rwlock")
        self._stats_lock = checked(threading.Lock(), "_WorkerState._stats_lock")
        self.tasks_run = 0  # guarded-by: _stats_lock
        self.levels_run = 0  # guarded-by: _stats_lock
        self.primes = 0  # guarded-by: _stats_lock
        self.bytes_received = 0  # guarded-by: _stats_lock
        self.queued = 0  # guarded-by: _stats_lock
        self.inflight = 0  # guarded-by: _stats_lock
        self.peak_inflight = 0  # guarded-by: _stats_lock
        self.batches = 0  # guarded-by: _stats_lock

    # -- telemetry gauges --------------------------------------------------

    def note_bytes(self, n: int) -> None:
        with self._stats_lock:
            self.bytes_received += n

    def note_queued(self, n: int) -> None:
        with self._stats_lock:
            self.queued += n

    def note_batch(self) -> None:
        with self._stats_lock:
            self.batches += 1

    def idle(self) -> bool:
        """True when nothing executes or waits besides the one request
        the caller just queued (the inline fast-path predicate)."""
        with self._stats_lock:
            return self.queued <= 1 and self.inflight == 0

    # -- the one place a frame meets worker state --------------------------

    @property
    def token(self) -> tuple | None:
        return None if self.snapshot is None else self.snapshot.token

    def handle(
        self,
        msg: object,
        received: float | None = None,
        decoded: float | None = None,
    ):
        """Serve one decoded request frame (the socket loop and
        :class:`LocalShardClient` both call this); returns its reply,
        raises a typed error.  A :class:`Sync` runs under the write side
        of :attr:`rwlock`, levels and stats under the read side.  A
        traced level's spans are relative to *received*, the
        frame-receipt instant, its ``decode`` ending at *decoded*
        (default: now).
        """
        if isinstance(msg, ExecuteLevel):
            return self._execute(msg, received, decoded)
        if isinstance(msg, Sync):
            with self.rwlock.write():
                return self._sync(msg)
        if isinstance(msg, Stats):
            with self.rwlock.read():
                return self.stats()
        raise RpcProtocolError(f"unknown message type {type(msg).__name__!r}")

    def _sync(self, msg: Sync) -> OkReply:
        """Apply one :class:`Sync` (see there), under the write lock;
        the reply is the ``(token, epoch)`` the worker now holds."""
        if self._older(msg):
            return self._held()  # a late frame changes nothing
        full = msg.base is None
        current = not full and (self.token, self.epoch) == (msg.token, msg.epoch)
        if not (full or current or msg.base == self.token):
            raise WorkerStateError(
                f"shard {self.shard} has no resident snapshot to apply a delta to"
                if self.snapshot is None
                else f"shard {self.shard} holds {self.token}, "
                f"the sync applies to {msg.base}"
            )
        if full:
            dictionary = msg.terms
            files = [{} for _ in range(self.num_nodes)]
        else:
            dictionary = self.snapshot.dictionary
            try:
                dictionary.merge_entries(msg.terms_from, msg.terms)
            except ValueError as exc:
                raise WorkerStateError(f"shard {self.shard}: {exc}") from None
            files = list(self.snapshot.files)
        if not current:
            for node in msg.drops:
                files[node] = {}
            for node, node_files in msg.files.items():
                files[node] = node_files
            self.snapshot = StoreSnapshot(
                num_nodes=self.num_nodes,
                replicas=PLACEMENTS,
                files=tuple(files),
                token=msg.token,
                dictionary=dictionary,
            )
            self.epoch = msg.epoch
            if full or msg.files or msg.drops:
                with self._stats_lock:
                    self.primes += 1
        # The codec over the replica as the driver just synced it: no
        # id at or past the synced length ever ships.
        synced = len(dictionary) if full else msg.terms_from + len(msg.terms)
        self.wire = (
            WireCodec(self.snapshot, limit=synced)
            if self.wire_format == "columnar"
            else None
        )
        return self._held()

    def _older(self, msg: Sync) -> bool:
        """Whether *msg* would take the worker back: to an earlier
        epoch, or within its epoch to older versions of the nodes it
        holds.  Views only move forward, so such a frame is one that
        arrived late, and the worker's state never goes back."""
        if msg.epoch != self.epoch:
            return msg.epoch < self.epoch
        held, token = self.token, msg.token
        return (
            _node_versions(held) is not None
            and _node_versions(token) is not None
            and held[:2] == token[:2]
            and held[2] != token[2]
            and all(new <= old for new, old in zip(token[2], held[2]))
        )

    def _held(self) -> OkReply:
        return OkReply((self.token, self.epoch))

    def _execute(
        self,
        msg: ExecuteLevel,
        received: float | None,
        decoded: float | None,
    ) -> "ResultsReply":
        """One level under the read lock, counted in ``inflight``.

        A traced frame's spans share their boundary instants — queue
        wait ends where the state-lock wait starts, which ends where
        ``execute`` starts — so a pause between two of them (a GIL
        hand-off, a collection triggered by recording a span) lands in
        a span instead of between them."""
        acc = None
        with self._stats_lock:
            self.inflight += 1
            self.peak_inflight = max(self.peak_inflight, self.inflight)
        try:
            lock_t0 = time.perf_counter()
            if msg.trace_ctx is not None:
                received = lock_t0 if received is None else received
                decoded = received if decoded is None else decoded
                acc = SpanAccumulator(received)
                acc.record("decode", received, decoded)
                acc.record("queue_wait", decoded, lock_t0)
            with self.rwlock.read():
                locked = time.perf_counter()
                if acc is not None:
                    acc.record("state_lock_wait", lock_t0, locked)
                return self.execute_level(msg, acc, start=locked)
        finally:
            with self._stats_lock:
                self.inflight -= 1

    # -- request handlers --------------------------------------------------

    def execute_level(
        self,
        msg: ExecuteLevel,
        acc: SpanAccumulator | None = None,
        start: float | None = None,
    ) -> ResultsReply:
        """Run one level frame's tasks as received; a traced frame
        (*acc* given) also ships back ``execute`` / per-task span
        records, the ``execute`` span from *start* (by default now)."""
        if start is None:
            start = time.perf_counter()
        if msg.epoch != self.epoch:
            raise StaleEpoch(self.shard, msg.epoch, self.epoch)
        invocations, ctx = self._invocations(msg)
        if acc is None:
            results = self.backend.run(invocations, ctx)
        else:
            with task_timing() as tasks:
                results = self.backend.run(invocations, ctx)
            execute_ix = acc.record(
                "execute", start, time.perf_counter(), tasks=len(invocations)
            )
            # Ship at most a handful of task spans, one per task group
            # (of ``tasks=k``); the records travel back over the wire.
            for task_ix, (t0, t1, k) in enumerate(tasks[:MAX_TASK_SPANS]):
                acc.record("task", t0, t1, parent=execute_ix, index=task_ix, tasks=k)
            if len(tasks) > MAX_TASK_SPANS:
                acc.records[execute_ix][4]["task_spans_dropped"] = (
                    len(tasks) - MAX_TASK_SPANS
                )
        with self._stats_lock:
            self.tasks_run += len(invocations)
            self.levels_run += 1
        return ResultsReply(
            results=list(results), spans=() if acc is None else acc.packed()
        )

    def _invocations(self, msg: ExecuteLevel) -> tuple[TaskBatch, TaskContext]:
        """The frame's tasks as a batch grouped for the columnar engine
        (a frame carries specs, not their groups), and its context."""
        if msg.phase == "map":
            if self.snapshot is None:
                raise WorkerStateError(
                    f"shard {self.shard} has no snapshot synced"
                )
            ctx = TaskContext(
                num_nodes=self.num_nodes,
                store=self.snapshot,
                hdfs=HDFS(num_nodes=self.num_nodes, files=dict(msg.inputs)),
            )
            invocations = [
                TaskInvocation(spec, (), spec.node, "map", msg.level)
                for spec in msg.tasks
            ]
        elif msg.phase == "reduce":
            ctx = TaskContext(num_nodes=self.num_nodes, store=self.snapshot)
            nodes = self.num_nodes
            invocations = [
                TaskInvocation(spec, (part, grouped), part % nodes, "reduce", msg.level)
                for spec, part, grouped in msg.tasks
            ]
        else:
            raise RpcProtocolError(f"unknown ExecuteLevel phase {msg.phase!r}")
        groups = task_groups([inv.spec for inv in invocations])
        return TaskBatch(tuple(invocations), groups), ctx

    def stats(self) -> StatsReply:
        terms = 0 if self.snapshot is None else len(self.snapshot.dictionary)
        with self._stats_lock:
            return StatsReply(
                shard=self.shard,
                pid=os.getpid(),
                snapshot_token=self.token,
                tasks_run=self.tasks_run,
                levels_run=self.levels_run,
                primes=self.primes,
                bytes_received=self.bytes_received,
                pipeline=self.pipeline,
                inflight=self.inflight,
                queue_depth=self.queued,
                peak_inflight=self.peak_inflight,
                batches=self.batches,
                terms=terms,
            )

    def close(self) -> None:
        try:
            self.backend.close()
        except Exception:
            pass


def _check_row_terms(reply, dictionary) -> None:
    """Refuse a results frame naming a term the store never numbered.

    Plan tasks return blocks, which the wire ships as ids (a worker's
    codec refuses any id past its synced ``limit``); a row list — a
    closure task's output — crosses as its rows, so its string cells
    are looked up here instead, and one the replica does not hold fails
    the reply typed rather than reaching the driver as a term of no
    store."""
    replies = getattr(reply, "replies", None)
    for sub in [reply] if replies is None else [r for _rid, r in replies]:
        for result in getattr(sub, "results", ()):
            if len(result) == 3:
                emits, direct, _metrics = result
                chunks = [chunk for _p, _tag, chunk in emits] + [direct]
            else:
                chunks = [result[0]]
            for chunk in chunks:
                if isinstance(chunk, ColumnBlock):
                    continue
                for row in chunk:
                    for term in row:
                        if type(term) is str and term not in dictionary:
                            raise RpcProtocolError(
                                f"{term!r} is a term the store never numbered"
                            )


def _as_error_reply(exc: BaseException) -> ErrorReply:
    return ErrorReply(error=exc, kind=type(exc).__name__)


def _reply_payload(rid: int, reply, encode_s: float = 0.0) -> bytes:
    """Pickle one :class:`Reply` envelope, degrading to a string-only
    error when the payload itself does not pickle."""
    try:
        return pickle.dumps(Reply(rid, reply, encode_s))
    except Exception as exc:
        source = reply.error if isinstance(reply, ErrorReply) else exc
        return pickle.dumps(
            Reply(
                rid,
                ErrorReply(
                    error=RpcError(f"{type(source).__name__}: {source}"),
                    kind=type(source).__name__,
                ),
            )
        )


class _BatchAggregate:
    """Collects one :class:`ExecuteBatch`'s per-item replies as pool
    tasks finish; the task completing the batch sends the reply."""

    def __init__(self, rid: int, count: int) -> None:
        self.rid = rid
        self.replies: list = [None] * count
        self._remaining = count
        self._lock = checked(threading.Lock(), "_BatchAggregate._lock")

    def finish(self, index: int, sub_rid: int, reply) -> bool:
        with self._lock:
            self.replies[index] = (sub_rid, reply)
            self._remaining -= 1
            return self._remaining == 0


def _worker_main(
    channel,
    shard: int,
    num_nodes: int,
    max_frame_bytes: int,
    authkey: bytes,
    pipeline: int = 1,
    wire_format: str = "columnar",
) -> None:
    """Entry point of a shard server process; *wire_format* is how
    level frames cross its connection.

    Binds a localhost listener, reports the bound address back through
    *channel*, then serves its single router connection until Shutdown,
    EOF (driver died) or an unrecoverable frame error.

    The loop is accept-dispatch: the main thread is the connection's
    only reader — it decodes frames in arrival order and hands
    ``ExecuteLevel`` / ``ExecuteBatch`` work to a dispatch pool of up
    to *pipeline* threads, so levels of concurrent queries overlap.
    Every other frame is served inline.  What a frame does to the
    worker's state is :meth:`_WorkerState.handle`'s; this loop keeps
    only the socket: receive and decode, the pool, and the replies, which
    carry the request id of their envelope and are encoded by the thread
    that finished them (the send lock covers only the write, since
    nothing orders the encodings).
    """
    listener = Listener(("127.0.0.1", 0), authkey=bytes(authkey))
    try:
        channel.send(listener.address)
    finally:
        channel.close()
    concurrency = max(1, pipeline)
    state = _WorkerState(
        shard, num_nodes, pipeline=concurrency, wire_format=wire_format
    )
    conn = listener.accept()
    _no_delay(conn)
    send_lock = checked(threading.Lock(), "worker.send_lock")
    pool = (
        ThreadPoolExecutor(
            max_workers=concurrency,
            thread_name_prefix=f"repro-shard{shard}-exec",
        )
        if concurrency > 1
        else None
    )
    def send_error(rid: int, exc: BaseException) -> None:
        with send_lock:
            try:
                conn.send_bytes(_reply_payload(rid, _as_error_reply(exc)))
            except Exception:
                pass

    def send_reply(rid: int, reply) -> None:
        """Frame (on the columnar wire), envelope, cap-check and send
        one reply (dropped when the connection is gone).  A reply that
        does not frame — a term or id the store never numbered — goes
        out as a typed protocol error instead."""
        out, encode_s = reply, 0.0
        wire = state.wire
        if wire is not None and isinstance(reply, (ResultsReply, BatchReply)):
            t0 = time.perf_counter()
            try:
                _check_row_terms(reply, wire.dictionary)
                out = wire.dumps(reply)
                encode_s = time.perf_counter() - t0
            except Exception as exc:
                out = _as_error_reply(
                    RpcProtocolError(
                        f"shard {shard} reply does not encode: {exc!r}"
                    )
                )
        payload = _reply_payload(rid, out, encode_s)
        if len(payload) > max_frame_bytes:
            payload = _reply_payload(
                rid,
                ErrorReply(
                    error=FrameTooLarge(
                        f"reply frame of {len(payload)} bytes exceeds "
                        f"the {max_frame_bytes}-byte cap"
                    ),
                    kind="FrameTooLarge",
                ),
            )
        with send_lock:
            try:
                conn.send_bytes(payload)
            except Exception:
                return

    def run_item(level: ExecuteLevel, received: float, decoded: float):
        """Execute one level; errors become typed per-item replies,
        never thread deaths.  *received* is the frame-receipt instant —
        the worker-side t0 every traced span offset is relative to — and
        *decoded* the instant the recv thread had the frame unpickled
        and unpacked (queue wait = decoded to start)."""
        state.note_queued(-1)
        try:
            return state.handle(level, received, decoded)
        except BaseException as exc:
            return _as_error_reply(exc)

    def run_level(
        rid: int, msg: ExecuteLevel, received: float, decoded: float
    ) -> None:
        send_reply(rid, run_item(msg, received, decoded))

    def run_batch_item(
        agg: _BatchAggregate,
        index: int,
        sub_rid: int,
        level,
        received: float,
        decoded: float,
    ) -> None:
        if agg.finish(index, sub_rid, run_item(level, received, decoded)):
            send_reply(agg.rid, BatchReply(replies=tuple(agg.replies)))

    def run_batch(
        rid: int, msg: ExecuteBatch, received: float, decoded: float
    ) -> None:
        state.note_batch()
        items = tuple(msg.items)
        if not items:
            send_reply(rid, BatchReply(replies=()))
            return
        if pool is None:
            replies = tuple(
                (sub_rid, run_item(level, received, decoded))
                for sub_rid, level in items
            )
            send_reply(rid, BatchReply(replies=replies))
            return
        # Items are dispatched as sibling pool tasks (never nested
        # submissions, which could deadlock a full pool); the last one
        # to finish sends the combined reply.
        agg = _BatchAggregate(rid, len(items))
        for index, (sub_rid, level) in enumerate(items):
            pool.submit(
                run_batch_item, agg, index, sub_rid, level, received, decoded
            )

    try:
        while True:
            try:
                data = conn.recv_bytes(max_frame_bytes)
            except EOFError:
                break
            except OSError:
                # Oversized frame (recv_bytes over maxlength) or a broken
                # pipe; the inbound stream is unusable either way — the
                # failure cannot be attributed to a request id, so
                # broadcast it, then stop serving.
                send_error(
                    -1,
                    FrameTooLarge(
                        f"request frame exceeded {max_frame_bytes} "
                        "bytes (or the connection broke mid-frame)"
                    ),
                )
                break
            received = time.perf_counter()
            state.note_bytes(len(data))
            try:
                envelope = pickle.loads(data)
            except Exception as exc:
                send_error(
                    -1, RpcProtocolError(f"undecodable frame: {exc!r}")
                )
                continue
            if not isinstance(envelope, Request):
                send_error(
                    -1,
                    RpcProtocolError(
                        "expected a Request envelope, got "
                        f"{type(envelope).__name__!r}"
                    ),
                )
                continue
            rid, msg = envelope.id, envelope.msg
            if type(msg) is bytes:  # a level or batch on the columnar wire
                if state.wire is None:
                    send_error(
                        rid,
                        WorkerStateError(f"shard {shard} has no columnar wire synced"),
                    )
                    continue
                try:
                    msg = state.wire.loads(msg)
                except Exception as exc:
                    send_error(rid, RpcProtocolError(f"undecodable frame: {exc!r}"))
                    continue
            if not isinstance(msg, WORKER_HANDLED):
                send_error(
                    rid,
                    RpcProtocolError(
                        f"unknown message type {type(msg).__name__!r}: "
                        "not in the worker dispatch table"
                    ),
                )
                continue
            if isinstance(msg, Shutdown):
                if pool is not None:
                    pool.shutdown(wait=True)  # drain in-flight levels
                with send_lock:
                    try:
                        conn.send_bytes(_reply_payload(rid, OkReply("bye")))
                    except Exception:
                        pass
                break
            try:
                decoded = time.perf_counter()
                if isinstance(msg, ExecuteLevel):
                    state.note_queued(1)
                    if pool is None or (state.idle() and not conn.poll(0)):
                        # Fast path: the worker is idle and nothing else
                        # waits on the socket, so run on the recv thread
                        # and skip the pool hop (a lone query's
                        # per-level latency tax).  At worst a request
                        # arriving mid-level waits one level before the
                        # loop resumes dispatching to the pool.
                        run_level(rid, msg, received, decoded)
                    else:
                        pool.submit(run_level, rid, msg, received, decoded)
                    continue
                if isinstance(msg, ExecuteBatch):
                    state.note_queued(len(msg.items))
                    run_batch(rid, msg, received, decoded)
                    continue
                reply = state.handle(msg)
            except BaseException as exc:  # typed error replies, not death
                send_error(rid, exc)
                continue
            send_reply(rid, reply)
    finally:
        if pool is not None:
            pool.shutdown(wait=False)
        state.close()
        try:
            conn.close()
        finally:
            listener.close()


# -- the driver-side worker handle ---------------------------------------------


def _frame_levels(msg) -> list:
    """The levels an outgoing frame carries: a batch's members, else
    the frame itself."""
    items = getattr(msg, "items", None)
    return [msg] if items is None else [level for _rid, level in items]


def _unpicklable(msg) -> str:
    """Name what keeps an outgoing frame from pickling: the class of
    the first task spec that does not (a closure ``FnMapSpec``, say),
    else the frame's own."""
    for level in _frame_levels(msg):
        for task in getattr(level, "tasks", ()):
            spec = task[0] if isinstance(task, tuple) else task
            try:
                pickle.dumps(spec)
            except Exception:
                return type(spec).__name__
    return type(msg).__name__


def _spawn_context():
    """Fork where available (workers receive their snapshot over the
    socket, so fork buys only startup speed), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class _Waiter:
    """One in-flight request's completion slot in the futures table.

    ``encode_s`` relays the worker's reply-encode time (from the
    :class:`Reply` envelope) and ``received`` the instant the reader
    thread had the reply's bytes, alongside the payload, for traced
    calls.
    """

    __slots__ = ("_event", "_value", "_error", "encode_s", "received")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value = None
        self._error: BaseException | None = None
        self.encode_s = 0.0
        self.received = 0.0

    def resolve(self, value) -> None:
        self._value = value
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def wait(self):
        self._event.wait()
        if self._error is not None:
            raise self._error
        return self._value


class ShardWorkerClient:
    """Driver-side handle on one shard server process.

    Owns the process and the authenticated socket connection, and
    multiplexes it: requests are stamped with a connection-unique id,
    encoded by the calling thread and written under a lock held only
    across the write; a per-connection reader thread matches replies
    back to waiters by id.  Concurrent
    callers therefore interleave on one socket instead of serializing
    behind a round-trip lock.  ``pipeline=0`` restores the old strictly
    serial request-response discipline (one outstanding request at a
    time) — the baseline the multiplexed mode is benchmarked against.
    ``wire_format`` is how level frames and their replies cross the
    connection, fixed when the worker is spawned: ``"columnar"`` (one
    pickle plus one id buffer per frame, :mod:`repro.columnar.wire`) or
    ``"pickle"`` (plain pickles; a block pickles as its rows).
    """

    def __init__(
        self,
        shard: int,
        num_nodes: int,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        start_method: str | None = None,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
        pipeline: int = DEFAULT_RPC_PIPELINE,
        wire_format: str = "columnar",
    ) -> None:
        self.shard = shard
        self.num_nodes = num_nodes
        self.max_frame_bytes = max_frame_bytes
        self.start_method = start_method
        self.spawn_timeout = spawn_timeout
        self.pipeline = pipeline
        self.wire_format = wire_format
        # process/conn are swapped to None under _close_lock on close;
        # the send/request paths re-read them under their own locks and
        # treat None as "worker gone" (ConnectionError), so a torn read
        # is impossible and a stale non-None at worst fails the send.
        self.process = None
        self.conn = None
        self._send_lock = checked(threading.Lock(), "ShardWorkerClient._send_lock")
        self._close_lock = checked(threading.Lock(), "ShardWorkerClient._close_lock")
        self._waiters_lock = checked(
            threading.Lock(), "ShardWorkerClient._waiters_lock"
        )
        self.bytes_sent = 0  # guarded-by: _send_lock
        self.frames_sent = 0  # guarded-by: _send_lock
        #: driver end of the columnar wire codec (it frames this
        #: connection's levels and reads its results), over the store's
        #: dictionary; built by the first full :class:`Sync` on this
        #: connection (a quiescence point: no frame straddles it)
        self.codec: WireCodec | None = None
        #: the driver's record of the worker: the ``(token, epoch)`` its
        #: last sync acknowledged and the dictionary length synced
        #: (None: nothing yet); and the dictionary terms delta syncs
        #: shipped
        self.synced: tuple | None = None
        self.terms_shipped = 0
        self._waiters: dict[int, _Waiter] = {}  # guarded-by: _waiters_lock
        self._reader_dead: str | None = None  # guarded-by: _waiters_lock
        self._ids = itertools.count(1)  # guarded-by: _waiters_lock
        self._reader: threading.Thread | None = None
        self._serial_lock = (
            checked(threading.Lock(), "ShardWorkerClient._serial_lock")
            if pipeline == 0
            else None
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> StatsReply:
        """Spawn the server process, connect, and health-check it (a
        :class:`Stats` round trip: shard, pid, snapshot token)."""
        ctx = (
            multiprocessing.get_context(self.start_method)
            if self.start_method
            else _spawn_context()
        )
        authkey = os.urandom(16)
        parent, child = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(
                child,
                self.shard,
                self.num_nodes,
                self.max_frame_bytes,
                authkey,
                self.pipeline,
                self.wire_format,
            ),
            name=f"repro-shard-{self.shard}",
        )
        try:
            process.start()
        except Exception as exc:
            raise WorkerSpawnError(
                f"could not start shard {self.shard} worker: {exc!r}"
            ) from exc
        child.close()
        try:
            if not parent.poll(self.spawn_timeout):
                raise WorkerSpawnError(
                    f"shard {self.shard} worker did not report an address "
                    f"within {self.spawn_timeout}s"
                )
            address = parent.recv()
            conn = Client(address, authkey=authkey)
            _no_delay(conn)
        except WorkerSpawnError:
            self._reap(process)
            raise
        except Exception as exc:
            self._reap(process)
            raise WorkerSpawnError(
                f"could not connect to shard {self.shard} worker: {exc!r}"
            ) from exc
        finally:
            parent.close()
        self.process = process
        self.conn = conn
        with self._waiters_lock:
            self._reader_dead = None
        self._reader = threading.Thread(
            target=self._read_loop,
            args=(conn,),
            name=f"repro-shard-{self.shard}-reader",
            daemon=True,
        )
        self._reader.start()
        return self.request(Stats())

    def alive(self) -> bool:
        return (
            self.process is not None
            and self.process.is_alive()
            and self.conn is not None
        )

    @staticmethod
    def _reap(process) -> None:
        try:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        except Exception:
            pass

    def close(self, kill: bool = False) -> None:
        """Shut the worker down (gracefully unless *kill*); idempotent."""
        with self._close_lock:
            conn, self.conn = self.conn, None
            process, self.process = self.process, None
        reader = self._reader
        if conn is not None:
            if not kill:
                try:
                    with self._send_lock:
                        conn.send_bytes(
                            pickle.dumps(Request(0, Shutdown()))
                        )
                except Exception:
                    pass
                # The worker drains its pool, says bye (rid 0 — no
                # waiter, dropped) and closes; the reader sees EOF.
                if reader is not None:
                    reader.join(timeout=5)
            try:
                conn.close()
            except Exception:
                pass
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=5)
        if process is not None:
            process.join(timeout=5)
            self._reap(process)

    # -- requests ----------------------------------------------------------

    def _read_loop(self, conn) -> None:
        """The connection's only reader: decodes replies in arrival
        order and resolves the waiter the reply's id names.  A broadcast (id -1)
        fails every in-flight waiter but keeps reading; a transport
        error fails them and ends the loop — the next request raises a
        ConnectionError and the router's respawn path takes over."""
        try:
            while True:
                data = conn.recv_bytes(self.max_frame_bytes)
                received = time.perf_counter()
                reply = pickle.loads(data)
                if not isinstance(reply, Reply):
                    continue
                payload = reply.payload
                if type(payload) is bytes:  # results on the columnar wire
                    payload = self.codec.loads(payload)
                if reply.id == -1:
                    error = (
                        payload.error
                        if isinstance(payload, ErrorReply)
                        else RpcProtocolError(
                            f"shard {self.shard} broadcast an unexpected "
                            f"{type(payload).__name__!r}"
                        )
                    )
                    self._fail_pending(error, terminal=False)
                    continue
                with self._waiters_lock:
                    waiter = self._waiters.pop(reply.id, None)
                if waiter is not None:
                    waiter.encode_s = reply.encode_s
                    waiter.received = received
                    waiter.resolve(payload)
                # Unknown ids are replies whose waiter gave up: dropped.
        except BaseException as exc:
            self._fail_pending(exc, terminal=True)

    def _fail_pending(self, error: BaseException, terminal: bool = True) -> None:
        with self._waiters_lock:
            if terminal:
                # The repr, not the exception: its traceback's frames
                # hold this client, and a client -> exception ->
                # traceback -> frame -> client cycle would leave a closed
                # client (and its snapshot's dictionary) to the cycle
                # collector.
                self._reader_dead = repr(error)
            waiters, self._waiters = dict(self._waiters), {}
        for waiter in waiters.values():
            waiter.fail(error)

    def request(self, msg, on_bytes=None, on_wire=None):
        """One request/reply exchange; raises the typed error a worker
        replied with, or a transport error when the worker is gone.

        Thread-safe: the request is encoded (on a columnar connection
        an ``ExecuteLevel`` / ``ExecuteBatch`` framed by the codec) by
        the calling thread, the send lock is held only across the write,
        and the reply is awaited outside every lock, so concurrent
        requests pipeline on the socket.

        ``on_wire`` (like ``on_bytes``) is called after a successful
        exchange with the :class:`WireTimes` of the round trip: when
        the frame left, when the reply arrived, and the worker's
        reply-encode seconds from the :class:`Reply` envelope — the
        only place that timing can live, since a span inside the
        payload cannot time its own encoding.
        """
        if self._serial_lock is not None:
            with self._serial_lock:
                return self._request(msg, on_bytes, on_wire)
        return self._request(msg, on_bytes, on_wire)

    def _request(self, msg, on_bytes=None, on_wire=None):
        waiter = _Waiter()
        with self._waiters_lock:
            if self.conn is None:
                raise ConnectionError(
                    f"shard {self.shard} worker is not running"
                )
            if self._reader_dead is not None:
                raise ConnectionError(
                    f"shard {self.shard} connection lost: "
                    f"{self._reader_dead}"
                )
            rid = next(self._ids)
            self._waiters[rid] = waiter
        try:
            # Nothing is written unless the whole frame pickles, so a
            # frame rejected here leaves the connection serving on.
            codec = self.codec
            try:
                framed = (
                    codec.dumps(msg)
                    if codec is not None
                    and isinstance(msg, (ExecuteLevel, ExecuteBatch))
                    else msg
                )
                payload = pickle.dumps(Request(rid, framed))
            except Exception as exc:
                raise RpcProtocolError(
                    f"{_unpicklable(msg)} does not pickle and cannot "
                    f"cross to shard {self.shard}: {exc!r}"
                ) from exc
            if len(payload) > self.max_frame_bytes:
                raise FrameTooLarge(
                    f"{type(msg).__name__} frame of {len(payload)} "
                    f"bytes exceeds the {self.max_frame_bytes}-byte cap"
                )
            with self._send_lock:
                conn = self.conn
                if conn is None:
                    raise ConnectionError(
                        f"shard {self.shard} worker is not running"
                    )
                # Stamped before the write: the write drops the
                # interpreter lock, and getting it back can take longer
                # than the worker takes to answer.
                sent = time.perf_counter()
                conn.send_bytes(payload)
                self.bytes_sent += len(payload)
                self.frames_sent += 1
        except BaseException:
            with self._waiters_lock:
                self._waiters.pop(rid, None)
            raise
        reply = waiter.wait()
        if (
            self.codec is None
            and self.wire_format == "columnar"
            and isinstance(msg, Sync)
            and msg.base is None
            and not isinstance(reply, ErrorReply)
        ):
            # The full sync that gives the worker its replica gives us
            # our codec, over the dictionary it was pickled from.
            self.codec = WireCodec(SimpleNamespace(dictionary=msg.terms))
        if on_bytes is not None:
            on_bytes(len(payload))
        if on_wire is not None:
            on_wire(WireTimes(sent, waiter.encode_s, waiter.received))
        if isinstance(reply, ErrorReply):
            raise reply.error
        return reply


class WireTimes(NamedTuple):
    """The instants that split one round trip between the two ends
    (driver ``perf_counter``), and what only the worker could time."""

    #: the request frame went to the socket
    sent: float
    #: the worker's reply-encode seconds (:attr:`Reply.encode_s`)
    worker_encode_s: float
    #: the reader thread had the reply's bytes
    received: float


# -- the in-memory carrier ------------------------------------------------------


class LocalShardClient:
    """Driver-side handle on one in-process shard worker: the
    :class:`ShardWorkerClient` surface over an in-memory carrier.

    Owns one :class:`_WorkerState` and hands it each request frame as
    the object it is — no pickle, no codec, no socket, so file maps and
    blocks cross by reference and ``bytes_sent`` stays 0.  A typed error
    the worker raises reaches the caller exactly as an
    :class:`ErrorReply` re-raises over the socket.  The socket options
    (frame cap, start method, spawn timeout, pipeline, wire format)
    mean nothing in memory and are ignored.
    """

    def __init__(self, shard: int, num_nodes: int, **_socket) -> None:
        self.shard = shard
        self.num_nodes = num_nodes
        #: the shard's worker state; None once closed
        self.worker: _WorkerState | None = None
        self._lock = checked(threading.Lock(), "LocalShardClient._lock")
        self.frames_sent = 0  # guarded-by: _lock
        self.bytes_sent = 0
        #: what the worker holds, as ShardWorkerClient records it
        self.synced: tuple | None = None
        self.terms_shipped = 0

    def start(self) -> StatsReply:
        self.worker = _WorkerState(self.shard, self.num_nodes, wire_format=None)
        return self.request(Stats())

    def alive(self) -> bool:
        return self.worker is not None

    def close(self, kill: bool = False) -> None:
        worker, self.worker = self.worker, None
        if worker is not None:
            worker.close()

    def request(self, msg, on_bytes=None, on_wire=None):
        """One exchange with the worker, on the calling thread."""
        worker = self.worker
        if worker is None:
            raise ConnectionError(f"shard {self.shard} worker is not running")
        with self._lock:
            self.frames_sent += 1
        sent = time.perf_counter()
        reply = worker.handle(msg, sent, sent)
        if on_bytes is not None:
            on_bytes(0)
        if on_wire is not None:
            on_wire(WireTimes(sent, 0.0, time.perf_counter()))
        return reply


__all__ = [
    "BatchReply",
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_RPC_PIPELINE",
    "ErrorReply",
    "ExecuteBatch",
    "ExecuteLevel",
    "FrameTooLarge",
    "LocalShardClient",
    "MESSAGE_TYPES",
    "OkReply",
    "Reply",
    "Request",
    "ResultsReply",
    "RpcError",
    "RpcProtocolError",
    "ShardUnavailable",
    "ShardWorkerClient",
    "Shutdown",
    "StaleEpoch",
    "Stats",
    "StatsReply",
    "Sync",
    "WireTimes",
    "WorkerSpawnError",
    "WorkerStateError",
    "sync_frame",
]
