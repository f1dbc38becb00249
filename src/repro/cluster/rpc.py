"""RPC shard workers: long-lived shard server processes behind the router.

The in-process :class:`~repro.cluster.router.ShardRouter` calls the
shards' shared execution engine by function call; this module replaces
that boundary with a real wire protocol.  Each shard is a **server process**
(stdlib :class:`multiprocessing.connection.Listener` on a localhost
socket, HMAC-authenticated, no third-party deps) that holds, resident:

* its shard's :class:`~repro.partitioning.triple_partitioner
  .StoreSnapshot` (installed by :class:`Prime`, re-installed only when
  the shard's snapshot token changes — a mutation re-primes only the
  shards it touched);
* one inline :class:`~repro.mapreduce.backends.ExecutionBackend`
  (serial or columnar, :data:`~repro.mapreduce.backends.INLINE_BACKENDS`)
  that runs every level it is sent — no pool of its own: the shards
  are the parallelism;
* its counters.

And **nothing about plans**: a worker is stateless between levels, the
way a Hadoop node keeps only its partition files and is handed a job's
task code with the job.  A query crosses the wire as one
:class:`ExecuteLevel` per level and phase per shard, carrying the task
specs themselves — the very ``ChainMapSpec`` / ``MapOnlySpec`` /
``StarReduceSpec`` objects the engine handed the router (pickle shares
a chain across a shard's nodes, so a LUBM query's specs weigh ~2 kB) —
plus the exchange chunks; the worker runs them as received.  Both ends
number terms as the store does: the :class:`Prime` snapshot carries
the store's dictionary, and :meth:`RpcShardRouter.ensure_workers`
ships a worker whose replica lags the suffix it misses (in a
:class:`TableUpdate`), so on the columnar wire an id block crosses as
its id buffers, translated nowhere, and neither the driver nor a
columnar worker decodes a term to move it.  Message frames are
pickled dataclasses with an explicit size cap; oversized frames,
unknown message types, specs that do not pickle and ids no store
numbered surface as typed errors, never hangs or wrong answers.

The connection is **multiplexed**: every frame travels in a
:class:`Request`/:class:`Reply` envelope carrying a request id.  The
worker's main thread is the connection's single reader; it dispatches
``ExecuteLevel``/:class:`ExecuteBatch` frames onto a small thread pool
(``pipeline`` wide) so levels of concurrent queries overlap, while
state-mutating frames (Prime, PrimeNodes, TableUpdate) serialize behind
a readers-writer state lock.  Driver-side, a per-connection reader
thread matches replies to waiters by id, so :class:`ShardWorkerClient`
holds no lock across a round trip.  On top of that,
:class:`RpcShardRouter` can micro-batch: levels that concurrent queries
dispatch to the same shard within a short window coalesce into one
:class:`ExecuteBatch` frame — one encode/send/recv for many queries —
and demultiplex by sub-request id.  Retries are safe because workers
are stateless between levels: a level frame that arrives twice simply
runs twice, and the reader drops the reply no waiter owns.

The driver side is :class:`RpcShardRouter` — a drop-in
:class:`~repro.cluster.router.ShardRouter` (hence an execution backend
behind the one :class:`~repro.mapreduce.engine.MapReduceEngine`, with
the same ``run(invocations, ctx)`` contract as every other backend)
whose grouping of a batch by owning shard and reassembly in submission
order are inherited unchanged; only the dispatch hop is replaced by the
protocol.  Worker crashes are detected at the connection (a typed error
reply means the worker is alive and the *request* failed; a transport
error means the worker died): a dead worker is respawned and re-primed
— the snapshot is all there is to restore — and the failed request
retried exactly once; a second failure raises :class:`ShardUnavailable`
instead of deadlocking the service.
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
from contextlib import contextmanager
from dataclasses import dataclass, field, replace as dataclass_replace
from multiprocessing.connection import Client, Listener
from typing import Iterator, NamedTuple

from repro.analysis.locks import ReadWriteLock, checked
from repro.cluster.router import ShardDispatch, ShardRouter
from repro.cluster.ownership import OwnerTable, merge_nodes
from repro.mapreduce.backends import (
    DEFAULT_RPC_PIPELINE,
    INLINE_BACKENDS,
    ExecutionBackend,
    TaskInvocation,
    check_backend_available,
    make_backend,
    store_token,
    task_timing,
)
from repro.columnar.block import HAVE_NUMPY
from repro.columnar.wire import WIRE_FORMATS, WireCodec
from repro.mapreduce.counters import ExecutionReport
from repro.mapreduce.hdfs import HDFS, DistributedRelation
from repro.mapreduce.jobs import TaskContext
from repro.obs.trace import (
    SpanAccumulator,
    attach_worker_spans,
    record_remote,
    span,
)
from repro.partitioning.triple_partitioner import StoreSnapshot

#: Hard cap on one pickled message frame (request or reply).  Large
#: enough for any realistic exchange payload, small enough that a
#: runaway frame fails typed instead of exhausting memory.
DEFAULT_MAX_FRAME_BYTES = 128 * 1024 * 1024

#: Seconds to wait for a spawned worker to report its listening address.
DEFAULT_SPAWN_TIMEOUT = 60.0

#: Task spans a traced :class:`ExecuteLevel` ships back per level — one
#: per task group on the columnar backend, per task on serial; further
#: ones are summarized by a ``task_spans_dropped`` attribute on the
#: execute span (span records travel over the wire).
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
    :class:`ExecuteLevel` before any :class:`Prime`)."""


class WorkerSpawnError(RpcError):
    """A shard worker process could not be started or contacted."""


class StaleEpoch(RpcError):
    """An execute frame was stamped with a topology epoch the worker is
    not at: the owner table moved underneath the query.  The driver
    handles it by re-routing the frame's tasks against the current
    table (:meth:`RpcShardRouter._reroute_level`), so a query that
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
    transparently (its snapshot re-primed) and the failed request resent
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
class Prime:
    """Install (or replace) the worker's resident store snapshot.

    The snapshot carries the store's dictionary, pickled as its term
    list when the frame is: the worker's replica of the one numbering,
    which its columnar backend computes in and the wire ships ids by.

    ``wire`` selects the row encoding of subsequent :class:`ExecuteLevel`
    exchanges on this connection: ``"pickle"`` (tuple lists, the
    original format) or ``"columnar"`` (id buffers, see
    :mod:`repro.columnar.wire`).

    ``epoch`` stamps the owner-table version this view was taken
    under; the worker adopts it as its topology epoch.
    """

    snapshot: StoreSnapshot
    wire: str = "pickle"
    epoch: int = 0


@dataclass(frozen=True)
class PrimeNodes:
    """Ship a migration delta: only the moved nodes' file maps.

    ``adds`` maps incoming node → its partition file map (taken from
    the destination shard's post-move snapshot driver-side); ``drops``
    lists outgoing nodes this shard no longer owns.  The worker merges
    the delta into its resident snapshot (:func:`repro.cluster.ownership
    .merge_nodes`) — a full :class:`Prime` of unmoved data never
    crosses the wire.  Idempotent: a worker whose
    resident token already equals ``token`` acknowledges without
    re-merging, so the crash-retry path cannot double-apply a delta.
    The merged snapshot keeps the worker's dictionary replica, which
    the driver brought up to date before the migration.  The topology
    epoch flips separately (:class:`TableUpdate`), after every shard
    holds its migrated data.
    """

    adds: dict[int, dict[str, tuple]]
    drops: tuple[int, ...]
    token: tuple


@dataclass(frozen=True)
class TableUpdate:
    """Flip the worker's topology epoch (the owner-table version), and
    bring its dictionary replica up to the store's.

    Sent to every surviving shard once a migration's data movement is
    complete; from then on the worker rejects execute frames stamped
    with another epoch (:class:`StaleEpoch`) so a rebalance can never
    silently serve a level against the wrong ownership map.  ``terms``
    are the store dictionary's entries from id ``terms_from`` on, for
    a worker whose snapshot is current but whose replica lags.
    Idempotent and monotone: an epoch at or below the worker's current
    one is acknowledged without effect and terms the replica holds
    merge as no-ops, so duplicate delivery (crash-retry) is harmless;
    a gap or a conflicting term is a typed :class:`WorkerStateError`.
    """

    epoch: int
    terms_from: int = 0
    terms: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExecuteLevel:
    """Run one scheduling level's tasks owned by this shard.

    The frame carries the tasks themselves, not their names.
    ``phase="map"``: ``tasks`` are the map task specs (each knows its
    node and chain) and ``inputs`` carries the shard-local slices of
    shuffled intermediates the level's map chains read.
    ``phase="reduce"``: ``tasks`` are ``(reduce_spec, partition,
    grouped)`` — the cross-shard exchange, ``{tag: chunks}`` as the
    engine grouped it.  Chunks travel as they are: the columnar codec
    packs id blocks into buffers, the pickle wire pickles them (a block
    pickles as its rows).  Requests are self-contained (the worker
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
    primes: int
    bytes_received: int
    backend: str
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
    itself (its chunks packed, on the columnar wire)."""

    id: int
    msg: object


@dataclass(frozen=True)
class Reply:
    """The worker→driver envelope.  ``id`` echoes the request's; the
    reserved id ``-1`` is a connection-level broadcast (the worker could
    not attribute the failure to a request — e.g. an undecodable or
    oversized incoming frame), which fails every in-flight waiter.

    ``encode_s`` reports the worker's payload-encode time (columnar
    packing) for traced frames.  It lives on the envelope because a
    span *inside* the payload cannot time the encoding of that same
    payload; the envelope pickle itself stays untimed (≈0 on the
    pickle wire), which is documented behaviour."""

    id: int
    payload: object
    encode_s: float = 0.0


#: All frame types, for protocol round-trip tests.
MESSAGE_TYPES = (
    Prime,
    PrimeNodes,
    TableUpdate,
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
#: :func:`_dispatch` accepts.  A frame added to :data:`MESSAGE_TYPES`
#: without an entry here (or in :data:`CLIENT_HANDLED`) is a lint error,
#: and the main loop rejects frames outside this table with a typed
#: protocol error instead of an arbitrary failure mid-dispatch.
WORKER_HANDLED = (
    Prime,
    PrimeNodes,
    TableUpdate,
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
    """Everything resident in one shard server process: the snapshot
    (and with it the replica of the store's dictionary), the one inline
    backend that runs tasks against it, and the counters.

    With a dispatch pool (``pipeline > 1``) levels execute on several
    threads at once: resident-state swaps serialize behind
    :attr:`rwlock` and every counter behind the stats mutex."""

    def __init__(
        self,
        shard: int,
        num_nodes: int,
        backend: str,
        pipeline: int = 1,
    ) -> None:
        self.shard = shard
        self.num_nodes = num_nodes
        self.backend_name = backend
        self.pipeline = pipeline
        self.backend: ExecutionBackend = make_backend(backend)
        # snapshot/wire are resident-state: swapped (the dictionary
        # grown) only under rwlock.write() (the caller's mutator path),
        # read during level execution under rwlock.read() — the RW lock,
        # not a mutex, because reads are long (whole levels) and
        # concurrent.
        self.snapshot: StoreSnapshot | None = None
        #: the wire format the last Prime named
        self.wire_format = "pickle"
        #: columnar wire codec of this connection; None = pickle wire
        self.wire: WireCodec | None = None
        #: topology epoch (owner-table version) — resident-state like
        #: snapshot/wire: flipped only under rwlock.write() (Prime /
        #: TableUpdate), read per execute frame under rwlock.read()
        self.epoch = 0
        # ExecuteLevels share it (readers run concurrently on the
        # dispatch pool), while Prime / PrimeNodes / TableUpdate take
        # it exclusively, so a snapshot or epoch swap never interleaves
        # with a running level.
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

    def begin_execute(self) -> None:
        with self._stats_lock:
            self.queued -= 1
            self.inflight += 1
            self.peak_inflight = max(self.peak_inflight, self.inflight)

    def end_execute(self) -> None:
        with self._stats_lock:
            self.inflight -= 1

    # -- state transitions -------------------------------------------------

    @property
    def token(self) -> tuple | None:
        return None if self.snapshot is None else store_token(self.snapshot)

    def install_snapshot(self, snapshot: StoreSnapshot) -> tuple:
        self.snapshot = snapshot
        self._sync_codec()
        with self._stats_lock:
            self.primes += 1
        return snapshot.token

    def merge_terms(self, start: int, terms: tuple[str, ...]) -> None:
        """Replay the store dictionary's suffix from id *start* on."""
        if self.snapshot is None:
            raise WorkerStateError(
                f"shard {self.shard} has no dictionary to merge terms into"
            )
        try:
            self.snapshot.dictionary.merge_entries(start, terms)
        except ValueError as exc:
            raise WorkerStateError(f"shard {self.shard}: {exc}") from None
        self._sync_codec()

    def _sync_codec(self) -> None:
        """The columnar codec over the replica as the driver just synced
        it: no id at or past the synced length ever ships."""
        self.wire = (
            WireCodec(
                self.snapshot,
                blocks=self.backend_name == "columnar",
                limit=len(self.snapshot.dictionary),
            )
            if self.wire_format == "columnar"
            else None
        )

    # -- request handlers --------------------------------------------------

    def execute_level(
        self, msg: ExecuteLevel, acc: SpanAccumulator | None = None
    ) -> ResultsReply:
        """Run one level frame's tasks as received; a traced frame
        (*acc* given) also ships back ``execute`` / per-task span
        records."""
        if msg.epoch != self.epoch:
            raise StaleEpoch(self.shard, msg.epoch, self.epoch)
        # Taken before the task context is built, so a traced frame's
        # ``execute`` span starts where ``state_lock_wait`` ended.
        start = time.perf_counter()
        invocations, ctx = self._invocations(msg)
        if acc is None:
            results = self.backend.run(invocations, ctx)
        else:
            with task_timing() as tasks:
                results = self.backend.run(invocations, ctx)
            execute_ix = acc.record(
                "execute", start, time.perf_counter(), tasks=len(invocations)
            )
            # Ship at most a handful of task spans: the serial backend
            # reports one per task, the columnar one per task group (of
            # ``tasks=k``); the records travel back over the wire.
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

    def _invocations(
        self, msg: ExecuteLevel
    ) -> tuple[list[TaskInvocation], TaskContext]:
        if msg.phase == "map":
            if self.snapshot is None:
                raise WorkerStateError(
                    f"shard {self.shard} has no snapshot primed"
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
        return invocations, ctx

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
                backend=self.backend_name,
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


def _dispatch(state: _WorkerState, msg: object):
    """Map one decoded request frame to its reply (raises typed errors)."""
    if isinstance(msg, Prime):
        state.wire_format = msg.wire
        token = state.install_snapshot(msg.snapshot)
        state.epoch = msg.epoch
        return OkReply(token)
    if isinstance(msg, PrimeNodes):
        if state.snapshot is None:
            raise WorkerStateError(
                f"shard {state.shard} has no resident snapshot to merge "
                "a node delta into"
            )
        if state.token == msg.token:
            # Duplicate delivery (crash-retry): already merged.
            return OkReply(msg.token)
        merged = merge_nodes(state.snapshot, msg.adds, msg.drops, msg.token)
        return OkReply(state.install_snapshot(merged))
    if isinstance(msg, TableUpdate):
        if msg.terms:
            state.merge_terms(msg.terms_from, msg.terms)
        state.epoch = max(state.epoch, msg.epoch)
        return OkReply(state.epoch)
    if isinstance(msg, ExecuteLevel):
        return state.execute_level(msg)
    if isinstance(msg, Stats):
        return state.stats()
    raise RpcProtocolError(f"unknown message type {type(msg).__name__!r}")


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
    backend: str,
    max_frame_bytes: int,
    authkey: bytes,
    pipeline: int = 1,
) -> None:
    """Entry point of a shard server process.

    Binds a localhost listener, reports the bound address back through
    *channel*, then serves its single router connection until Shutdown,
    EOF (driver died) or an unrecoverable frame error.

    The loop is accept-dispatch: the main thread is the connection's
    only reader — it decodes frames in arrival order and hands
    ``ExecuteLevel`` / ``ExecuteBatch`` work to a dispatch pool of up
    to *pipeline* threads, so levels of concurrent queries overlap.
    Every other frame is served inline; state mutators behind the write
    side of the state lock.  Replies carry the request id of their
    envelope and are encoded by the thread that finished them; the send
    lock covers only the write, since nothing orders the encodings.
    """
    listener = Listener(("127.0.0.1", 0), authkey=bytes(authkey))
    try:
        channel.send(listener.address)
    finally:
        channel.close()
    concurrency = max(1, pipeline)
    state = _WorkerState(shard, num_nodes, backend, pipeline=concurrency)
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
        """Columnar-encode (when applicable), envelope, cap-check and
        send one reply (dropped when the connection is gone).  A reply
        that does not encode — a term or id the store never numbered —
        goes out as a typed protocol error instead."""
        out, encode_s = reply, 0.0
        wire = state.wire
        if wire is not None and isinstance(reply, (ResultsReply, BatchReply)):
            t0 = time.perf_counter()
            try:
                out = wire.encode(reply)
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
        """Execute one level under the read lock; errors become typed
        per-item replies, never thread deaths.  *received* is the
        frame-receipt instant — the worker-side t0 every traced span
        offset is relative to — and *decoded* the instant the recv
        thread had the frame unpickled and unpacked (queue wait =
        decoded to start)."""
        state.begin_execute()
        acc = None
        if level.trace_ctx is not None:
            acc = SpanAccumulator(received)
            acc.record("decode", received, decoded)
            acc.record("queue_wait", decoded, time.perf_counter())
        try:
            lock_t0 = time.perf_counter()
            with state.rwlock.read():
                if acc is not None:
                    acc.record(
                        "state_lock_wait", lock_t0, time.perf_counter()
                    )
                try:
                    return state.execute_level(level, acc)
                except BaseException as exc:
                    return _as_error_reply(exc)
        finally:
            state.end_execute()

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
                if state.wire is not None and isinstance(
                    msg, (ExecuteLevel, ExecuteBatch)
                ):
                    msg = state.wire.decode(msg)
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
                if isinstance(msg, (Prime, PrimeNodes, TableUpdate)):
                    # Mutators wait out in-flight levels, exclusively.
                    with state.rwlock.write():
                        reply = _dispatch(state, msg)
                else:
                    with state.rwlock.read():
                        reply = _dispatch(state, msg)
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
    """

    def __init__(
        self,
        shard: int,
        num_nodes: int,
        backend: str = "serial",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        start_method: str | None = None,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
        pipeline: int = DEFAULT_RPC_PIPELINE,
    ) -> None:
        self.shard = shard
        self.num_nodes = num_nodes
        self.backend = backend
        self.max_frame_bytes = max_frame_bytes
        self.start_method = start_method
        self.spawn_timeout = spawn_timeout
        self.pipeline = pipeline
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
        #: driver end of the columnar wire codec, over the store's
        #: dictionary; established by the first successful
        #: ``Prime(wire="columnar")`` on this connection (a quiescence
        #: point: no concurrent frame straddles it)
        self.codec: WireCodec | None = None
        #: snapshot token last primed onto this worker (driver-side view)
        self.primed_token: tuple | None = None
        #: topology epoch last stamped onto this worker (via Prime or
        #: TableUpdate); -1 = never synced
        self.primed_epoch = -1
        #: store-dictionary length the worker's replica holds at least
        #: (via Prime or TableUpdate), and the terms suffix syncs shipped
        self.primed_terms = 0
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
                self.backend,
                self.max_frame_bytes,
                authkey,
                self.pipeline,
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
                codec = self.codec
                if codec is not None and isinstance(
                    payload, (ResultsReply, BatchReply)
                ):
                    payload = codec.decode(payload)
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
        ``ExecuteLevel`` / ``ExecuteBatch`` chunks packed) by the
        calling thread, the send lock is held only across the write,
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
            # Nothing is written unless the whole frame encodes, so a
            # frame rejected here leaves the connection serving on.
            send_msg = msg
            codec = self.codec
            if codec is not None and isinstance(msg, (ExecuteLevel, ExecuteBatch)):
                try:
                    send_msg = codec.encode(msg)
                except Exception as exc:
                    raise RpcProtocolError(
                        f"{type(msg).__name__} for shard {self.shard} does "
                        f"not encode: {exc!r}"
                    ) from exc
            try:
                payload = pickle.dumps(Request(rid, send_msg))
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
        if isinstance(msg, Prime) and not isinstance(reply, ErrorReply):
            # The prime that gives the worker its codec gives us ours,
            # over the dictionary the worker's replica was pickled from.
            # Primes only happen at quiescence points (startup, mutation,
            # respawn), so no concurrent frame straddles the swap.
            self.codec = (
                WireCodec(msg.snapshot, blocks=HAVE_NUMPY)
                if msg.wire == "columnar"
                else None
            )
        if on_bytes is not None:
            on_bytes(len(payload))
        if on_wire is not None:
            on_wire(WireTimes(sent, waiter.encode_s, waiter.received))
        if isinstance(reply, ErrorReply):
            raise reply.error
        return reply


# -- the driver-side router ----------------------------------------------------


@dataclass(kw_only=True)
class _RpcExecution(ShardDispatch):
    """The RPC router's per-query dispatch state: the owner table every
    :class:`ExecuteLevel` of the query is routed and stamped by
    (``table.version`` is the epoch — a worker at another epoch rejects
    the frame), plus the wire counters.

    Byte and frame attribution lives here, per query: concurrent
    queries each accumulate into their own context (coalescing flushers
    touch contexts cross-thread, hence the lock), so
    ``ExecutionResult.shard_bytes`` and ``explain()``'s wire line stay
    per-query correct under concurrency — no shared router-global
    counter to race on.
    """

    bytes: list[int]
    frames: list[int]
    _lock: threading.Lock = field(
        default_factory=lambda: checked(threading.Lock(), "_RpcExecution._lock"),
        repr=False,
        compare=False,
    )

    def add(self, shard: int, n: int, frames: int = 1) -> None:
        with self._lock:
            while len(self.bytes) <= shard:
                # A mid-query rebalance can re-route levels to shards
                # that did not exist when this query started counting.
                self.bytes.append(0)
                self.frames.append(0)
            self.bytes[shard] += n
            self.frames[shard] += frames


class WireTimes(NamedTuple):
    """The instants that split one round trip between the two ends
    (driver ``perf_counter``), and what only the worker could time."""

    #: the request frame went to the socket
    sent: float
    #: the worker's reply-encode seconds (:attr:`Reply.encode_s`)
    worker_encode_s: float
    #: the reader thread had the reply's bytes
    received: float


def _frame_trace_ctxs(msg) -> list[tuple]:
    """Every trace context an execute frame carries (a batch fans out
    to each item's own); empty for untraced or non-execute frames."""
    return [
        level.trace_ctx
        for level in _frame_levels(msg)
        if getattr(level, "trace_ctx", None) is not None
    ]


def _record_level_span(
    msg: ExecuteLevel,
    reply,
    start: float,
    end: float,
    times: WireTimes,
    shard: int,
    coalesced: int = 1,
) -> None:
    """Record one traced level round trip driver-side.

    The children of the ``rpc:level`` span tile it, in time order:

    * ``wire:encode`` — everything this end does until the frame is on
      the socket: finding the live client, taking the send lock, frame
      packing + pickle + write (and, after a worker respawn, the
      attempt before);
    * the worker's shipped span records, re-anchored at the instant the
      frame was written (the only one the two clocks agree on — the
      driver's send is the worker's receipt, minus wire latency);
    * ``wire:transit`` — whatever of the window up to the reply's
      arrival the worker did not report: the socket both ways, the
      envelope pickles and the two process wake-ups, which the two
      clocks cannot tell apart;
    * the worker's reply-``encode`` time, ending where the reply was
      read;
    * ``wire:decode`` — the reader thread unpickling + decoding the
      reply, through the hand-off to the requesting thread.

    ``coalesced`` > 1 marks members of a shared :class:`ExecuteBatch`
    frame, whose round trip (and wire times) cover all members.
    """
    attrs = {"shard": shard, "level": msg.level, "phase": msg.phase}
    if coalesced > 1:
        attrs["coalesced"] = coalesced
    ref = record_remote(msg.trace_ctx, "rpc:level", start, end, **attrs)
    if ref is None:
        return
    ctx = ref.ctx()
    shared = {"shared": coalesced} if coalesced > 1 else {}
    record_remote(ctx, "wire:encode", start, times.sent, shard=shard, **shared)
    record_remote(ctx, "wire:decode", times.received, end, shard=shard, **shared)
    records = list(getattr(reply, "spans", None) or ())
    encode_s = times.worker_encode_s
    reported = max(
        (
            rel_start + duration
            for _, parent, rel_start, duration, _ in records
            if parent < 0
        ),
        default=0.0,
    )
    tail = max(reported, (times.received - times.sent) - encode_s)
    if tail > reported:
        records.append(("wire:transit", -1, reported, tail - reported, {}))
    if encode_s > 0.0:
        records.append(("encode", -1, tail, encode_s, {}))
    attach_worker_spans(
        ref, records, anchor=times.sent, scale_hint=coalesced, shard=shard
    )


class _PendingLevel:
    """One query's ExecuteLevel waiting in a shard's coalescer."""

    __slots__ = ("msg", "ctx", "reply", "error", "done")

    def __init__(self, msg: ExecuteLevel, ctx: _RpcExecution | None) -> None:
        self.msg = msg
        self.ctx = ctx
        self.reply = None
        self.error: BaseException | None = None
        self.done = threading.Event()


class _LevelCoalescer:
    """Per-shard micro-batcher merging concurrent queries' levels.

    The first submitter becomes the *leader*: it waits up to the
    coalescing window (or until ``max_batch`` levels are pending — no
    background thread, no idle timer when traffic is serial), then
    drains **everything** pending and flushes it in chunks of at most
    ``max_batch`` as :class:`ExecuteBatch` frames; a chunk of one goes
    out as a plain :class:`ExecuteLevel`.  Followers block on their
    item until the leader's flush resolves it.  Every exit path sets
    the item's event — a dead worker fails all coalesced queries typed
    (or they recover via the respawn retry inside ``_shard_call``),
    never hangs them.
    """

    def __init__(self, router: "RpcShardRouter", shard: int) -> None:
        self.router = router
        self.shard = shard
        self.window = router.coalesce_window_ms / 1000.0
        self.max_batch = router.coalesce_max_batch
        self._cond = checked(threading.Condition(), "_LevelCoalescer._cond")
        self._pending: list[_PendingLevel] = []
        self._leader = False

    def submit(self, msg: ExecuteLevel, exec_ctx: _RpcExecution | None):
        item = _PendingLevel(msg, exec_ctx)
        with self._cond:
            self._pending.append(item)
            if self._leader:
                if len(self._pending) >= self.max_batch:
                    self._cond.notify_all()
                batch = None
            else:
                self._leader = True
                # Holding the window open only pays when another query
                # is actually in flight; a lone query's levels would
                # just eat the full window as pure latency tax, so the
                # leader checks router-observed concurrency first.
                if self.window > 0 and self.router._active_queries() > 1:
                    deadline = time.monotonic() + self.window
                    while len(self._pending) < self.max_batch:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                batch, self._pending = self._pending, []
                self._leader = False
        if batch is None:
            item.done.wait()
        else:
            for start in range(0, len(batch), self.max_batch):
                self._flush(batch[start : start + self.max_batch])
        if item.error is not None:
            raise item.error
        return item.reply

    def _flush(self, chunk: list[_PendingLevel]) -> None:
        try:
            if len(chunk) == 1:
                item = chunk[0]
                self.router._note_frames(1)
                item.reply = self.router._send_level(
                    self.shard, item.msg, item.ctx
                )
            else:
                self._flush_batch(chunk)
        except BaseException as exc:
            for item in chunk:
                if item.reply is None and item.error is None:
                    item.error = exc
        finally:
            for item in chunk:
                item.done.set()

    def _flush_batch(self, chunk: list[_PendingLevel]) -> None:
        router, shard = self.router, self.shard
        sub_rids = [router._next_sub_id() for _ in chunk]
        msg = ExecuteBatch(
            items=tuple(
                (rid, item.msg) for rid, item in zip(sub_rids, chunk)
            )
        )
        sent = [0]
        wire: list[WireTimes] = []

        def on_bytes(n: int) -> None:
            sent[0] = n

        traced = any(item.msg.trace_ctx is not None for item in chunk)
        router._note_frames(1)
        start = time.perf_counter()
        reply = router._shard_call(
            shard, msg, on_bytes, wire.append if traced else None
        )
        end = time.perf_counter()
        # Attribute the shared frame's bytes across its members (the
        # remainder lands on the first few); each member rode 1 frame.
        # The worker's encode time is split equally the same way.
        share, spill = divmod(sent[0], len(chunk))
        if traced:
            times = wire[-1]._replace(
                worker_encode_s=wire[-1].worker_encode_s / len(chunk)
            )
        by_sub = dict(reply.replies)
        for index, (rid, item) in enumerate(zip(sub_rids, chunk)):
            if item.ctx is not None:
                item.ctx.add(shard, share + (1 if index < spill else 0))
            sub = by_sub.get(rid)
            if item.msg.trace_ctx is not None:
                _record_level_span(
                    item.msg,
                    sub,
                    start,
                    end,
                    times,
                    shard,
                    coalesced=len(chunk),
                )
            if sub is None:
                item.error = RpcProtocolError(
                    f"shard {shard} batch reply is missing request {rid}"
                )
            elif isinstance(sub, ErrorReply):
                item.error = sub.error
            else:
                item.reply = sub


class RpcShardRouter(ShardRouter):
    """A :class:`~repro.cluster.router.ShardRouter` whose shards are
    long-lived server processes reached over the RPC protocol.

    Grouping a batch by owning shard and reassembling results by
    submission position are inherited unchanged, so answers and reports
    are deterministic regardless of the order shard replies arrive in.
    What changes is the dispatch hop: instead of running task specs
    through in-process backends, the router sends each shard an
    :class:`ExecuteLevel` frame carrying the specs of its nodes' tasks
    plus the exchange chunks, both as the engine holds them.
    """

    transport = "rpc"

    def __init__(
        self,
        num_nodes: int,
        num_shards: int,
        worker_backend: str = "serial",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        parallel_shards: bool = True,
        on_failure=None,
        start_method: str | None = None,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
        wire_format: str = "pickle",
        pipeline: int = DEFAULT_RPC_PIPELINE,
        coalesce_window_ms: float = 0.0,
        coalesce_max_batch: int = 1,
    ) -> None:
        if worker_backend not in INLINE_BACKENDS:
            raise ValueError(
                f"unknown worker backend {worker_backend!r}: a shard server "
                f"runs one inline engine, one of {INLINE_BACKENDS}"
            )
        check_backend_available(worker_backend)
        if wire_format not in WIRE_FORMATS:
            raise ValueError(
                f"unknown wire format {wire_format!r}; "
                f"expected one of {WIRE_FORMATS}"
            )
        if pipeline < 0:
            raise ValueError(f"pipeline must be >= 0, got {pipeline}")
        if coalesce_window_ms < 0:
            raise ValueError(
                f"coalesce_window_ms must be >= 0, got {coalesce_window_ms}"
            )
        if coalesce_max_batch < 1:
            raise ValueError(
                f"coalesce_max_batch must be >= 1, got {coalesce_max_batch}"
            )
        super().__init__(num_nodes, num_shards, parallel_shards=parallel_shards)
        #: backend label recorded on execution reports
        self.name = f"rpc:{worker_backend}"
        self.worker_backend = worker_backend
        self.wire_format = wire_format
        self.max_frame_bytes = max_frame_bytes
        self.start_method = start_method
        self.spawn_timeout = spawn_timeout
        self.pipeline = pipeline
        self.coalesce_window_ms = coalesce_window_ms
        self.coalesce_max_batch = coalesce_max_batch
        self.on_failure = on_failure
        self._counter_lock = checked(
            threading.Lock(), "RpcShardRouter._counter_lock"
        )
        self.shard_failures = 0  # guarded-by: _counter_lock
        #: level traffic counters: requests = ExecuteLevels asked for,
        #: frames = physical wire frames that carried them.  Coalescing
        #: provably merges when frames < requests.
        self.level_requests = 0  # guarded-by: _counter_lock
        self.level_frames = 0  # guarded-by: _counter_lock
        self._sub_ids = itertools.count(1)  # guarded-by: _counter_lock
        # One witness node for all shards: cross-shard nesting between
        # sibling locks is same-name and thus not edge-checked (no code
        # path holds two shard locks at once).
        self._shard_locks = [
            checked(threading.RLock(), "RpcShardRouter._shard_locks")
            for _ in range(num_shards)
        ]
        self._clients: list[ShardWorkerClient | None] = [None] * num_shards  # guarded-by: _shard_locks
        self._last_snapshot = None
        #: the owner table the fleet was last synchronized to (set by
        #: ensure_workers / migrate); stale-epoch re-routing consults it
        self._table: OwnerTable | None = None
        #: queries currently inside an execution — the coalescer
        #: only holds its window open when this exceeds one
        self.active_queries = 0  # guarded-by: _counter_lock
        self._coalescers = (
            [_LevelCoalescer(self, shard) for shard in range(num_shards)]
            if coalesce_max_batch > 1
            else None
        )

    def _dispatch_width(self) -> int:
        # Coalescer followers park on a dispatch thread until the
        # leader flushes their frame, so size the pool for the full
        # pipeline depth per shard, not just one call per shard.
        return max(4, 2 * self.num_shards,
                   max(1, self.pipeline) * self.num_shards)

    def _note_frames(self, n: int) -> None:
        with self._counter_lock:
            self.level_frames += n

    def _active_queries(self) -> int:
        with self._counter_lock:
            return self.active_queries

    def _next_sub_id(self) -> int:
        with self._counter_lock:
            return next(self._sub_ids)

    # -- lifecycle ----------------------------------------------------------

    def prime(self, ctx: TaskContext) -> None:
        """Bring the fleet up against the sharded snapshot in *ctx*."""
        self.ensure_workers(ctx.store)

    def ensure_workers(self, snapshot) -> None:
        """Spawn any missing shard server and (re-)prime stale ones.

        A worker is primed only when its resident snapshot token differs
        from its shard's current token — after a mutation, only the
        shards the batch actually touched receive a new snapshot.  The
        snapshot's owner-table version and the store's dictionary ride
        on every ``Prime``; a worker whose data is current but whose
        epoch lags (e.g. after a rolled back migration) or whose
        dictionary replica lags (the store numbered terms that landed on
        other shards) is re-synchronized with a cheap
        :class:`TableUpdate` carrying the epoch and the missing
        dictionary suffix instead of a full re-prime — unless the
        replica rejects the suffix as conflicting, which re-primes it.
        So every worker starts each query on the store's numbering.
        """
        epoch = snapshot.table.version
        dictionary = snapshot.dictionary
        # What a respawn re-primes from: set first, so a worker found
        # dead below comes back on *this* snapshot, once.
        self._last_snapshot = snapshot
        self._table = snapshot.table
        for shard in range(self.num_shards):
            with self._shard_locks[shard]:
                client = self._clients[shard]
                if client is None:
                    # First spawn of this shard's server: not a failure.
                    try:
                        client = self._start_worker(shard)
                    except Exception as exc:
                        self._record_failure(shard, f"spawn failed: {exc!r}")
                        raise ShardUnavailable(
                            shard, f"spawn failed: {exc!r}"
                        ) from exc
                elif not client.alive():
                    # The worker died since we last spoke to it: recover
                    # (which records the failure and re-primes).
                    client = self._recover(shard, "worker process died")
                shard_snapshot = snapshot.shards[shard]
                stale = client.primed_token != shard_snapshot.token
                if not stale and (
                    client.primed_epoch != epoch
                    or client.primed_terms != len(dictionary)
                ):
                    start = client.primed_terms
                    terms = dictionary.entries_from(start)
                    try:
                        self._shard_call(
                            shard,
                            TableUpdate(epoch=epoch, terms_from=start, terms=terms),
                        )
                    except WorkerStateError:
                        # The replica conflicts with the store's numbering
                        # (a task numbered a term of its own into it): a
                        # Prime replaces the replica with the store's.
                        stale = True
                    else:
                        client.primed_epoch = epoch
                        client.primed_terms = start + len(terms)
                        client.terms_shipped += len(terms)
                if stale:
                    client = self._clients[shard]
                    try:
                        self._prime(shard, client, shard_snapshot, epoch)
                    except _TRANSPORT_ERRORS as exc:
                        # Died under the prime: the one respawn primes.
                        self._recover(shard, f"{type(exc).__name__}: {exc}")

    def _prime(
        self,
        shard: int,
        client: ShardWorkerClient,
        shard_snapshot: StoreSnapshot,
        epoch: int,
        on_bytes=None,
    ) -> None:
        """Install *shard_snapshot* on *client*'s worker at *epoch*,
        and record on the client what it now holds.  Callers hold the
        shard's lock and deal with transport errors themselves."""
        # Read before the frame pickles the dictionary: the replica
        # holds at least this much.
        terms = len(shard_snapshot.dictionary)
        client.request(
            Prime(shard_snapshot, wire=self.wire_format, epoch=epoch), on_bytes
        )
        client.primed_token = shard_snapshot.token
        client.primed_epoch = epoch
        client.primed_terms = terms

    # -- live rebalancing ----------------------------------------------------

    def _grow_to(self, count: int) -> None:
        """Extend the per-shard structures (locks, client entries,
        coalescers) to *count* entries.  The lists
        only ever grow — a shrink leaves trailing entries in place so a
        query racing the flip can still index its (stale) shard and get
        the typed :class:`StaleEpoch` answer instead of an IndexError.
        """
        while len(self._shard_locks) < count:
            self._shard_locks.append(
                checked(threading.RLock(), "RpcShardRouter._shard_locks")
            )
        while len(self._clients) < count:  # lint: disable=LOCK001 — grow-only append; migrations serialize on the store write lock
            self._clients.append(None)  # lint: disable=LOCK001 — entry is None until primed under its shard lock
        if self._coalescers is not None:
            while len(self._coalescers) < count:
                self._coalescers.append(
                    _LevelCoalescer(self, len(self._coalescers))
                )

    def _set_topology(self, count: int, table, snapshot) -> None:
        """Flip the driver's view of the fleet to *count* shards at
        *table*'s epoch (:meth:`resize` retires the dispatch pool)."""
        self._table = table
        self._last_snapshot = snapshot
        self.resize(count)

    def _retire_clients(self, first: int) -> None:
        """Close every client at shard index >= *first*."""
        retired: list[ShardWorkerClient] = []
        for shard in range(first, len(self._clients)):  # lint: disable=LOCK001 — len() only; the list never shrinks
            with self._shard_locks[shard]:
                client = self._clients[shard]
                self._clients[shard] = None  # lint: disable=LOCK001 — this shard's lock is held
            if client is not None:
                retired.append(client)
        for client in retired:
            client.close()

    def migrate(self, store, moves, new_num_shards=None) -> tuple[int, ...]:
        """Execute a ``(node, src, dst)`` plan against the live worker fleet.

        Returns bytes shipped per (surviving or new) shard — the proof
        that a migration moves only the reassigned nodes' data, not a
        full re-prime.  The sequence:

        1. synchronize the fleet at the current epoch (spawns lazily),
        2. install the next table on *store* (epoch bumps to ``v+1``),
        3. spawn + fully prime new shards at ``v+1`` (their view holds
           exactly the moved-in nodes),
        4. ship surviving shards their delta as :class:`PrimeNodes`
           (data only — they stay at ``v`` and keep answering),
        5. flip every worker to ``v+1`` with :class:`TableUpdate`,
        6. retire removed shards' workers and resize the driver.

        On any failure the plan is inverted on the store (epochs stay
        monotone), the driver resizes back, and affected workers are
        lazily reconciled by the next :meth:`ensure_workers` — queries
        keep answering against the restored table.  Transport failures
        surface as typed :class:`ShardUnavailable`.

        Callers must quiesce queries across steps 2–5 (the service's
        store write lock does exactly that): between a survivor's delta
        in step 4 and the flip in step 5, old-epoch frames naming its
        moved-out nodes would scan maps it already dropped.  Queries
        that *start* against the old table and arrive
        after the flip are safe without quiescence: the worker rejects
        them typed (:class:`StaleEpoch`) and the driver re-routes.
        """
        self.ensure_workers(store.snapshot())
        old_table = self._table
        old_count = self.num_shards
        moves = tuple(moves)
        target = old_table.num_shards if new_num_shards is None else new_num_shards
        if not moves and target == old_count:
            return ()
        moved_in: dict[int, list[int]] = {}
        moved_out: dict[int, list[int]] = {}
        for node, src, dst in moves:
            moved_in.setdefault(dst, []).append(node)
            moved_out.setdefault(src, []).append(node)
        new_table = store.apply_rebalance(moves, target)
        snapshot = store.snapshot()
        new_count = new_table.num_shards
        self._grow_to(max(old_count, new_count))
        shipped = [0] * max(old_count, new_count)

        def note(shard: int):
            def on_bytes(n: int) -> None:
                shipped[shard] += n

            return on_bytes

        failed_shard = [None]
        try:
            # New shards: spawn and prime their view at the new epoch.
            # The view holds exactly the moved-in nodes' files (every
            # other node's map is empty), so a "full" prime here *is*
            # the migration delta.
            for shard in range(old_count, new_count):
                failed_shard[0] = shard
                shard_snapshot = snapshot.shards[shard]
                with span("rebalance:prime", shard=shard):
                    with self._shard_locks[shard]:
                        client = self._clients[shard]
                        if client is None or not client.alive():
                            client = self._start_worker(shard)
                        self._prime(
                            shard,
                            client,
                            shard_snapshot,
                            new_table.version,
                            note(shard),
                        )
            # Surviving shards with movement: ship only the delta.
            for shard in range(min(old_count, new_count)):
                adds_nodes = sorted(moved_in.get(shard, ()))
                drops = tuple(sorted(moved_out.get(shard, ())))
                if not adds_nodes and not drops:
                    continue
                failed_shard[0] = shard
                shard_snapshot = snapshot.shards[shard]
                adds = {
                    node: shard_snapshot.files[node] for node in adds_nodes
                }
                with span(
                    "rebalance:delta",
                    shard=shard,
                    adds=len(adds_nodes),
                    drops=len(drops),
                ):
                    with self._shard_locks[shard]:
                        self._shard_call(
                            shard,
                            PrimeNodes(
                                adds=adds, drops=drops, token=shard_snapshot.token
                            ),
                            note(shard),
                        )
                        client = self._clients[shard]
                        if client is not None:
                            client.primed_token = shard_snapshot.token
            # Flip every surviving worker to the new epoch (monotone and
            # idempotent worker-side, so a respawn-retry is harmless).
            with span("rebalance:flip", epoch=new_table.version):
                for shard in range(new_count):
                    failed_shard[0] = shard
                    with self._shard_locks[shard]:
                        client = self._clients[shard]
                        if client is not None and client.alive():
                            self._shard_call(
                                shard, TableUpdate(epoch=new_table.version)
                            )
                            client.primed_epoch = new_table.version
        except BaseException as exc:
            self._rollback_migration(store, moves, old_count)
            if isinstance(exc, ShardUnavailable):
                raise
            if isinstance(exc, _TRANSPORT_ERRORS):
                shard = failed_shard[0] if failed_shard[0] is not None else -1
                self._record_failure(shard, f"migration failed: {exc!r}")
                raise ShardUnavailable(
                    shard, f"migration failed: {exc!r}"
                ) from exc
            raise
        if new_count < old_count:
            self._retire_clients(new_count)
        self._set_topology(new_count, new_table, snapshot)
        return tuple(shipped[:new_count])

    def _rollback_migration(self, store, moves, old_count: int) -> None:
        """Undo a half-applied migration: install the inverse plan's
        table (the epoch keeps climbing — versions never reuse), resize the
        driver back, and drop any clients the grow spawned.  Workers the
        failed attempt already touched are *not* chased here; their
        primed token/epoch records are accurate, so the next
        :meth:`ensure_workers` re-primes or re-stamps exactly the stale
        ones while queries keep answering."""
        store.apply_rebalance(store.table.inverse(moves), old_count)
        snapshot = store.snapshot()
        self._retire_clients(old_count)
        self._set_topology(old_count, snapshot.table, snapshot)

    def _start_worker(self, shard: int) -> ShardWorkerClient:
        """Spawn shard *shard*'s server and handshake.

        Callers (``ensure_workers``, ``_recover``) hold this shard's lock.
        """
        old = self._clients[shard]  # lint: disable=LOCK001 — caller holds this shard's lock (see docstring)
        self._clients[shard] = None  # lint: disable=LOCK001 — caller holds this shard's lock (see docstring)
        if old is not None:
            old.close(kill=True)
        client = ShardWorkerClient(
            shard=shard,
            num_nodes=self.num_nodes,
            backend=self.worker_backend,
            max_frame_bytes=self.max_frame_bytes,
            start_method=self.start_method,
            spawn_timeout=self.spawn_timeout,
            pipeline=self.pipeline,
        )
        try:
            client.start()
        except Exception:
            client.close(kill=True)
            raise
        self._clients[shard] = client  # lint: disable=LOCK001 — caller holds this shard's lock (see docstring)
        return client

    def worker_stats(self) -> list[StatsReply]:
        """One :class:`StatsReply` per live shard server."""
        return [
            self._shard_call(shard, Stats())
            for shard in range(self.num_shards)
        ]

    def worker_gauges(self) -> list[tuple[int, StatsReply | None]]:
        """Telemetry without side effects, probed concurrently:
        ``(shard, StatsReply | None)`` pairs for the shard servers with
        a live client — ``None`` marks a probe that failed mid-flight
        (the service surfaces it as a *stale* gauge instead of raising
        or silently hiding the shard).  A never-spawned or already
        reaped shard is absent entirely (no spawn, no recovery, no
        failure recorded).  Probes fan out on the dispatch pool so one
        slow worker does not serialize the sweep."""
        probes: list[tuple[int, ShardWorkerClient]] = []
        for shard in range(self.num_shards):
            with self._shard_locks[shard]:
                client = self._clients[shard]
            if client is None or not client.alive():
                continue
            probes.append((shard, client))

        def probe(client: ShardWorkerClient) -> StatsReply | None:
            try:
                return client.request(Stats())
            except Exception:
                return None

        if len(probes) > 1:
            pool = self._dispatch_pool()
            futures = [(s, pool.submit(probe, c)) for s, c in probes]
            return [(s, f.result()) for s, f in futures]
        return [(s, probe(c)) for s, c in probes]

    def wire_stats(self) -> list[tuple[int, dict]]:
        """Driver-side transport counters per live shard connection:
        frames and bytes sent, and the dictionary terms suffix syncs
        shipped.  Point-in-time advisory reads — no RPC, no blocking on
        in-flight requests."""
        out: list[tuple[int, dict]] = []
        for shard in range(self.num_shards):
            with self._shard_locks[shard]:
                client = self._clients[shard]
            if client is None:
                continue
            out.append(
                (
                    shard,
                    {
                        "frames_sent": client.frames_sent,
                        "bytes_sent": client.bytes_sent,
                        "terms_shipped": client.terms_shipped,
                    },
                )
            )
        return out

    def close(self) -> None:
        # len(self._clients) can exceed num_shards after a shrink (the
        # per-shard lists only grow); retire every entry either way.
        for shard in range(len(self._clients)):  # lint: disable=LOCK001 — len() only; the list never shrinks
            with self._shard_locks[shard]:
                client = self._clients[shard]
                self._clients[shard] = None
            if client is not None:
                client.close()
        super().close()

    # -- failure handling ---------------------------------------------------

    def _record_failure(self, shard: int, reason: str) -> None:
        # Distinct shards fail concurrently (each path holds only its
        # own shard lock), so the shared tally needs the counter mutex.
        with self._counter_lock:
            self.shard_failures += 1
        if self.on_failure is not None:
            try:
                self.on_failure(shard, reason)
            except Exception:
                pass

    def _recover(self, shard: int, reason: str) -> ShardWorkerClient:
        """Respawn a dead worker: restart and re-prime.

        Records the failure that triggered the recovery; a failed
        respawn records a second failure and raises
        :class:`ShardUnavailable`.  Callers hold the shard lock.
        """
        self._record_failure(shard, reason)
        try:
            client = self._start_worker(shard)
            if self._last_snapshot is not None:
                self._prime(
                    shard,
                    client,
                    self._last_snapshot.shards[shard],
                    self._last_snapshot.table.version,
                )
            return client
        except Exception as exc:
            self._record_failure(shard, f"respawn failed: {exc!r}")
            self._clients[shard] = None  # lint: disable=LOCK001 — caller holds this shard's lock (see docstring)
            raise ShardUnavailable(shard, f"respawn failed: {exc!r}") from exc

    def _ensure_client(self, shard: int) -> ShardWorkerClient:
        """The shard's live client, recovering a dead one (recorded as
        a failure, matching the in-call discovery semantics)."""
        with self._shard_locks[shard]:
            client = self._clients[shard]
            if client is None or not client.alive():
                client = self._recover(shard, "worker process is not running")
            return client

    def _recover_from(
        self, shard: int, failed: ShardWorkerClient, reason: str
    ) -> ShardWorkerClient:
        """Recover after *failed* saw a transport error — once per dead
        worker: when another thread already replaced it, reuse its
        client instead of respawning (and counting a failure) again."""
        with self._shard_locks[shard]:
            current = self._clients[shard]
            if current is not None and current is not failed and current.alive():
                return current
            return self._recover(shard, reason)

    def _shard_call(self, shard: int, msg, on_bytes=None, on_wire=None):
        """One request to one shard, with the one-respawn retry budget.

        The shard lock guards only client lookup and recovery — the
        round trip itself runs outside it, so concurrent queries
        multiplex on the worker connection instead of serializing
        behind a per-shard lock.  A typed :class:`ErrorReply` from a
        live worker re-raises as-is (the request failed, not the
        worker).  A transport failure means the worker died: it is
        respawned, its snapshot re-primed, and the request retried
        exactly once (safe: a level is self-contained and a fresh
        worker holds nothing but the snapshot); any further failure
        raises :class:`ShardUnavailable`.  A successful
        retry of a traced execute frame is marked by an ``rpc:retry``
        span covering respawn + resend on every contributing trace.
        """
        client = self._ensure_client(shard)
        try:
            return client.request(msg, on_bytes, on_wire)
        except _TRANSPORT_ERRORS as exc:
            retry_start = time.perf_counter()
            retry = self._recover_from(
                shard, client, f"{type(exc).__name__}: {exc}"
            )
            try:
                reply = retry.request(msg, on_bytes, on_wire)
            except _TRANSPORT_ERRORS as retry_exc:
                self._record_failure(
                    shard, f"request failed after respawn: {retry_exc!r}"
                )
                raise ShardUnavailable(
                    shard, f"request failed after respawn: {retry_exc!r}"
                ) from retry_exc
            retry_end = time.perf_counter()
            for ctx in _frame_trace_ctxs(msg):
                record_remote(
                    ctx,
                    "rpc:retry",
                    retry_start,
                    retry_end,
                    shard=shard,
                    error=type(exc).__name__,
                )
            return reply

    # -- execution -----------------------------------------------------------

    @contextmanager
    def execution(
        self, ctx: TaskContext, report: ExecutionReport
    ) -> Iterator[TaskContext]:
        """The base bracket, counted as an active query for its whole
        length (the coalescers' gate) and closed by stamping the
        query's wire counters on the report."""
        with self._counter_lock:
            self.active_queries += 1
        try:
            with super().execution(ctx, report) as ctx:
                yield ctx
        finally:
            with self._counter_lock:
                self.active_queries -= 1
        state: _RpcExecution = ctx.dispatch
        report.shard_bytes = tuple(state.bytes)
        report.shard_frames = tuple(state.frames)

    def _open(self, ctx: TaskContext) -> _RpcExecution:
        """Start one query: the fleet synchronized to its snapshot,
        zeroed counters — nothing about the query's plan is announced."""
        snapshot = self._snapshot_of(ctx)
        self.ensure_workers(snapshot)
        return _RpcExecution(
            table=snapshot.table,
            tasks=[0] * snapshot.num_shards,
            rows=[0] * snapshot.num_shards,
            bytes=[0] * snapshot.num_shards,
            frames=[0] * snapshot.num_shards,
        )

    # -- the dispatch hop ----------------------------------------------------

    def _send_level(
        self, shard: int, msg: ExecuteLevel, exec_ctx: _RpcExecution | None
    ):
        """An ExecuteLevel round trip, traced when the frame carries a
        context: the driver records an ``rpc:level`` span over the
        round trip and re-anchors the worker's shipped span records
        (plus the reply-encode time from the envelope) under it."""
        on_bytes = (
            None if exec_ctx is None else (lambda n: exec_ctx.add(shard, n))
        )
        if msg.trace_ctx is None:
            return self._shard_call(shard, msg, on_bytes)
        wire: list[WireTimes] = []
        start = time.perf_counter()
        reply = self._shard_call(shard, msg, on_bytes, wire.append)
        _record_level_span(
            msg, reply, start, time.perf_counter(), wire[-1], shard
        )
        return reply

    def _level_call(
        self, shard: int, msg: ExecuteLevel, exec_ctx: _RpcExecution | None
    ):
        """Route one level to its shard: through the coalescer when
        cross-query batching is on, directly otherwise."""
        with self._counter_lock:
            self.level_requests += 1
        if self._coalescers is not None:
            return self._coalescers[shard].submit(msg, exec_ctx)
        self._note_frames(1)
        return self._send_level(shard, msg, exec_ctx)

    def _reroute_level(self, msg: ExecuteLevel, nodes: list[int], exec_ctx):
        """Resend a stale-stamped level's tasks under the current table.

        A worker rejected *msg* because a rebalance flipped the owner
        table after this query was routed.  The tasks themselves are
        placement-level facts — *nodes*, the node each runs on, never
        change, only which shard *hosts* a node — so they are regrouped
        by the current table and resent, stamped with its epoch.  The map
        phase's ``inputs`` travel unchanged to every target: they are
        keyed by node-sliced file name, and a superset is harmless.
        Results are reassembled in the original task order, keeping the
        deterministic merge upstream byte-identical.
        """
        table = self._table
        if table is None:
            raise RpcError("no owner table to re-route against")
        groups: dict[int, list[int]] = {}
        for index, node in enumerate(nodes):
            groups.setdefault(table.shard_of_node(node), []).append(index)
        results: list = [None] * len(msg.tasks)
        for shard in sorted(groups):
            indices = groups[shard]
            sub = dataclass_replace(
                msg,
                tasks=tuple(msg.tasks[i] for i in indices),
                epoch=table.version,
            )
            with self._counter_lock:
                self.level_requests += 1
            self._note_frames(1)
            reply = self._send_level(shard, sub, exec_ctx)
            for i, result in zip(indices, reply.results):
                results[i] = result
        return ResultsReply(results=results)

    def _run_shard(self, shard, batch, ctx, tctx):
        state: _RpcExecution = ctx.dispatch
        phase = batch[0].phase
        if phase == "map":
            # Ship only the shuffled intermediates this shard's map
            # chains actually read, cut to the shard's own nodes (a map
            # shuffler reads nothing but its node's partition).
            owner = state.table.shard_of_node
            inputs = {}
            for name in sorted(
                {name for inv in batch for name in inv.spec.hdfs_inputs()}
            ):
                relation = ctx.hdfs.read(name)
                inputs[name] = DistributedRelation(
                    attrs=relation.attrs,
                    partitions=[
                        part if owner(node) == shard else []
                        for node, part in enumerate(relation.partitions)
                    ],
                )
            tasks = tuple(inv.spec for inv in batch)
        else:
            inputs = {}
            tasks = tuple((inv.spec, *inv.args) for inv in batch)
        msg = ExecuteLevel(
            level=batch[0].level,
            phase=phase,
            tasks=tasks,
            inputs=inputs,
            trace_ctx=tctx,
            epoch=state.table.version,
        )
        try:
            reply = self._level_call(shard, msg, state)
        except StaleEpoch:
            # The topology moved under this query (a rebalance flipped
            # the owner table after it was routed): regroup the same
            # tasks by the current table and resend.
            reply = self._reroute_level(
                msg, [inv.node for inv in batch], state
            )
        if len(reply.results) != len(batch):
            raise RpcProtocolError(
                f"shard {shard} returned {len(reply.results)} results "
                f"for {len(batch)} tasks"
            )
        return reply.results


__all__ = [
    "BatchReply",
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_RPC_PIPELINE",
    "ErrorReply",
    "ExecuteBatch",
    "ExecuteLevel",
    "FrameTooLarge",
    "MESSAGE_TYPES",
    "OkReply",
    "Prime",
    "PrimeNodes",
    "Reply",
    "Request",
    "ResultsReply",
    "RpcError",
    "RpcProtocolError",
    "RpcShardRouter",
    "ShardUnavailable",
    "ShardWorkerClient",
    "Shutdown",
    "StaleEpoch",
    "Stats",
    "StatsReply",
    "TableUpdate",
    "WorkerSpawnError",
    "WorkerStateError",
    "store_token",
]
