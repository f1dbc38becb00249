"""The shard worker: what a §5 node holds, and the loop that serves it.

A shard is one :class:`_WorkerState`, whichever carrier reaches it
(:mod:`repro.cluster.client`).  Like a §5 node it holds, resident, its
shard's §5.1 partition files (a :class:`~repro.partitioning
.triple_partitioner.StoreSnapshot`, kept current by one frame,
:class:`~repro.cluster.frames.Sync`), one engine — the id-space one;
the shards are the parallelism — and its topology epoch and counters.
It holds **nothing about plans**: a query reaches it as one
:class:`~repro.cluster.frames.ExecuteLevel` per level and phase,
carrying the task specs themselves plus the exchange chunks, the way a
Hadoop node is handed a job's task code with the job.

:meth:`_WorkerState.handle` is the one place a frame changes or reads
worker state, whichever carrier delivered it.  Over rpc the worker is
a server process whose loop, :func:`_worker_main`, keeps only the
socket.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import Listener

from repro.analysis.locks import ReadWriteLock, checked
from repro.cluster.frames import (
    BatchReply,
    ErrorReply,
    ExecuteBatch,
    ExecuteLevel,
    FrameTooLarge,
    OkReply,
    Reply,
    Request,
    ResultsReply,
    RpcError,
    RpcProtocolError,
    Shutdown,
    StaleEpoch,
    Stats,
    StatsReply,
    Sync,
    WorkerStateError,
    node_versions,
)
from repro.columnar.block import ColumnBlock
from repro.columnar.engine import task_groups
from repro.columnar.wire import WireCodec
from repro.mapreduce.backends import (
    ColumnarBackend,
    TaskBatch,
    TaskInvocation,
    task_timing,
)
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.jobs import TaskContext
from repro.obs.trace import SpanAccumulator
from repro.partitioning.layout import PLACEMENTS
from repro.partitioning.triple_partitioner import StoreSnapshot

#: Task spans a traced :class:`ExecuteLevel` ships back per level — one
#: per task group the engine ran; further ones are summarized by a
#: ``task_spans_dropped`` attribute on the execute span (span records
#: travel over the wire).
MAX_TASK_SPANS = 16


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
    behind :class:`~repro.cluster.client.LocalShardClient`, in the driver.

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
        in-process carrier both call this); returns its reply,
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
            node_versions(held) is not None
            and node_versions(token) is not None
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
    tuple spec's output — crosses as its rows, so its string cells
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
    carry the request id of their envelope (``-1`` for a failure no
    request owns) and are encoded by the thread that finished them (the
    send lock covers only the write, since nothing orders the encodings).
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

