"""The driver side of a shard: one protocol link, two carriers.

:class:`ShardLink` is the driver's protocol state for one worker and
touches no socket, thread or process: request ids and the pending
replies, the record of what the worker holds, the frame and byte
counters, and the sync step.  Two carriers drive it and move the frames:

* :class:`LocalShardClient` hands a :class:`~repro.cluster.worker
  ._WorkerState` in the driver process each frame as the object it is —
  no pickle, no codec, so blocks cross by reference;
* :class:`ShardWorkerClient` owns a worker server process and the
  authenticated localhost socket to it, **multiplexed**: the calling
  thread encodes a request and writes it under a lock held only across
  the write, and a reader thread hands each reply to the link — no lock
  is held across a round trip.  Both ends number terms as the store
  does, so on the columnar wire a level or results frame crosses as one
  pickle plus one id buffer, translated nowhere.  Oversized frames,
  unknown message types, specs that do not pickle and ids no store
  numbered surface as typed errors, never hangs or wrong answers.

Retries are safe because workers are stateless between levels: a level
frame that arrives twice runs twice, and the link drops the reply no
waiter owns.  Which workers exist, and when one is respawned or
retired, is :class:`repro.cluster.fleet.Fleet`'s to decide; routing,
epochs and the stale re-route are :class:`repro.cluster.router
.ShardRouter`'s, which carries the fleet's actions out.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import Future
from multiprocessing.connection import Client
from types import SimpleNamespace
from typing import Callable

from repro.analysis.locks import checked
from repro.cluster.frames import (
    ErrorReply,
    ExecuteBatch,
    ExecuteLevel,
    FrameTooLarge,
    Reply,
    Request,
    RpcProtocolError,
    Shutdown,
    Stats,
    StatsReply,
    Sync,
    WireTimes,
    WorkerSpawnError,
    WorkerStateError,
    sync_frame,
)
from repro.cluster.worker import (
    _as_error_reply,
    _no_delay,
    _worker_main,
    _WorkerState,
)
from repro.columnar.wire import WireCodec
from repro.mapreduce.backends import DEFAULT_RPC_PIPELINE

#: Hard cap on one pickled message frame (request or reply).  Large
#: enough for any realistic exchange payload, small enough that a
#: runaway frame fails typed instead of exhausting memory.
DEFAULT_MAX_FRAME_BYTES = 128 * 1024 * 1024

#: Seconds to wait for a spawned worker to report its listening address.
DEFAULT_SPAWN_TIMEOUT = 60.0

#: Connection-level failures that mean "the worker process is gone"
#: (as opposed to a typed error reply, which means the *request* failed
#: on a live worker).  BrokenPipeError/ConnectionError are OSErrors.
_TRANSPORT_ERRORS = (EOFError, OSError)


def _frame_levels(msg) -> list:
    """The levels an outgoing frame carries: a batch's members, else
    the frame itself."""
    items = getattr(msg, "items", None)
    return [msg] if items is None else [level for _rid, level in items]


def _unpicklable(msg) -> str:
    """Name what keeps an outgoing frame from pickling: the class of
    the first task spec that does not, else the frame's own."""
    for level in _frame_levels(msg):
        for task in getattr(level, "tasks", ()):
            spec = task[0] if isinstance(task, tuple) else task
            try:
                pickle.dumps(spec)
            except Exception:
                return type(spec).__name__
    return type(msg).__name__


class ShardLink:
    """The driver's protocol state for one shard worker, with no I/O.

    A carrier drives one request as :meth:`open` (an id and a pending
    waiter; refused once the link is lost), :meth:`sent` when the frame
    left (or :meth:`cancel` when it never did), :meth:`receive` when a
    reply arrives, and :meth:`finish` to await and unwrap it.
    :meth:`sync` is the one step that changes what the worker holds.

    A lost link keeps the ``repr`` of its error, not the exception:
    the exception's traceback holds the frames of the carrier that
    lost it, and a carrier → link → exception → traceback → frame →
    carrier cycle would leave a closed carrier (and its snapshot's
    dictionary) to the cycle collector.
    """

    def __init__(self, shard: int, columnar: bool = False) -> None:
        self.shard = shard
        #: whether a full sync gives this link a columnar codec
        self.columnar = columnar
        self._waiters_lock = checked(threading.Lock(), "ShardLink._waiters_lock")
        self._waiters: dict[int, Future] = {}  # guarded-by: _waiters_lock
        self._ids = itertools.count(1)  # guarded-by: _waiters_lock
        #: why the link was lost, as text; None while it serves
        self.lost: str | None = None  # guarded-by: _waiters_lock
        self.frames_sent = 0  # guarded-by: _waiters_lock
        self.bytes_sent = 0  # guarded-by: _waiters_lock
        #: the columnar wire codec over the store's dictionary, built by
        #: the first full sync the worker acknowledged (a quiescence
        #: point: no frame straddles it); None on the pickle wire
        self.codec: WireCodec | None = None
        #: what the worker holds: the ``(token, epoch)`` its last sync
        #: acknowledged and the dictionary length synced (None: nothing)
        self.synced: tuple | None = None
        #: dictionary terms shipped by delta syncs
        self.terms_shipped = 0

    # -- the pending table -------------------------------------------------

    def open(self) -> tuple[int, Future]:
        """A new request's id and the waiter its reply resolves, with
        ``(payload, worker encode seconds, instant read)``."""
        waiter: Future = Future()
        with self._waiters_lock:
            if self.lost is not None:
                raise ConnectionError(
                    f"shard {self.shard} connection lost: {self.lost}"
                )
            rid = next(self._ids)
            self._waiters[rid] = waiter
        return rid, waiter

    def sent(self, nbytes: int) -> None:
        """Count one frame of *nbytes* that left for the worker."""
        with self._waiters_lock:
            self.frames_sent += 1
            self.bytes_sent += nbytes

    def cancel(self, rid: int) -> None:
        """Forget request *rid*, whose frame never left."""
        with self._waiters_lock:
            self._waiters.pop(rid, None)

    def receive(
        self, rid: int, payload, encode_s: float = 0.0, received: float = 0.0
    ) -> None:
        """Resolve the waiter of request *rid* with *payload*.  A reply
        no waiter owns (its request gave up) is dropped; id ``-1`` is a
        broadcast that fails every pending request, and the link serves
        on."""
        if rid == -1:
            self._fail(
                payload.error
                if isinstance(payload, ErrorReply)
                else RpcProtocolError(
                    f"shard {self.shard} broadcast an unexpected "
                    f"{type(payload).__name__!r}"
                )
            )
            return
        with self._waiters_lock:
            waiter = self._waiters.pop(rid, None)
        if waiter is not None:
            waiter.set_result((payload, encode_s, received))

    def lose(self, error: BaseException) -> None:
        """The connection is gone: fail what is pending and refuse every
        later request with :class:`ConnectionError`."""
        self._fail(error, lost=True)

    def _fail(self, error: BaseException, lost: bool = False) -> None:
        with self._waiters_lock:
            if lost:
                self.lost = repr(error)
            waiters, self._waiters = self._waiters, {}
        for waiter in waiters.values():
            waiter.set_exception(error)

    def finish(
        self,
        msg,
        waiter: Future,
        sent: float,
        nbytes: int,
        on_bytes: Callable[[int], None] | None = None,
        on_wire: Callable[[WireTimes], None] | None = None,
    ):
        """Await *msg*'s reply; report its *nbytes* and the round trip's
        :class:`~repro.cluster.frames.WireTimes` (from *sent*, when the
        frame left) to the callbacks, and return the reply or raise the
        typed error the worker replied with.  The first full sync a
        columnar worker acknowledges gives the link its codec, over the
        dictionary the sync carried."""
        reply, encode_s, received = waiter.result()
        if (
            self.columnar
            and self.codec is None
            and isinstance(msg, Sync)
            and msg.base is None
            and not isinstance(reply, ErrorReply)
        ):
            self.codec = WireCodec(SimpleNamespace(dictionary=msg.terms))
        if on_bytes is not None:
            on_bytes(nbytes)
        if on_wire is not None:
            on_wire(WireTimes(sent, encode_s, received))
        if isinstance(reply, ErrorReply):
            raise reply.error
        return reply

    # -- what the worker holds ---------------------------------------------

    def sync(self, snapshot, request: Callable, on_bytes=None) -> None:
        """Bring the worker to its shard's view of *snapshot*, at that
        snapshot's epoch and the store dictionary's length, through
        *request* (a carrier's): no frame when the record says it holds
        all three already, a delta :class:`~repro.cluster.frames.Sync`
        otherwise, and a full one when the worker refuses the delta (it
        holds another base, or its replica conflicts with the store's
        numbering).  Records what the worker acknowledges holding."""
        view = snapshot.shards[self.shard]
        epoch = snapshot.table.version
        if self.synced == (view.token, epoch, len(view.dictionary)):
            return
        frame = sync_frame(self.synced, view, epoch)
        try:
            reply = request(frame, on_bytes)
        except WorkerStateError:
            frame = sync_frame(None, view, epoch)
            reply = request(frame, on_bytes)
        if frame.base is not None:
            self.terms_shipped += len(frame.terms)
        self.synced = (*reply.value, len(view.dictionary))

    def wire_stats(self) -> dict[str, int]:
        """Frames and bytes sent, and dictionary terms delta syncs shipped."""
        with self._waiters_lock:
            return {
                "frames_sent": self.frames_sent,
                "bytes_sent": self.bytes_sent,
                "terms_shipped": self.terms_shipped,
            }


# -- the socket carrier ----------------------------------------------------------


class ShardWorkerClient:
    """Driver-side handle on one shard server process: its process, its
    socket, the reader thread and the encoding, around a
    :class:`ShardLink`.

    ``pipeline=0`` restores the strictly serial request-response
    discipline (one outstanding request at a time) — the baseline the
    multiplexed mode is benchmarked against.  ``wire_format`` is how
    level frames and their replies cross the connection, fixed when the
    worker is spawned: ``"columnar"`` (one pickle plus one id buffer per
    frame, :mod:`repro.columnar.wire`) or ``"pickle"`` (plain pickles; a
    block pickles as its rows).
    """

    def __init__(
        self,
        shard: int,
        num_nodes: int,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
        pipeline: int = DEFAULT_RPC_PIPELINE,
        wire_format: str = "columnar",
    ) -> None:
        self.shard = shard
        self.num_nodes = num_nodes
        self.max_frame_bytes = max_frame_bytes
        self.spawn_timeout = spawn_timeout
        self.pipeline = pipeline
        self.wire_format = wire_format
        self.link = ShardLink(shard, columnar=wire_format == "columnar")
        # process/conn are swapped to None under _close_lock on close;
        # the send/request paths re-read them under their own locks and
        # treat None as "worker gone" (ConnectionError), so a torn read
        # is impossible and a stale non-None at worst fails the send.
        self.process = None
        self.conn = None
        self._send_lock = checked(threading.Lock(), "ShardWorkerClient._send_lock")
        self._close_lock = checked(threading.Lock(), "ShardWorkerClient._close_lock")
        self._reader: threading.Thread | None = None
        self._serial_lock = (
            checked(threading.Lock(), "ShardWorkerClient._serial_lock")
            if pipeline == 0
            else None
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> StatsReply:
        """Spawn the server process, connect, and health-check it (a
        :class:`~repro.cluster.frames.Stats` round trip: shard, pid,
        snapshot token).  Fork where available (workers receive their
        snapshot over the socket, so fork buys only startup speed)."""
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
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
        """Shut the worker down (gracefully unless *kill*); idempotent.

        *kill* SIGKILLs the worker first: its end of the connection
        closes with it, so the reader sees EOF at once instead of
        waiting out its join on a worker that never hears a Shutdown.
        """
        with self._close_lock:
            conn, self.conn = self.conn, None
            process, self.process = self.process, None
        if kill and process is not None:
            try:
                process.kill()
            except OSError:
                pass  # _reap below tries again
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
        order and hands each to the link.  A transport error loses the
        link and ends the loop — the next request raises a
        ConnectionError and the router's respawn path takes over."""
        link = self.link
        try:
            while True:
                data = conn.recv_bytes(self.max_frame_bytes)
                received = time.perf_counter()
                reply = pickle.loads(data)
                if not isinstance(reply, Reply):
                    continue
                payload = reply.payload
                if type(payload) is bytes:  # results on the columnar wire
                    payload = link.codec.loads(payload)
                link.receive(reply.id, payload, reply.encode_s, received)
        except BaseException as exc:
            link.lose(exc)

    def request(self, msg, on_bytes=None, on_wire=None):
        """One request/reply exchange; raises the typed error a worker
        replied with, or a transport error when the worker is gone.

        Thread-safe: the request is encoded (on a columnar connection
        an ``ExecuteLevel`` / ``ExecuteBatch`` framed by the codec) by
        the calling thread, the send lock is held only across the write,
        and the reply is awaited outside every lock, so concurrent
        requests pipeline on the socket.  ``on_bytes`` and ``on_wire``
        are :meth:`ShardLink.finish`'s.
        """
        if self._serial_lock is not None:
            with self._serial_lock:
                return self._request(msg, on_bytes, on_wire)
        return self._request(msg, on_bytes, on_wire)

    def _request(self, msg, on_bytes=None, on_wire=None):
        if self.conn is None:
            raise ConnectionError(f"shard {self.shard} worker is not running")
        link = self.link
        rid, waiter = link.open()
        try:
            # Nothing is written unless the whole frame pickles, so a
            # frame rejected here leaves the connection serving on.
            codec = link.codec
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
        except BaseException:
            link.cancel(rid)
            raise
        link.sent(len(payload))
        return link.finish(msg, waiter, sent, len(payload), on_bytes, on_wire)


# -- the in-memory carrier ------------------------------------------------------


class LocalShardClient:
    """Driver-side handle on one in-process shard worker: the
    :class:`ShardWorkerClient` surface over an in-memory carrier.

    Owns one :class:`~repro.cluster.worker._WorkerState` and hands it
    each request frame as the object it is, on the calling thread — no
    pickle, no codec, no socket, so file maps and blocks cross by
    reference and ``bytes_sent`` stays 0.  The frame still takes a
    request id and passes through the link's pending table, and a typed
    error the worker raises reaches the caller as an
    :class:`~repro.cluster.frames.ErrorReply` re-raises over the socket.
    The socket options (frame cap, start method, spawn timeout,
    pipeline, wire format) mean nothing in memory and are ignored.
    """

    def __init__(self, shard: int, num_nodes: int, **_socket) -> None:
        self.shard = shard
        self.num_nodes = num_nodes
        #: the shard's worker state; None once closed
        self.worker: _WorkerState | None = None
        self.link = ShardLink(shard)

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
        link = self.link
        rid, waiter = link.open()
        link.sent(0)
        sent = time.perf_counter()
        try:
            reply = worker.handle(msg, sent, sent)
        except BaseException as exc:
            reply = _as_error_reply(exc)
        link.receive(rid, reply, received=time.perf_counter())
        return link.finish(msg, waiter, sent, 0, on_bytes, on_wire)
