"""The shard protocol's data: its typed errors and its frames.

Every frame is a frozen dataclass that pickles by reference to its
class.  The driver sends a worker :class:`Sync`, :class:`ExecuteLevel`,
:class:`ExecuteBatch`, :class:`Stats` and :class:`Shutdown`, each in a
:class:`Request` envelope; the worker answers in a :class:`Reply`
envelope.  Which end handles which frame is declared beside the
worker's dispatch (:mod:`repro.cluster.worker`); the driver's protocol
state is :class:`repro.cluster.client.ShardLink`'s.

This module holds data and :func:`sync_frame` only: it touches no
socket, thread or process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

from repro.mapreduce.hdfs import DistributedRelation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.partitioning.triple_partitioner import StoreSnapshot
    from repro.rdf.dictionary import Dictionary


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
    handles it by re-routing the frame's tasks against the fleet's table
    (:meth:`repro.cluster.router.ShardRouter._reroute_level`), so a query that
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

    def __reduce__(self) -> tuple[type[StaleEpoch], tuple[int, int, int]]:
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

    def __reduce__(self) -> tuple[type[ShardUnavailable], tuple[int, str]]:
        # The two-argument constructor breaks default exception
        # pickling; errors in this module must survive a pickled hop.
        return (ShardUnavailable, (self.shard, self.message))


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
    terms: Sequence[str] | Dictionary = ()
    epoch: int = 0


def node_versions(token: tuple | None) -> dict[int, int] | None:
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
    old = None if held is None else node_versions(held[0])
    new = node_versions(view.token)
    if held is None or old is None or new is None or held[0][0] != view.token[0]:
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


class WireTimes(NamedTuple):
    """The instants that split one round trip between the two ends
    (driver ``perf_counter``), and what only the worker could time."""

    #: the request frame went to the socket
    sent: float
    #: the worker's reply-encode seconds (:attr:`Reply.encode_s`)
    worker_encode_s: float
    #: the reader thread had the reply's bytes
    received: float
