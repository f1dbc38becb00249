"""The driver's protocol state for one shard worker, with no I/O.

:class:`ShardLink` is driven here by hand — no process, no socket, no
thread: requests are opened, replies handed in as the socket carrier's
reader would hand them, and the sync step runs over a scripted
``request`` callable.  The last test checks that the in-memory carrier
drives the same link.
"""

from __future__ import annotations

import pytest

from repro.cluster import shard_graph
from repro.cluster.client import LocalShardClient, ShardLink
from repro.cluster.frames import (
    ErrorReply,
    ExecuteLevel,
    OkReply,
    RpcProtocolError,
    Stats,
    StatsReply,
    Sync,
    WorkerStateError,
    sync_frame,
)
from repro.columnar.wire import WireCodec
from tests.conftest import make_university_graph

NUM_NODES = 4


@pytest.fixture()
def store():
    return shard_graph(make_university_graph(), NUM_NODES, 2)


class ScriptedWorker:
    """A ``request`` callable acknowledging every :class:`Sync` it is
    sent, refusing deltas while ``refuse_deltas`` is set."""

    def __init__(self) -> None:
        self.frames: list[Sync] = []
        self.refuse_deltas = False

    def __call__(self, frame: Sync, on_bytes=None) -> OkReply:
        self.frames.append(frame)
        if self.refuse_deltas and frame.base is not None:
            raise WorkerStateError("holds another base")
        return OkReply((frame.token, frame.epoch))


def exchange(link: ShardLink, payload, msg=Stats()):
    """One request answered with *payload*, as a carrier drives it."""
    rid, waiter = link.open()
    link.sent(10)
    link.receive(rid, payload)
    return link.finish(msg, waiter, 0.0, 10)


def test_a_reply_to_an_unknown_id_is_dropped():
    link = ShardLink(0)
    rid, waiter = link.open()
    link.receive(rid + 1, OkReply("stray"))
    link.receive(rid, OkReply("mine"))
    link.receive(rid, OkReply("duplicate"))
    assert link.finish(Stats(), waiter, 0.0, 0) == OkReply("mine")
    assert not link._waiters


def test_the_broadcast_id_fails_every_pending_request_and_the_link_serves_on():
    link = ShardLink(0)
    waiters = [link.open()[1] for _ in range(3)]
    link.receive(-1, ErrorReply(RpcProtocolError("undecodable frame")))
    for waiter in waiters:
        with pytest.raises(RpcProtocolError, match="undecodable"):
            waiter.result()
    # A broadcast that carries no error still fails them, typed.
    _rid, waiter = link.open()
    link.receive(-1, OkReply())
    with pytest.raises(RpcProtocolError, match="unexpected 'OkReply'"):
        waiter.result()
    assert link.lost is None
    assert exchange(link, OkReply(1)) == OkReply(1)


def test_a_lost_link_fails_what_is_pending_and_refuses_new_requests():
    link = ShardLink(3)
    _rid, waiter = link.open()
    link.lose(EOFError("worker gone"))
    with pytest.raises(EOFError, match="worker gone"):
        waiter.result()
    # The error is kept as text: no exception (and no traceback frame
    # holding a carrier) outlives the loss.
    assert link.lost == "EOFError('worker gone')"
    with pytest.raises(ConnectionError, match="shard 3 connection lost: EOFError"):
        link.open()
    assert not link._waiters


def test_a_frame_that_never_left_leaves_no_waiter():
    link = ShardLink(0)
    rid, _waiter = link.open()
    link.cancel(rid)
    assert not link._waiters
    assert link.wire_stats() == {"frames_sent": 0, "bytes_sent": 0, "terms_shipped": 0}


def test_an_error_reply_raises_its_typed_error_after_the_callbacks():
    link = ShardLink(0)
    seen = []
    rid, waiter = link.open()
    link.sent(7)
    link.receive(rid, ErrorReply(WorkerStateError("no snapshot")), 0.25, 2.0)
    with pytest.raises(WorkerStateError, match="no snapshot"):
        link.finish(Stats(), waiter, 1.0, 7, seen.append, seen.append)
    assert seen[0] == 7
    assert tuple(seen[1]) == (1.0, 0.25, 2.0)
    assert link.wire_stats()["frames_sent"] == 1


def test_no_sync_is_sent_when_the_record_is_current(store):
    link, worker = ShardLink(0), ScriptedWorker()
    link.sync(store.snapshot(), worker)
    assert [f.base for f in worker.frames] == [None]
    link.sync(store.snapshot(), worker)
    assert len(worker.frames) == 1
    view = store.snapshot().shards[0]
    assert link.synced == (view.token, 0, len(store.dictionary))


def test_a_refused_delta_is_answered_by_a_full_sync(store):
    link, worker = ShardLink(0), ScriptedWorker()
    link.sync(store.snapshot(), worker)
    store.add_all([("<new-s>", "ub:p", "<new-o>")])
    worker.refuse_deltas = True
    link.sync(store.snapshot(), worker)
    delta, full = worker.frames[1:]
    assert delta.base is not None and full.base is None
    assert full.terms is store.dictionary
    # The full sync shipped the dictionary, not a suffix.
    assert link.terms_shipped == 0
    view = store.snapshot().shards[0]
    assert link.synced == (view.token, 0, len(store.dictionary))


def test_terms_shipped_counts_only_delta_terms(store):
    link, worker = ShardLink(0), ScriptedWorker()
    link.sync(store.snapshot(), worker)
    assert link.terms_shipped == 0
    before = len(store.dictionary)
    store.add_all([("<t1>", "ub:p", "<t2>"), ("<t3>", "ub:p", "<t1>")])
    link.sync(store.snapshot(), worker)
    delta = worker.frames[-1]
    assert delta.base is not None and delta.terms_from == before
    assert link.terms_shipped == len(delta.terms) == len(store.dictionary) - before
    assert link.wire_stats()["terms_shipped"] == link.terms_shipped


def test_the_first_acknowledged_full_sync_gives_a_columnar_link_its_codec(store):
    view = store.snapshot().shards[0]
    full = sync_frame(None, view, 0)
    refused = ShardLink(0, columnar=True)
    with pytest.raises(WorkerStateError):
        exchange(refused, ErrorReply(WorkerStateError("no")), full)
    assert refused.codec is None
    link = ShardLink(0, columnar=True)
    exchange(link, OkReply((view.token, 0)), full)
    assert isinstance(link.codec, WireCodec)
    assert link.codec.dictionary is store.dictionary
    pickle_wire = ShardLink(0)
    exchange(pickle_wire, OkReply((view.token, 0)), full)
    assert pickle_wire.codec is None


def test_the_in_memory_carrier_drives_the_same_link(store, monkeypatch):
    """An in-process frame takes a request id, passes through the pending
    table and is counted; a typed worker error comes back through the
    link; the sync step runs over the carrier as it does over rpc."""
    answered = []
    receive = ShardLink.receive

    def spy(self, rid, payload, *args, **kwargs):
        answered.append((rid, type(payload).__name__))
        return receive(self, rid, payload, *args, **kwargs)

    monkeypatch.setattr(ShardLink, "receive", spy)
    client = LocalShardClient(shard=1, num_nodes=NUM_NODES)
    try:
        assert isinstance(client.start(), StatsReply)
        with pytest.raises(WorkerStateError, match="no snapshot"):
            client.request(ExecuteLevel(level=0, phase="map", tasks=()))
        client.link.sync(store.snapshot(), client.request)
        client.link.sync(store.snapshot(), client.request)
        assert answered == [(1, "StatsReply"), (2, "ErrorReply"), (3, "OkReply")]
        assert not client.link._waiters
        assert client.link.wire_stats() == {
            "frames_sent": 3,
            "bytes_sent": 0,
            "terms_shipped": 0,
        }
        assert client.worker.token == store.snapshot().shards[1].token
    finally:
        client.close()
    with pytest.raises(ConnectionError, match="not running"):
        client.request(Stats())
