"""The shard worker's one state-transition frame, under a faulty carrier.

A hypothesis property drives :meth:`_WorkerState.handle` through a
:class:`LocalShardClient` whose sync frames a carrier may duplicate,
drop, deliver without a reply, or hold back and deliver after the
driver's next frame (reordered), over random histories of writes, node
moves and resizes of the store behind it.  Frames cross pickled, as
over the socket, so the worker computes in a replica of the store's
dictionary.  The driver is the sync step the router runs,
:meth:`ShardLink.sync`, on the faulty carrier's link; it keeps the
worker it has (no respawn) and trusts only the replies it gets.  Every history ends in one of two ways once the held frames have
landed and the driver syncs over a clean carrier:

* that sync finds the worker where the driver's record says (or
  applies a delta onto it), and the worker's files, token, epoch and
  dictionary equal the shard view's;
* the worker refuses the delta with a typed :class:`WorkerStateError`,
  and the one full sync the driver answers with repairs it.

No other exception ever leaves the worker.  The examples pinned with
``@example`` run on every invocation; the first breaks a worker that
lets a late frame take it back, the second one that applies a delta
onto a base it does not hold.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cluster import shard_graph
from repro.cluster.client import LocalShardClient, ShardLink
from repro.cluster.frames import Sync, WorkerStateError
from repro.cluster.ownership import plan_resize
from tests.conftest import make_university_graph

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

NUM_NODES = 6
FAULTS = ("ok", "dup", "drop", "noreply", "late")
TERMS = [f"<t{i}>" for i in range(12)]


class FaultyCarrier:
    """A :class:`LocalShardClient` whose sync frames meet the next fault
    of a script (``"ok"`` once the script runs out).  A held (``late``)
    frame lands right after the next frame that gets delivered, or at
    :meth:`flush`.  Its own link keeps the driver's record of the
    worker."""

    def __init__(self, client: LocalShardClient) -> None:
        self.client = client
        self.link = ShardLink(client.shard)
        self.faults: list[str] = []
        self.late: list[Sync] = []
        #: syncs the worker refused, and the frames it was sent
        self.refused = 0
        self.frames: list[Sync] = []

    def deliver(self, msg: Sync):
        self.frames.append(msg)
        try:
            return self.client.request(pickle.loads(pickle.dumps(msg)))
        except WorkerStateError:
            self.refused += 1
            raise

    def flush(self) -> None:
        held, self.late = self.late, []
        for msg in held:
            try:
                self.deliver(msg)
            except WorkerStateError:
                pass

    def request(self, msg, on_bytes=None, on_wire=None):
        assert isinstance(msg, Sync)
        fault = self.faults.pop(0) if self.faults else "ok"
        if fault == "late":
            self.late.append(msg)
            raise ConnectionError("no reply in time")
        if fault == "drop":
            raise ConnectionError("frame lost")
        try:
            reply = self.deliver(msg)
            if fault == "dup":
                reply = self.deliver(msg)
        finally:
            self.flush()
        if fault == "noreply":
            raise ConnectionError("reply lost")
        return reply


def holds_the_view(worker, store) -> bool:
    snapshot = store.snapshot()
    view = snapshot.shards[0]
    held = worker.snapshot
    return (
        held is not None
        and held.token == view.token
        and worker.epoch == snapshot.table.version
        and held.files == view.files
        and list(held.dictionary) == list(store.dictionary)
    )


step = st.one_of(
    st.tuples(
        st.just("write"),
        st.lists(st.tuples(*[st.sampled_from(TERMS)] * 3), min_size=1, max_size=3),
    ),
    st.tuples(st.just("move"), st.integers(0, NUM_NODES - 1)),
    st.tuples(st.just("resize"), st.integers(1, 3)),
    st.tuples(st.just("sync"), st.lists(st.sampled_from(FAULTS), max_size=3)),
)


@settings(max_examples=120, deadline=None)
@given(history=st.lists(step, max_size=12))
# A full sync held back lands after a newer full sync of the same epoch.
@example(history=[("sync", ["late"]), ("write", [("<t0>", "<t1>", "<t2>")]), ("sync", [])])
# A node moves in without a reply and back out: the driver's next delta
# (from the view it last heard of, now at a later epoch) drops nothing.
@example(history=[("sync", []), ("move", 1), ("sync", ["noreply"]), ("move", 1), ("sync", [])])
# A delta applied without a reply; the next delta's base is one behind.
@example(
    history=[
        ("sync", []),
        ("write", [("<t0>", "<t1>", "<t2>")]),
        ("sync", ["noreply"]),
        ("write", [("<t3>", "<t4>", "<t5>")]),
        ("sync", []),
    ]
)
# Deltas reordered around a move and back: a view token recurs.
@example(
    history=[
        ("sync", []),
        ("move", 0),
        ("sync", ["late"]),
        ("move", 0),
        ("sync", ["dup"]),
    ]
)
# Suffixes lost and duplicated around writes that number new terms.
@example(
    history=[
        ("sync", []),
        ("write", [("<t0>", "<t1>", "<t2>")]),
        ("sync", ["drop", "dup"]),
        ("write", [("<t6>", "<t7>", "<t8>")]),
        ("sync", ["late"]),
        ("resize", 3),
        ("sync", []),
    ]
)
def test_sync_protocol_survives_a_faulty_carrier(history):
    store = shard_graph(make_university_graph(), NUM_NODES, 2)
    client = LocalShardClient(shard=0, num_nodes=NUM_NODES)
    client.start()
    carrier = FaultyCarrier(client)
    try:
        for op, arg in history:
            if op == "write":
                store.add_all(arg)
            elif op == "move":
                owner = store.shard_of_node(arg)
                if store.num_shards > 1 and len(store.nodes_of_shard(owner)) > 1:
                    dst = (owner + 1) % store.num_shards
                    store.apply_rebalance([(arg, owner, dst)])
            elif op == "resize":
                store.apply_rebalance(plan_resize(store.table, arg), arg)
            else:
                carrier.faults = list(arg)
                try:
                    carrier.link.sync(store.snapshot(), carrier.request)
                except ConnectionError:
                    pass  # the driver keeps its record and its worker
        carrier.faults = []
        carrier.flush()
        refused, sent = carrier.refused, len(carrier.frames)
        carrier.link.sync(store.snapshot(), carrier.request)
        final = carrier.frames[sent:]
        if carrier.refused == refused:
            assert len(final) <= 1
        else:
            # One refusal, answered by one full sync.
            assert carrier.refused == refused + 1
            assert len(final) == 2 and final[1].base is None
        assert holds_the_view(client.worker, store)
    finally:
        client.close()
