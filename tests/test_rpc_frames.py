"""Pickle round-trip registry for every RPC wire frame (FRAME001).

``FRAME_EXAMPLES`` is the registry the static linter cross-checks:
every frame class in :data:`repro.cluster.rpc.MESSAGE_TYPES` must have
an entry here, and every entry must survive a pickle round trip (the
wire is pickled dataclasses).  Values are zero-argument factories so
the heavy frames (``Prime``'s snapshot, ``RegisterTemplate``'s physical
plan) are built only when the test actually runs.
"""

from __future__ import annotations

import functools
import pickle

import pytest

from repro.cluster.rpc import (
    CLIENT_HANDLED,
    MESSAGE_TYPES,
    WORKER_HANDLED,
    BatchReply,
    BoundSpecs,
    ErrorReply,
    ExecuteBatch,
    ExecuteLevel,
    Hello,
    HelloReply,
    InvalidateSnapshot,
    OkReply,
    Prime,
    PrimeSlots,
    RegisterTemplate,
    Reply,
    Request,
    ResultsReply,
    RpcProtocolError,
    Shutdown,
    Stats,
    StatsReply,
    TableUpdate,
)
from repro.columnar.wire import (
    ColumnarFrame,
    PackedMapResult,
    PackedReduceResult,
    PackedRows,
    WireCodec,
)
from repro.core.algorithm import cliquesquare
from repro.core.decomposition import MSC
from repro.mapreduce.counters import TaskMetrics
from repro.partitioning.triple_partitioner import partition_graph
from repro.physical.executor import PlanExecutor
from repro.sparql.parser import parse_query
from tests.conftest import make_university_graph

NUM_NODES = 3

_QUERY = (
    "SELECT ?p WHERE { ?p ub:worksFor <dept0> . "
    "?p rdf:type ub:FullProfessor }"
)


@functools.lru_cache(maxsize=1)
def _store():
    return partition_graph(make_university_graph(), NUM_NODES)


def _snapshot():
    return _store().snapshot()


@functools.lru_cache(maxsize=1)
def _physical():
    plan = cliquesquare(parse_query(_QUERY), MSC).plans[0]
    return PlanExecutor(_store()).prepare(plan).physical


def _level():
    # Carries a non-default trace context and topology epoch: the round
    # trip must preserve those fields, not just the execution payload.
    return ExecuteLevel(
        key="k", binding=(), level=0, phase="map",
        tasks=(("job0", None, 0),),
        trace_ctx=("trace0", 1),
        epoch=2,
    )


#: frame class name -> zero-arg example factory.  The static FRAME001
#: rule parses these keys, so they must stay literal strings.
FRAME_EXAMPLES = {
    "Hello": Hello,
    "HelloReply": lambda: HelloReply(
        shard=0, num_nodes=NUM_NODES, num_shards=2, pid=1234,
        snapshot_token=None,
    ),
    "Prime": lambda: Prime(snapshot=_snapshot(), epoch=3),
    "PrimeSlots": lambda: PrimeSlots(
        # A moved-in node's file map plus a moved-out node: the round
        # trip must preserve both sides of a migration delta.
        adds={1: dict(_snapshot().files[1])},
        drops=(0,),
        token=(17, 2),
        wire="pickle",
    ),
    "TableUpdate": lambda: TableUpdate(epoch=4, num_shards=5),
    "InvalidateSnapshot": InvalidateSnapshot,
    "RegisterTemplate": lambda: RegisterTemplate(
        key="k", physical=_physical()
    ),
    "BoundSpecs": lambda: BoundSpecs(
        key="k", binding=(("$s0", "<dept0>"),)
    ),
    "ExecuteLevel": _level,
    "ExecuteBatch": lambda: ExecuteBatch(items=((7, _level()),)),
    "Stats": Stats,
    "StatsReply": lambda: StatsReply(
        shard=0, pid=1234, snapshot_token=None, templates=1,
        bound_instances=1, tasks_run=4, levels_run=2, primes=1,
        bytes_received=1024, backend="serial", warnings=("w",),
    ),
    "Shutdown": Shutdown,
    "OkReply": lambda: OkReply(value=("k", ())),
    "ResultsReply": lambda: ResultsReply(
        # A map result — shuffle emits grouped per reduce partition, one
        # direct chunk — and a reduce result, as the engine reads them.
        results=[
            ([(0, 0, [("row",)]), (2, 1, [("a",), ("b",)])], [], TaskMetrics()),
            ([("row",)], TaskMetrics()),
        ],
        spans=(("bind", -1, 0.0001, 0.002, {"tasks": 2}),),
    ),
    "BatchReply": lambda: BatchReply(replies=((7, OkReply()),)),
    "ErrorReply": lambda: ErrorReply(
        error=RpcProtocolError("boom"), kind="RpcProtocolError"
    ),
    "Request": lambda: Request(id=3, msg=Stats()),
    "Reply": lambda: Reply(id=3, payload=OkReply(), encode_s=0.0005),
    "ColumnarFrame": lambda: ColumnarFrame(
        # The packed twin of the ResultsReply above: emits stay grouped
        # per partition — group sizes beside one row buffer.
        payload=ResultsReply(
            results=[
                PackedMapResult(
                    emits=(((0, 0, 1),), PackedRows(1, (1,), b"\x00")),
                    direct=PackedRows(0, (), b""),
                    metrics=TaskMetrics(),
                ),
                PackedReduceResult(
                    rows=PackedRows(1, (1,), b"\x00"), metrics=TaskMetrics()
                ),
            ]
        ),
        delta_start=0,
        delta_terms=("t",),
    ),
}

#: frames whose fields compare by identity (exceptions, snapshots,
#: plans), so the round trip is checked structurally, not by ==
_IDENTITY_FIELDS = {"Prime", "RegisterTemplate", "ErrorReply"}


def test_registry_covers_every_frame():
    names = {t.__name__ for t in MESSAGE_TYPES}
    assert names == set(FRAME_EXAMPLES), (
        "every MESSAGE_TYPES frame needs a FRAME_EXAMPLES entry "
        "(and vice versa)"
    )


def test_dispatch_tables_partition_the_frames():
    handled = {t.__name__ for t in WORKER_HANDLED + CLIENT_HANDLED}
    assert {t.__name__ for t in MESSAGE_TYPES} <= handled


@pytest.mark.parametrize("name", sorted(FRAME_EXAMPLES))
def test_frame_pickle_round_trip(name):
    frame = FRAME_EXAMPLES[name]()
    clone = pickle.loads(pickle.dumps(frame))
    assert type(clone) is type(frame)
    if name not in _IDENTITY_FIELDS:
        assert clone == frame


def test_results_frame_codec_round_trip():
    """The columnar codec turns the example ``ResultsReply`` into the
    per-partition packed shape and back to row lists."""
    sender, receiver = WireCodec(_snapshot()), WireCodec(_snapshot())
    reply = FRAME_EXAMPLES["ResultsReply"]()
    frame, commit = sender.encode_results(reply)
    packed_map, packed_reduce = frame.payload.results
    assert isinstance(packed_map, PackedMapResult)
    groups, rows = packed_map.emits
    assert groups == ((0, 0, 1), (2, 1, 2))
    assert isinstance(rows, PackedRows) and rows.count == 3
    assert isinstance(packed_reduce, PackedReduceResult)
    commit()
    assert receiver.decode_frame(pickle.loads(pickle.dumps(frame))) == reply

