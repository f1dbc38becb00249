"""Pickle round-trip registry for every RPC wire frame (FRAME001).

``FRAME_EXAMPLES`` is the registry the static linter cross-checks:
every frame class in :data:`repro.cluster.rpc.MESSAGE_TYPES` must have
an entry here, and every entry must survive a pickle round trip (the
wire is pickled dataclasses).  Values are zero-argument factories so
the heavy frames (``Prime``'s snapshot, ``ExecuteLevel``'s task specs)
are built only when the test actually runs.

Below the registry: the columnar codec's two paths through those frames
— rows (stdlib) and id blocks (numpy) — over two in-memory endpoints.
"""

from __future__ import annotations

import functools
import pickle
from dataclasses import replace

import pytest

from repro.cluster.rpc import (
    CLIENT_HANDLED,
    MESSAGE_TYPES,
    WORKER_HANDLED,
    BatchReply,
    ErrorReply,
    ExecuteBatch,
    ExecuteLevel,
    OkReply,
    Prime,
    PrimeNodes,
    Reply,
    Request,
    ResultsReply,
    RpcProtocolError,
    Shutdown,
    Stats,
    StatsReply,
    TableUpdate,
)
from repro.cluster.rpc import ShardWorkerClient, _WorkerState
from repro.columnar.block import HAVE_NUMPY, ColumnBlock, chunk_rows
from repro.columnar.wire import (
    ColumnarFrame,
    PackedMapResult,
    PackedReduceResult,
    PackedRows,
    RawRows,
    WireCodec,
    _pack_matrix,
    pack_columns,
    pack_rows,
    unpack_columns,
    unpack_rows,
)
from repro.core.algorithm import cliquesquare
from repro.core.decomposition import MSC
from repro.mapreduce.counters import TaskMetrics
from repro.mapreduce.hdfs import Chunks, DistributedRelation
from repro.partitioning.triple_partitioner import partition_graph
from repro.physical.executor import PlanExecutor, job_from_spec
from repro.rdf.dictionary import Dictionary
from repro.sparql.parser import parse_query
from tests.conftest import make_university_graph

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # the static-analysis CI job installs pytest only
    HAVE_HYPOTHESIS = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="id columns need numpy")

NUM_NODES = 3

_QUERY = (
    "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
    "?p rdf:type ub:FullProfessor . ?s rdf:type ub:Student }"
)


@functools.lru_cache(maxsize=1)
def _store():
    return partition_graph(make_university_graph(), NUM_NODES)


def _snapshot():
    return _store().snapshot()


@functools.lru_cache(maxsize=1)
def _job():
    """The reduce-join job of the example query: real map and reduce
    task specs, as the engine hands them to the router."""
    plan = cliquesquare(parse_query(_QUERY), MSC).plans[0]
    compiled = PlanExecutor(_store()).prepare(plan).compiled
    spec = next(spec for spec in compiled.jobs if not spec.map_only)
    return job_from_spec(spec, NUM_NODES)


def _level():
    # Carries a non-default trace context and topology epoch: the round
    # trip must preserve those fields, not just the execution payload.
    return ExecuteLevel(
        level=0, phase="map",
        tasks=tuple(task.spec for task in _job().map_tasks),
        trace_ctx=("trace0", 1),
        epoch=2,
    )


#: frame class name -> zero-arg example factory.  The static FRAME001
#: rule parses these keys, so they must stay literal strings.
FRAME_EXAMPLES = {
    "Prime": lambda: Prime(snapshot=_snapshot(), epoch=3),
    "PrimeNodes": lambda: PrimeNodes(
        # A moved-in node's file map plus a moved-out node: the round
        # trip must preserve both sides of a migration delta.
        adds={1: dict(_snapshot().files[1])},
        drops=(0,),
        token=(17, 2),
        wire="pickle",
    ),
    "TableUpdate": lambda: TableUpdate(epoch=4),
    "ExecuteLevel": _level,
    "ExecuteBatch": lambda: ExecuteBatch(items=((7, _level()),)),
    "Stats": Stats,
    "StatsReply": lambda: StatsReply(
        shard=0, pid=1234, snapshot_token=None,
        tasks_run=4, levels_run=2, primes=1,
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
        spans=(("execute", -1, 0.0001, 0.002, {"tasks": 2}),),
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

#: frames whose fields compare by identity (exceptions, snapshots),
#: so the round trip is checked structurally, not by ==
_IDENTITY_FIELDS = {"Prime", "ErrorReply"}


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



def test_zero_arity_rows_survive_the_row_path():
    """Rows with no cells have no column to carry their count: they
    cross raw, not as a ``PackedRows`` that unpacks to nothing."""
    d = Dictionary()
    packed = pack_rows([(), ()], d.encode)
    assert isinstance(packed, RawRows)
    assert unpack_rows(packed, d.decode) == [(), ()]
    sender, receiver = WireCodec(_snapshot()), WireCodec(_snapshot())
    reply = ResultsReply(results=[([()], TaskMetrics())])
    frame, _commit = sender.encode_results(reply)
    assert receiver.decode_frame(pickle.loads(pickle.dumps(frame))) == reply


# -- the block path --------------------------------------------------------------

#: ids straddling every width boundary, and beyond int32
BOUNDARY_IDS = [
    0, 1, 254, 255, 256, 257, 65_534, 65_535, 65_536, 65_537,
    2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**62,
]


def _block_endpoints(snapshot=None):
    """Two codec ends over one snapshot, each computing in an id space
    of its own (seeded differently, so equal terms have unequal ids)."""
    snapshot = snapshot or _snapshot()
    here, there = Dictionary(), Dictionary()
    here.encode_many([f"<here{i}>" for i in range(300)])
    there.encode_many([f"<there{i}>" for i in range(70_000)])
    return WireCodec(snapshot, here), WireCodec(snapshot, there)


def _ship(sender, receiver, msg):
    """Encode *msg*, cross a pickle boundary, decode."""
    frame, commit = sender.encode_payload(msg)
    commit()
    return receiver.decode_frame(pickle.loads(pickle.dumps(frame)))


def _reduce_level(grouped):
    return ExecuteLevel(
        level=0, phase="reduce", tasks=((_job().reduce_spec, 0, grouped),)
    )


@pytest.mark.parametrize("wire", ["pickle", "columnar"])
def test_level_frames_carry_their_task_specs(wire):
    """An ``ExecuteLevel`` ships the map and reduce specs themselves;
    both wires hand the worker specs equal to the driver's, and the
    columnar codec leaves them alone while it packs the chunks."""
    job = _job()
    rows = [("<dept0>", "<p0>"), ("<dept1>", "<p1>")]
    map_level = replace(
        _level(),
        inputs={"f": DistributedRelation(("?d", "?p"), [rows, [], []])},
    )
    reduce_level = _reduce_level({0: [rows], 1: [rows[:1]]})
    if wire == "pickle":
        def ship(msg):
            return pickle.loads(pickle.dumps(msg))
    else:
        ship = functools.partial(
            _ship, WireCodec(_snapshot()), WireCodec(_snapshot())
        )
    got = ship(map_level)
    assert got.tasks == tuple(task.spec for task in job.map_tasks)
    # one chain object per tag on the driver, one per tag after the hop
    assert len({id(spec.chain) for spec in got.tasks}) == len(job.map_tasks) // NUM_NODES
    assert [list(part) for part in got.inputs["f"].partitions] == [rows, [], []]
    (spec, partition, grouped), = ship(reduce_level).tasks
    assert (spec, partition) == (job.reduce_spec, 0)
    assert {tag: chunk_rows(chunks) for tag, chunks in grouped.items()} == {
        0: rows, 1: rows[:1]
    }


@needs_numpy
@pytest.mark.parametrize("count", [1, 2, 3, 8])
def test_id_columns_pack_to_the_row_paths_bytes(count):
    """``pack_columns`` is layout-compatible with the row functions at
    every width (odd counts leave the wider columns unaligned in the
    buffer), so either end of a connection may take either path."""
    import numpy as np

    for low, high in zip(BOUNDARY_IDS, BOUNDARY_IDS[1:]):
        columns = [
            np.array([low] * count, dtype=np.int64),
            np.array(([high, low] * count)[:count], dtype=np.int64),
            np.array([7] * count, dtype=np.int64),
        ]
        packed = pack_columns(columns)
        assert packed == _pack_matrix(list(zip(*[c.tolist() for c in columns])))
        back = unpack_columns(packed)
        assert [c.tolist() for c in back] == [c.tolist() for c in columns]


@needs_numpy
def test_blocks_cross_as_blocks_between_different_id_spaces():
    sender, receiver = _block_endpoints()
    resident = ["<dept0>", "<dept1>", "ub:worksFor", "rdf:type", "<dept0>"]
    assert all(term in sender.send for term in resident)
    rows = [(term, f"<new{i % 3}>") for i, term in enumerate(resident * 2)]
    block = ColumnBlock.from_rows(("?a", "?b"), rows, sender.local)
    empty = ColumnBlock.empty(("?a", "?b"), sender.local)
    # one tag of several own-dictionary chunks, an empty one among them
    level = _reduce_level({0: [block, empty, block[2:5]], 1: [empty]})
    (_job, _partition, grouped), = _ship(sender, receiver, level).tasks
    [chunk] = grouped[0]
    assert isinstance(chunk, ColumnBlock) and chunk.dictionary is receiver.local
    assert list(chunk) == rows + rows[2:5]
    assert [len(c) for c in grouped[1]] == [0]
    # a map level's inputs keep their schema; unowned partitions stay empty
    level = ExecuteLevel(
        level=1, phase="map", tasks=_level().tasks,
        inputs={"f": DistributedRelation(("?a", "?b"), [Chunks([block, block]), []])},
    )
    relation = _ship(sender, receiver, level).inputs["f"]
    assert relation.partitions[0].attrs == ("?a", "?b")
    assert list(relation.partitions[0]) == rows + rows
    assert list(relation.partitions[1]) == []
    # ... and a map result's emits come back grouped per partition
    reply = ResultsReply(
        results=[
            ([(0, 0, block[:4]), (2, 0, block[4:])], block, TaskMetrics()),
            (empty, TaskMetrics()),
        ]
    )
    (emits, direct, _), (out, _) = _ship(sender, receiver, reply).results
    assert [(p, tag, list(c)) for p, tag, c in emits] == [
        (0, 0, rows[:4]),
        (2, 0, rows[4:]),
    ]
    assert all(isinstance(c, ColumnBlock) for _p, _tag, c in emits)
    assert list(direct) == rows and list(out) == []
    # three new terms crossed, once; each end mapped its 7 ids, once
    # ... and a warm connection moves neither counter
    for _ in range(2):
        assert sender.stats()["terms_shipped"] == 3
        assert sender.stats()["terms_translated"] == 7
        assert receiver.stats()["terms_translated"] == 7
        _ship(sender, receiver, _reduce_level({0: [block]}))


@needs_numpy
def test_block_and_row_endpoints_interoperate():
    """``local`` is each end's own choice: a block packed here unpacks
    to rows on a row endpoint, and its rows come back as a block."""
    blocks, _ = _block_endpoints()
    rows_end = WireCodec(_snapshot())
    rows = [("<a>", "<b>"), ("<c>", "<a>")]
    block = ColumnBlock.from_rows(("?x", "?y"), rows, blocks.local)
    (_, _, grouped), = _ship(blocks, rows_end, _reduce_level({0: [block]})).tasks
    assert grouped == {0: [rows]}
    reply = ResultsReply(results=[(rows, TaskMetrics())])
    (out, _metrics), = _ship(rows_end, blocks, reply).results
    assert isinstance(out, ColumnBlock) and out.dictionary is blocks.local
    assert list(out) == rows


@needs_numpy
def test_a_lost_frame_reships_its_delta_and_keeps_its_id_map():
    sender, receiver = _block_endpoints()
    block = ColumnBlock.from_rows(("?x",), [("<fresh0>",), ("<fresh1>",)], sender.local)
    sender.encode_payload(_reduce_level({0: [block]}))  # never sent
    translated = sender.stats()["terms_translated"]
    frame, commit = sender.encode_payload(_reduce_level({0: [block]}))
    assert frame.delta_terms == ("<fresh0>", "<fresh1>")  # shipped again
    assert sender.stats()["terms_translated"] == translated  # mapped once
    commit()
    (_, _, grouped), = receiver.decode_frame(frame).tasks
    assert chunk_rows(grouped[0]) == list(block)
    frame, _ = sender.encode_payload(_reduce_level({0: [block]}))
    assert frame.delta_terms == ()


@needs_numpy
def test_prime_resets_the_id_maps_not_the_id_space():
    """Both ends build a fresh codec per ``Prime``: the connection
    dictionaries and the id maps restart, the endpoint's own dictionary
    (and every id a live block holds) carries on."""
    local = Dictionary()
    client = ShardWorkerClient(shard=0, num_nodes=NUM_NODES, local=local)
    state = _WorkerState(0, NUM_NODES, "columnar", None)
    try:
        for _ in range(2):
            client.reseed_codec(_snapshot(), "columnar")
            state.install_snapshot(_snapshot(), "columnar")
            assert client.codec.local is local
            assert state.wire.local is state.backend.state.dictionary
            assert client.codec.stats()["terms_translated"] == 0
            block = ColumnBlock.from_rows(("?x",), [("<kept>",), ("<dept0>",)], local)
            level = _reduce_level({0: [block]})
            (_, _, grouped), = _ship(client.codec, state.wire, level).tasks
            assert list(grouped[0][0]) == [("<kept>",), ("<dept0>",)]
            assert grouped[0][0].dictionary is state.backend.state.dictionary
            assert client.codec.stats()["terms_translated"] == 2
        assert len(local) == 2
        client.reseed_codec(_snapshot(), "pickle")
        assert client.codec is None
    finally:
        state.close()


if HAVE_HYPOTHESIS:
    term_st = st.sampled_from(
        ["<dept0>", "<dept1>", "ub:worksFor", "<n0>", "<n1>", "<n2>", "", '"lit é"']
    )
    rows_st = st.lists(st.tuples(term_st, term_st), max_size=12)
    kind_st = st.sampled_from(["own", "foreign", "rows"])

    @needs_numpy
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.tuples(kind_st, rows_st), max_size=4), min_size=1, max_size=4
        )
    )
    def test_prop_any_chunk_mix_round_trips(frames):
        """Own-dictionary blocks, foreign-dictionary blocks and row
        lists, mixed in one tag, frame after frame over one connection:
        the peer reads exactly the rows that were sent."""
        sender, receiver = _block_endpoints()
        foreign = Dictionary()
        for frame in frames:
            chunks = [
                rows
                if kind == "rows"
                else ColumnBlock.from_rows(
                    ("?a", "?b"), rows, sender.local if kind == "own" else foreign
                )
                for kind, rows in frame
            ]
            (_, _, grouped), = _ship(sender, receiver, _reduce_level({0: chunks})).tasks
            [chunk] = grouped[0]
            assert list(chunk) == [row for _kind, rows in frame for row in rows]
            if chunk and all(kind == "own" for kind, rows in frame if rows):
                assert isinstance(chunk, ColumnBlock)
                assert chunk.dictionary is receiver.local

    @needs_numpy
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(BOUNDARY_IDS), min_size=1, max_size=5),
            min_size=1, max_size=4,
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_prop_id_columns_round_trip_at_every_width(columns, count):
        import numpy as np

        columns = [
            np.array((ids * count)[:count], dtype=np.int64) for ids in columns
        ]
        packed = pack_columns(columns)
        assert packed.count == count
        assert [c.tolist() for c in unpack_columns(packed)] == [
            c.tolist() for c in columns
        ]
