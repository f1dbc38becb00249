"""Pickle round-trip registry for every RPC wire frame (FRAME001).

``FRAME_EXAMPLES`` is the registry the static linter cross-checks:
every frame class in :data:`repro.cluster.worker.MESSAGE_TYPES` must have
an entry here, and every entry must survive a pickle round trip (the
wire is pickled dataclasses).  Values are zero-argument factories so
the heavy frames (``Sync``'s file maps, ``ExecuteLevel``'s task specs)
are built only when the test actually runs.

Below the registry: the columnar codec's frames — one pickle, one id
buffer — over in-memory endpoints that, like a driver and its workers,
number terms as the store does.
"""

from __future__ import annotations

import functools
import pickle
from dataclasses import replace

import pytest

from repro.cluster.frames import (
    BatchReply,
    ErrorReply,
    ExecuteBatch,
    ExecuteLevel,
    OkReply,
    Reply,
    Request,
    ResultsReply,
    RpcProtocolError,
    Shutdown,
    Stats,
    StatsReply,
    Sync,
    WorkerStateError,
    sync_frame,
)
from repro.cluster.worker import (
    CLIENT_HANDLED,
    MESSAGE_TYPES,
    WORKER_HANDLED,
    _WorkerState,
)
from repro.columnar.block import ColumnBlock
from repro.columnar.wire import (
    _HEADER,
    RawRows,
    WireCodec,
    _pack_matrix,
    pack_rows,
    unpack_rows,
)
from repro.core.algorithm import cliquesquare
from repro.core.decomposition import MSC
from repro.mapreduce.counters import TaskMetrics
from repro.mapreduce.hdfs import Chunks, DistributedRelation, chunks_of
from repro.partitioning.triple_partitioner import partition_graph
from repro.physical.executor import PlanExecutor
from repro.rdf.dictionary import Dictionary
from repro.sparql.parser import parse_query
from tests.conftest import make_university_graph

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # the static-analysis CI job installs pytest only
    HAVE_HYPOTHESIS = False

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
    program = PlanExecutor(_store()).prepare(plan).program(NUM_NODES)
    return next(
        job for level in program.levels for job in level.jobs if not job.map_only
    )


def _level():
    # Carries a non-default trace context and topology epoch: the round
    # trip must preserve those fields, not just the execution payload.
    return ExecuteLevel(
        level=0, phase="map",
        tasks=tuple(task.spec for task in _job().maps),
        trace_ctx=("trace0", 1),
        epoch=2,
    )


#: frame class name -> zero-arg example factory.  The static FRAME001
#: rule parses these keys, so they must stay literal strings.
FRAME_EXAMPLES = {
    "Sync": lambda: Sync(
        # A moved-in node's file map, a moved-out node, a dictionary
        # suffix and the new epoch: the round trip must preserve every
        # part of a delta.
        base=(17, (0, 2), (1, 1)),
        token=(17, (1, 2), (1, 1)),
        files={1: dict(_snapshot().files[1])},
        drops=(0,),
        terms_from=9,
        terms=("<t>",),
        epoch=4,
    ),
    "ExecuteLevel": _level,
    "ExecuteBatch": lambda: ExecuteBatch(items=((7, _level()),)),
    "Stats": Stats,
    "StatsReply": lambda: StatsReply(
        shard=0, pid=1234, snapshot_token=None,
        tasks_run=4, levels_run=2, primes=1,
        bytes_received=1024, terms=40,
    ),
    "Shutdown": Shutdown,
    "OkReply": lambda: OkReply(value=("k", ())),
    "ResultsReply": lambda: ResultsReply(
        # A map result — shuffle emits grouped per reduce partition, one
        # direct chunk — and a reduce result, as the engine reads them.
        results=[
            (
                [(0, 0, [("<dept0>",)]), (2, 1, [("<dept1>",), ("<univ0>",)])],
                [],
                TaskMetrics(),
            ),
            ([("<dept0>",)], TaskMetrics()),
        ],
        spans=(("execute", -1, 0.0001, 0.002, {"tasks": 2}),),
    ),
    "BatchReply": lambda: BatchReply(replies=((7, OkReply()),)),
    "ErrorReply": lambda: ErrorReply(
        error=RpcProtocolError("boom"), kind="RpcProtocolError"
    ),
    "Request": lambda: Request(id=3, msg=Stats()),
    "Reply": lambda: Reply(id=3, payload=OkReply(), encode_s=0.0005),
}

#: frames whose fields compare by identity (exceptions), so the round
#: trip is checked structurally, not by ==
_IDENTITY_FIELDS = {"ErrorReply"}


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




# -- the codec: one numbering on both ends ---------------------------------------


def _codec(limit=None, snapshot=None):
    return WireCodec(snapshot or _snapshot(), limit=limit)


def _ship(sender, receiver, msg):
    """Frame *msg* on one end, read it on the other."""
    return receiver.loads(sender.dumps(msg))


def _buffer(frame: bytes) -> tuple[int, bytes]:
    """A frame's id width and id buffer."""
    width, size = _HEADER.unpack_from(frame)
    return width, frame[_HEADER.size + size :]


def _reduce_level(grouped):
    return ExecuteLevel(
        level=0, phase="reduce", tasks=((_job().reduce_spec, 0, grouped),)
    )


def chunk_rows(chunks):
    """The term-tuple rows of a chunk sequence, in order."""
    return [
        row
        for chunk in chunks
        for row in (chunk.to_rows() if isinstance(chunk, ColumnBlock) else chunk)
    ]


def _block(rows, dictionary=None, attrs=("?a", "?b")):
    return ColumnBlock.from_rows(
        attrs, rows, dictionary or _store().dictionary, mint=False
    )


@pytest.mark.parametrize("name", sorted(FRAME_EXAMPLES))
def test_frame_codec_round_trip(name):
    """Every frame type crosses the codec as it crosses pickle: the
    codec walks no message shape, it only swaps blocks."""
    frame = FRAME_EXAMPLES[name]()
    clone = _ship(_codec(), _codec(), frame)
    assert type(clone) is type(frame)
    if name not in _IDENTITY_FIELDS:
        assert clone == frame


def test_results_frame_codec_round_trip():
    """The example ``ResultsReply`` with its chunks as blocks over the
    store's dictionary: map emits, a direct output and a reduce output
    cross as one buffer at one width — the frame holds every cell once
    — and come back as blocks over the peer's dictionary, attributes
    and rows as sent.  Inside a ``BatchReply`` beside an error member
    it crosses the same way."""
    emits = [(0, 0, _block([("<dept0>", "<univ0>")])), (2, 1, _block(
        [("<dept1>", "<univ0>"), ("<univ0>", "<dept1>")]
    ))]
    direct = _block([("<dept0>", "<dept1>")], attrs=("?x", "?y"))
    out = _block([("<dept0>", "<univ0>")])
    reply = ResultsReply(
        results=[(emits, direct, TaskMetrics(tuples_read=3)), (out, TaskMetrics())],
        spans=FRAME_EXAMPLES["ResultsReply"]().spans,
    )
    driver = _codec()
    for msg in (reply, BatchReply(replies=((1, reply), (2, FRAME_EXAMPLES["ErrorReply"]())))):
        frame = _codec().dumps(msg)
        width, ids = _buffer(frame)
        assert width == 1 and len(ids) == 2 * (1 + 2 + 1 + 1)
        assert b"Dictionary" not in frame
        back = driver.loads(frame)
        if isinstance(msg, BatchReply):
            (rid, back), (_rid, error) = back.replies
            assert rid == 1 and isinstance(error, ErrorReply)
        (got_emits, got_direct, metrics), (got_out, _m) = back.results
        assert metrics == TaskMetrics(tuples_read=3) and back.spans == reply.spans
        for (p, tag, chunk), (p2, tag2, sent) in zip(got_emits, emits):
            assert (p, tag, chunk.attrs, list(chunk)) == (p2, tag2, sent.attrs, list(sent))
            assert chunk.dictionary is driver.dictionary
        assert got_direct.attrs == ("?x", "?y") and list(got_direct) == list(direct)
        assert list(got_out) == list(out)


def test_zero_arity_rows_survive_the_row_path():
    """Rows with no cells have no column to carry their count: they
    cross raw, not as a ``PackedRows`` that unpacks to nothing."""
    d = Dictionary()
    packed = pack_rows([(), ()], d.encode)
    assert isinstance(packed, RawRows)
    assert unpack_rows(packed, d.decode) == [(), ()]
    reply = ResultsReply(results=[([()], TaskMetrics())])
    assert _ship(_codec(), _codec(), reply) == reply


def test_zero_row_and_zero_column_blocks_cross():
    """A block without rows crosses as an empty chunk; a block without
    columns (a variable-free pattern's answer) keeps its row count."""
    dictionary = _store().dictionary
    empty = ColumnBlock.empty(("?a",), dictionary)
    bare = ColumnBlock((), (), dictionary, 3)
    reply = ResultsReply(results=[(empty, TaskMetrics()), (bare, TaskMetrics())])
    frame = _codec().dumps(reply)
    assert _buffer(frame)[1] == b""
    (got_empty, _), (got_bare, _) = _codec().loads(frame).results
    assert list(got_empty) == []
    assert isinstance(got_bare, ColumnBlock) and got_bare.dictionary is dictionary
    assert len(got_bare) == 3 and list(got_bare) == [(), (), ()]


def test_codec_never_numbers_a_term():
    """A codec looks terms up nowhere and assigns no id: a row list
    crosses as its rows, the dictionary unchanged, and a worker's codec
    (``limit``) refuses a frame holding an id at or past the length the
    driver synced."""
    dictionary = _store().dictionary
    size = len(dictionary)
    level = _reduce_level({0: [[("<never-loaded>",)]]})
    assert _ship(_codec(), _codec(), level) == level
    assert len(dictionary) == size
    reply = ResultsReply(results=[(_block([("<dept0>", "<univ0>")]), TaskMetrics())])
    limit = max(dictionary.ids_of(["<dept0>", "<univ0>"]))
    with pytest.raises(ValueError, match="never numbered"):
        _codec(limit=limit).dumps(reply)
    (back, _), = _ship(_codec(limit=size), _codec(), reply).results
    assert list(back) == [("<dept0>", "<univ0>")]


@pytest.mark.parametrize("wire", ["pickle", "columnar"])
def test_level_frames_carry_their_task_specs(wire):
    """An ``ExecuteLevel`` ships the map and reduce specs themselves;
    both wires hand the worker specs equal to the driver's, and the
    columnar codec leaves them alone while it swaps the blocks."""
    job = _job()
    rows = [("<dept0>", "<person0>"), ("<dept1>", "<person1>")]
    chunk = rows if wire == "pickle" else _block(rows, attrs=("?d", "?p"))
    map_level = replace(
        _level(),
        inputs={"f": DistributedRelation(("?d", "?p"), [chunk, [], []])},
    )
    reduce_level = _reduce_level({0: [chunk], 1: [rows[:1]]})
    if wire == "pickle":
        def ship(msg):
            return pickle.loads(pickle.dumps(msg))
    else:
        ship = functools.partial(_ship, _codec(), _codec())
    got = ship(map_level)
    assert got.tasks == tuple(task.spec for task in job.maps)
    # one chain object per tag on the driver, one per tag after the hop
    assert len({id(spec.chain) for spec in got.tasks}) == len(job.maps) // NUM_NODES
    assert [list(part) for part in got.inputs["f"].partitions] == [rows, [], []]
    (spec, partition, grouped), = ship(reduce_level).tasks
    assert (spec, partition) == (job.reduce_spec, 0)
    assert {tag: chunk_rows(chunks) for tag, chunks in grouped.items()} == {
        0: rows, 1: rows[:1]
    }


# -- the block path --------------------------------------------------------------

#: ids straddling every width boundary, and beyond int32
BOUNDARY_IDS = [
    0, 1, 254, 255, 256, 257, 65_534, 65_535, 65_536, 65_537,
    2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**62,
]


class _Numbering:
    """A snapshot stand-in: the codec needs only a dictionary, and never
    decodes an id, so ids past its length cross as they are."""

    def __init__(self) -> None:
        self.dictionary = Dictionary()


def _id_block(columns, snapshot):
    import numpy as np

    columns = [np.asarray(column, dtype=np.int64) for column in columns]
    return ColumnBlock(
        tuple(f"?c{i}" for i in range(len(columns))), tuple(columns), snapshot.dictionary
    )


@pytest.mark.parametrize("count", [1, 2, 3, 8])
def test_id_columns_pack_to_the_row_paths_bytes(count):
    """A frame's buffer is, byte for byte, what the row path packs of
    the same ids as one column: every block's columns end to end at the
    narrowest width that holds the frame's largest id (odd counts leave
    wider ids unaligned in the frame), and they read back as sent."""
    for low, high in zip(BOUNDARY_IDS, BOUNDARY_IDS[1:]):
        snapshot = _Numbering()
        columns = [[low] * count, ([high, low] * count)[:count], [7] * count]
        frame = WireCodec(snapshot).dumps([_id_block(columns, snapshot)])
        ids = [i for column in columns for i in column]
        width, buffer = _buffer(frame)
        packed = _pack_matrix([(i,) for i in ids])
        assert (width,) == packed.widths and buffer == packed.data
        [back] = WireCodec(snapshot).loads(frame)
        assert [c.tolist() for c in back.columns] == columns


def test_a_block_crosses_driver_worker_driver_with_the_same_ids():
    """One id space, frame by frame: a block over the store's dictionary
    crosses to a worker primed with a pickled snapshot — its replica —
    and back, and the buffer on the wire is the block's own ids both
    ways; no dictionary is grown and no id is translated."""
    import numpy as np

    store = partition_graph(make_university_graph(), NUM_NODES)
    driver = WireCodec(store.snapshot())
    state = _WorkerState(0, NUM_NODES)
    try:
        replica = pickle.loads(pickle.dumps(store.snapshot()))
        state.handle(sync_frame(None, replica, 0))
        worker = state.wire
        assert worker.dictionary is replica.dictionary is not store.dictionary
        assert list(worker.dictionary) == list(store.dictionary)
        assert worker.limit == len(store.dictionary)
        rows = [("<person3>", "<dept2>"), ("<dept0>", "ub:Student")] * 3
        block = ColumnBlock.from_rows(("?a", "?b"), rows, store.dictionary, mint=False)
        sizes = len(store.dictionary)
        ids = np.concatenate(block.columns)

        def on_the_wire(frame):
            width, buffer = _buffer(frame)
            return np.frombuffer(buffer, f"u{width}").tolist()

        out = driver.dumps(_reduce_level({0: [block]}))
        assert on_the_wire(out) == ids.tolist()  # the ids as they are
        (_, _, grouped), = worker.loads(out).tasks
        [chunk] = grouped[0]
        assert chunk.dictionary is worker.dictionary
        assert all(np.array_equal(a, b) for a, b in zip(chunk.columns, block.columns))
        assert list(chunk) == rows

        reply = worker.dumps(ResultsReply(results=[(chunk, TaskMetrics())]))
        assert on_the_wire(reply) == ids.tolist()
        (back, _), = driver.loads(reply).results
        assert back.dictionary is store.dictionary
        assert all(np.array_equal(a, b) for a, b in zip(back.columns, block.columns))

        # a map level's inputs keep their chunks and their schema;
        # unowned partitions stay empty
        level = ExecuteLevel(
            level=1, phase="map", tasks=_level().tasks,
            inputs={"f": DistributedRelation(("?a", "?b"), [Chunks([block, block]), []])},
        )
        relation = worker.loads(driver.dumps(level))
        partitions = relation.inputs["f"].partitions
        assert list(partitions[0]) == rows + rows and list(partitions[1]) == []
        assert all(
            chunk.attrs == ("?a", "?b") and chunk.dictionary is worker.dictionary
            for chunk in chunks_of(partitions[0])
        )
        # ... and a map result's emits come back one block per partition
        reply = worker.dumps(
            ResultsReply(
                results=[([(0, 0, chunk[:4]), (2, 0, chunk[4:])], chunk, TaskMetrics())]
            )
        )
        (emits, direct, _), = driver.loads(reply).results
        assert [(p, tag, list(c)) for p, tag, c in emits] == [
            (0, 0, rows[:4]),
            (2, 0, rows[4:]),
        ]
        assert all(c.dictionary is store.dictionary for _p, _tag, c in emits)
        assert list(direct) == rows
        assert len(store.dictionary) == len(replica.dictionary) == sizes
    finally:
        state.close()


def test_foreign_blocks_and_row_lists_cross_as_rows():
    """Only blocks over the codec's own dictionary cross as ids: a row
    list crosses as its rows, and a block over another dictionary as
    its decoded rows — never with its dictionary."""
    sender, receiver = _codec(), _codec()
    foreign = Dictionary()
    foreign.encode_many(list(reversed(list(sender.dictionary))))
    rows = [("<dept0>", "<univ0>"), ("<person2>", "<dept0>")]
    chunks = [rows, _block(rows, foreign), _block(rows)]
    frame = sender.dumps(_reduce_level({0: chunks}))
    assert b"Dictionary" not in frame
    (_, _, grouped), = receiver.loads(frame).tasks
    as_rows, from_foreign, own = grouped[0]
    assert as_rows == rows and from_foreign == rows
    assert isinstance(own, ColumnBlock) and own.dictionary is receiver.dictionary
    assert list(own) == rows


def test_table_update_merges_the_store_suffix():
    """A worker whose snapshot is current learns the terms the store
    numbered since from a ``Sync`` that changes no file: merged by
    position (a duplicate is a no-op), its codec's limit moves with it,
    and a gap or a conflicting term is a typed error that leaves the
    replica as it was."""
    store = partition_graph(make_university_graph(), NUM_NODES)
    state = _WorkerState(0, NUM_NODES)
    try:
        snapshot = pickle.loads(pickle.dumps(store.snapshot()))
        state.handle(sync_frame(None, snapshot, 0))
        token = snapshot.token
        start = len(store.dictionary)
        store.add(("<person900>", "ub:worksFor", "<dept900>"))
        suffix = store.dictionary.entries_from(start)
        assert suffix == ("<person900>", "<dept900>")

        def terms_only(terms_from, terms):
            return Sync(token, token, terms_from=terms_from, terms=terms, epoch=1)

        for _ in range(2):
            state.handle(terms_only(start, suffix))
            assert state.stats().terms == len(store.dictionary)
            assert state.wire.limit == len(store.dictionary)
        assert state.epoch == 1
        with pytest.raises(WorkerStateError, match="gap"):
            state.handle(terms_only(start + 5, ("<x>",)))
        with pytest.raises(WorkerStateError, match="conflict"):
            state.handle(terms_only(start, ("<y>",)))
        assert list(state.snapshot.dictionary) == list(store.dictionary)
    finally:
        state.close()


if HAVE_HYPOTHESIS:
    term_st = st.sampled_from(
        ["<dept0>", "<dept1>", "ub:worksFor", "<person0>", "<person1>",
         "<univ0>", '"person3@example.org"']
    )
    rows_st = st.lists(st.tuples(term_st, term_st), max_size=12)
    kind_st = st.sampled_from(["own", "foreign", "rows"])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.tuples(kind_st, rows_st), max_size=4), min_size=1, max_size=4
        )
    )
    def test_prop_any_chunk_mix_round_trips(frames):
        """Blocks over the store's dictionary, blocks over a foreign
        one (numbering the same terms otherwise) and row lists, mixed in
        one tag, frame after frame: the peer reads exactly the rows that
        were sent, each non-empty own block as a block over its own
        dictionary, everything else as rows."""
        sender, receiver = _codec(), _codec()
        foreign = Dictionary()
        foreign.encode_many(list(reversed(list(sender.dictionary))))
        for frame in frames:
            chunks = [
                rows
                if kind == "rows"
                else _block(rows, sender.dictionary if kind == "own" else foreign)
                for kind, rows in frame
            ]
            (_, _, grouped), = _ship(sender, receiver, _reduce_level({0: chunks})).tasks
            got = grouped[0]
            assert chunk_rows(got) == [row for _kind, rows in frame for row in rows]
            for (kind, rows), chunk in zip(frame, got):
                if kind == "own" and rows:
                    assert isinstance(chunk, ColumnBlock)
                    assert chunk.dictionary is receiver.dictionary
                else:
                    assert isinstance(chunk, list)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.lists(st.sampled_from(BOUNDARY_IDS), min_size=1, max_size=5),
                min_size=1, max_size=4,
            ),
            min_size=1, max_size=3,
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_prop_id_columns_round_trip_at_every_width(blocks, count):
        """Several blocks in one frame, ids at widths 1/2/4/8: one
        buffer at the narrowest width for the frame's largest id, and
        every block reads back with its own ids."""
        snapshot = _Numbering()
        sent = [
            [(ids * count)[:count] for ids in columns] for columns in blocks
        ]
        frame = WireCodec(snapshot).dumps(
            ExecuteLevel(
                level=0, phase="reduce",
                tasks=tuple(
                    (None, i, {0: [_id_block(columns, snapshot)]})
                    for i, columns in enumerate(sent)
                ),
            )
        )
        top = max(i for columns in sent for column in columns for i in column)
        width, buffer = _buffer(frame)
        assert width == min(w for w in (1, 2, 4, 8) if top < 1 << (8 * w))
        assert len(buffer) == width * sum(len(c) for cs in sent for c in cs)
        back = WireCodec(snapshot).loads(frame).tasks
        assert [
            [c.tolist() for c in grouped[0][0].columns] for _s, _p, grouped in back
        ] == sent
