"""Pickle round-trip registry for every RPC wire frame (FRAME001).

``FRAME_EXAMPLES`` is the registry the static linter cross-checks:
every frame class in :data:`repro.cluster.rpc.MESSAGE_TYPES` must have
an entry here, and every entry must survive a pickle round trip (the
wire is pickled dataclasses).  Values are zero-argument factories so
the heavy frames (``Prime``'s snapshot, ``ExecuteLevel``'s task specs)
are built only when the test actually runs.

Below the registry: the columnar codec's two paths through those frames
— rows and id blocks — over in-memory endpoints that,
like a driver and its workers, number terms as the store does.
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
from repro.cluster.rpc import WorkerStateError, _WorkerState
from repro.columnar.block import ColumnBlock, chunk_rows
from repro.columnar.wire import (
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
    ),
    # An epoch flip carrying a dictionary suffix to merge.
    "TableUpdate": lambda: TableUpdate(epoch=4, terms_from=9, terms=("<t>",)),
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




# -- the codec: one numbering on both ends ---------------------------------------


def _codec(blocks=False, limit=None, snapshot=None):
    return WireCodec(snapshot or _snapshot(), blocks=blocks, limit=limit)


def _ship(sender, receiver, msg):
    """Encode *msg*, cross a pickle boundary, decode."""
    return receiver.decode(pickle.loads(pickle.dumps(sender.encode(msg))))


def _reduce_level(grouped):
    return ExecuteLevel(
        level=0, phase="reduce", tasks=((_job().reduce_spec, 0, grouped),)
    )


def test_results_frame_codec_round_trip():
    """The columnar codec turns the example ``ResultsReply`` into the
    per-partition packed shape and back to row lists."""
    reply = FRAME_EXAMPLES["ResultsReply"]()
    packed_map, packed_reduce = _codec().encode(reply).results
    assert isinstance(packed_map, PackedMapResult)
    groups, rows = packed_map.emits
    assert groups == ((0, 0, 1), (2, 1, 2))
    assert isinstance(rows, PackedRows) and rows.count == 3
    assert isinstance(packed_reduce, PackedReduceResult)
    assert _ship(_codec(), _codec(), reply) == reply


def test_zero_arity_rows_survive_the_row_path():
    """Rows with no cells have no column to carry their count: they
    cross raw, not as a ``PackedRows`` that unpacks to nothing."""
    d = Dictionary()
    packed = pack_rows([(), ()], d.encode)
    assert isinstance(packed, RawRows)
    assert unpack_rows(packed, d.decode) == [(), ()]
    reply = ResultsReply(results=[([()], TaskMetrics())])
    assert _ship(_codec(), _codec(), reply) == reply


def test_codec_never_numbers_a_term():
    """A codec looks terms up and never assigns an id: a term the store
    does not hold fails the encoding, and a worker's codec (``limit``)
    refuses an id at or past the length the driver synced."""
    dictionary = _store().dictionary
    size = len(dictionary)
    with pytest.raises(KeyError):
        _codec().encode(_reduce_level({0: [[("<never-loaded>",)]]}))
    assert len(dictionary) == size
    reply = ResultsReply(results=[([("<dept0>",)], TaskMetrics())])
    with pytest.raises(ValueError, match="driver synced"):
        _codec(limit=dictionary.id_of("<dept0>")).encode(reply)
    assert _ship(_codec(limit=size), _codec(), reply) == reply


@pytest.mark.parametrize("wire", ["pickle", "columnar"])
def test_level_frames_carry_their_task_specs(wire):
    """An ``ExecuteLevel`` ships the map and reduce specs themselves;
    both wires hand the worker specs equal to the driver's, and the
    columnar codec leaves them alone while it packs the chunks."""
    job = _job()
    rows = [("<dept0>", "<person0>"), ("<dept1>", "<person1>")]
    map_level = replace(
        _level(),
        inputs={"f": DistributedRelation(("?d", "?p"), [rows, [], []])},
    )
    reduce_level = _reduce_level({0: [rows], 1: [rows[:1]]})
    if wire == "pickle":
        def ship(msg):
            return pickle.loads(pickle.dumps(msg))
    else:
        ship = functools.partial(_ship, _codec(), _codec())
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


# -- the block path --------------------------------------------------------------

#: ids straddling every width boundary, and beyond int32
BOUNDARY_IDS = [
    0, 1, 254, 255, 256, 257, 65_534, 65_535, 65_536, 65_537,
    2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**62,
]


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


def test_a_block_crosses_driver_worker_driver_with_the_same_ids():
    """One id space, frame by frame: a block over the store's dictionary
    crosses to a worker primed with a pickled snapshot — its replica —
    and back, and the buffer on the wire is the block's own ids both
    ways; no dictionary is grown and no id is translated."""
    import numpy as np

    store = partition_graph(make_university_graph(), NUM_NODES)
    driver = WireCodec(store.snapshot(), blocks=True)
    state = _WorkerState(0, NUM_NODES)
    try:
        replica = pickle.loads(pickle.dumps(store.snapshot()))
        state.handle(Prime(replica, wire="columnar"))
        worker = state.wire
        assert worker.dictionary is replica.dictionary is not store.dictionary
        assert list(worker.dictionary) == list(store.dictionary)
        assert worker.limit == len(store.dictionary)
        assert worker.blocks
        rows = [("<person3>", "<dept2>"), ("<dept0>", "ub:Student")] * 3
        block = ColumnBlock.from_rows(("?a", "?b"), rows, store.dictionary, mint=False)
        sizes = len(store.dictionary)

        out = driver.encode(_reduce_level({0: [block]}))
        (_, _, packed), = out.tasks
        assert packed[0] == pack_columns(block.columns)  # the ids as they are
        (_, _, grouped), = worker.decode(pickle.loads(pickle.dumps(out))).tasks
        [chunk] = grouped[0]
        assert chunk.dictionary is worker.dictionary
        assert all(np.array_equal(a, b) for a, b in zip(chunk.columns, block.columns))
        assert list(chunk) == rows

        reply = worker.encode(ResultsReply(results=[(chunk, TaskMetrics())]))
        assert reply.results[0].rows == pack_columns(block.columns)
        (back, _), = driver.decode(pickle.loads(pickle.dumps(reply))).results
        assert back.dictionary is store.dictionary
        assert all(np.array_equal(a, b) for a, b in zip(back.columns, block.columns))

        # a map level's inputs keep their schema; unowned partitions stay empty
        level = ExecuteLevel(
            level=1, phase="map", tasks=_level().tasks,
            inputs={"f": DistributedRelation(("?a", "?b"), [Chunks([block, block]), []])},
        )
        relation = worker.decode(pickle.loads(pickle.dumps(driver.encode(level))))
        partitions = relation.inputs["f"].partitions
        assert list(partitions[0]) == rows + rows and list(partitions[1]) == []
        assert partitions[0].attrs == ("?a", "?b")
        # ... and a map result's emits come back grouped per partition
        reply = worker.encode(
            ResultsReply(
                results=[([(0, 0, chunk[:4]), (2, 0, chunk[4:])], chunk, TaskMetrics())]
            )
        )
        (emits, direct, _), = driver.decode(pickle.loads(pickle.dumps(reply))).results
        assert [(p, tag, list(c)) for p, tag, c in emits] == [
            (0, 0, rows[:4]),
            (2, 0, rows[4:]),
        ]
        assert all(c.dictionary is store.dictionary for _p, _tag, c in emits)
        assert list(direct) == rows
        assert len(store.dictionary) == len(replica.dictionary) == sizes
    finally:
        state.close()


def test_block_and_row_endpoints_interoperate():
    """``blocks`` is each end's own choice: a block packed here unpacks
    to rows on a row endpoint, and its rows come back as a block."""
    blocks, rows_end = _codec(blocks=True), _codec()
    rows = [("<dept0>", "<univ0>"), ("<person2>", "<dept0>")]
    block = ColumnBlock.from_rows(("?x", "?y"), rows, blocks.dictionary, mint=False)
    (_, _, grouped), = _ship(blocks, rows_end, _reduce_level({0: [block]})).tasks
    assert grouped == {0: [rows]}
    reply = ResultsReply(results=[(rows, TaskMetrics())])
    (out, _metrics), = _ship(rows_end, blocks, reply).results
    assert isinstance(out, ColumnBlock) and out.dictionary is blocks.dictionary
    assert list(out) == rows


def test_table_update_merges_the_store_suffix():
    """A worker whose snapshot is current learns the terms the store
    numbered since from a ``TableUpdate``: merged by position (a
    duplicate is a no-op), its codec's limit moves with it, and a gap
    or a conflicting term is a typed error that leaves the replica as
    it was."""
    store = partition_graph(make_university_graph(), NUM_NODES)
    state = _WorkerState(0, NUM_NODES)
    try:
        state.handle(Prime(pickle.loads(pickle.dumps(store.snapshot())), "columnar"))
        start = len(store.dictionary)
        store.add(("<person900>", "ub:worksFor", "<dept900>"))
        suffix = store.dictionary.entries_from(start)
        assert suffix == ("<person900>", "<dept900>")
        for _ in range(2):
            state.handle(TableUpdate(epoch=1, terms_from=start, terms=suffix))
            assert state.stats().terms == len(store.dictionary)
            assert state.wire.limit == len(store.dictionary)
        assert state.epoch == 1
        with pytest.raises(WorkerStateError, match="gap"):
            state.handle(TableUpdate(epoch=1, terms_from=start + 5, terms=("<x>",)))
        with pytest.raises(WorkerStateError, match="conflict"):
            state.handle(TableUpdate(epoch=1, terms_from=start, terms=("<y>",)))
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
        were sent, as one block over its own dictionary."""
        sender, receiver = _codec(blocks=True), _codec(blocks=True)
        foreign = Dictionary()
        foreign.encode_many(list(reversed(list(sender.dictionary))))
        for frame in frames:
            chunks = [
                rows
                if kind == "rows"
                else ColumnBlock.from_rows(
                    ("?a", "?b"),
                    rows,
                    sender.dictionary if kind == "own" else foreign,
                    mint=False,
                )
                for kind, rows in frame
            ]
            (_, _, grouped), = _ship(sender, receiver, _reduce_level({0: chunks})).tasks
            [chunk] = grouped[0]
            assert list(chunk) == [row for _kind, rows in frame for row in rows]
            if chunk:
                assert isinstance(chunk, ColumnBlock)
                assert chunk.dictionary is receiver.dictionary

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
