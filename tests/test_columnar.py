"""repro.columnar: block round-trips, dictionary deltas, wire packing,
and vectorized-vs-tuple kernel equivalence.

The deterministic randomized tests always run (seeded ``random``); the
property-based tests additionally run under hypothesis when it is
installed.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.columnar.block import ColumnBlock, pack_codes, to_blocks, to_rows
from repro.columnar.engine import MAX_CACHED_SCANS, ColumnarState
from repro.columnar.kernels import (
    HashMemo,
    project_block,
    select_bind,
    shuffle_partitions,
    stable_order,
    star_join_blocks,
)
from repro.columnar.wire import (
    PackedRows,
    RawRows,
    pack_rows,
    unpack_rows,
)
from repro.mapreduce.backends import ExecutionBackend, make_backend
from repro.mapreduce.jobs import stable_hash
from repro.rdf.dictionary import Dictionary
from repro.relational.joins import star_join
from repro.relational.relation import Relation

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # tier-1 CI leg installs pytest only
    HAVE_HYPOTHESIS = False

#: terms spanning every RDF shape the dictionary must hold losslessly
TERMS = [
    "<http://example.org/u/Alice>",
    "<http://example.org/u/Bob#frag>",
    'ub:name "Ann \\"the\\" author"',
    '"literal with spaces and unicode: é中文"',
    '"42"^^<http://www.w3.org/2001/XMLSchema#integer>',
    "_:b0",
    "_:blank-node.17",
    "",
    "plain",
]


# -- ColumnBlock round-trips ---------------------------------------------------


def test_block_roundtrip_preserves_rows_and_order():
    d = Dictionary()
    rows = [
        (TERMS[0], TERMS[2], TERMS[5]),
        (TERMS[1], TERMS[3], TERMS[6]),
        (TERMS[0], TERMS[2], TERMS[5]),  # duplicates survive
        (TERMS[7], TERMS[8], TERMS[4]),
    ]
    block = ColumnBlock.from_rows(("?s", "?p", "?o"), rows, d)
    assert len(block) == 4
    assert block.to_rows(d) == rows


def test_block_relation_seam_roundtrip():
    d = Dictionary()
    relation = Relation(("?x", "?y"), [(a, b) for a in TERMS for b in TERMS])
    block = to_blocks(relation, d)
    assert block.attrs == ("?x", "?y")
    assert to_rows(block, d) == list(relation.rows)


def test_empty_block_roundtrip():
    d = Dictionary()
    block = ColumnBlock.from_rows(("?x",), [], d)
    assert len(block) == 0
    assert block.to_rows(d) == []
    assert ColumnBlock.empty(()).to_rows(d) == []


def test_block_column_lookup():
    d = Dictionary()
    block = ColumnBlock.from_rows(("?a", "?b"), [("x", "y")], d)
    assert list(block.column("?b")) == [d.encode("y")]
    with pytest.raises(KeyError):
        block.column("?missing")


# -- dictionary deltas ---------------------------------------------------------


def test_delta_merge_replicates_sender():
    sender, receiver = Dictionary(), Dictionary()
    for term in ("shared-a", "shared-b"):
        sender.encode(term)
        receiver.encode(term)
    mark = len(sender)
    ids = [sender.encode(t) for t in TERMS]
    receiver.merge_entries(mark, sender.entries_from(mark))
    assert len(receiver) == len(sender)
    for term, ident in zip(TERMS, ids):
        assert receiver.decode(ident) == term
        assert receiver.lookup(term) == ident


def test_delta_merge_is_idempotent():
    sender, receiver = Dictionary(), Dictionary()
    sender.encode("seed")
    receiver.encode("seed")
    sender.encode("new-term")
    delta = sender.entries_from(1)
    receiver.merge_entries(1, delta)
    receiver.merge_entries(1, delta)  # re-delivery after a retry
    assert len(receiver) == 2
    assert receiver.decode(1) == "new-term"


def test_delta_gap_and_conflict_rejected():
    receiver = Dictionary()
    receiver.encode("a")
    with pytest.raises(ValueError, match="gap"):
        receiver.merge_entries(5, ("x",))
    with pytest.raises(ValueError):
        receiver.merge_entries(0, ("not-a",))


def test_delta_ships_only_unseen_terms():
    sender = Dictionary()
    sender.encode("resident")
    mark = len(sender)
    sender.encode("resident")  # already seen: id reused, no new entry
    assert sender.entries_from(mark) == ()
    sender.encode("fresh")
    assert sender.entries_from(mark) == ("fresh",)


# -- wire packing --------------------------------------------------------------


def test_pack_rows_roundtrip_and_width_selection():
    d = Dictionary()
    # force ids into each width class: 1, 2, 4 bytes
    for i in range(70000):
        d.encode(f"t{i}")
    for ids, width in (([0, 1], 1), ([300, 12], 2), ([69999, 3], 4)):
        rows = [(d.decode(i),) for i in ids]
        packed = pack_rows(rows, d.encode)
        assert isinstance(packed, PackedRows)
        assert packed.widths == (width,)
        assert len(packed.data) == width * len(ids)
        assert unpack_rows(packed, d.decode) == rows


def test_pack_rows_smaller_than_pickle_on_wide_terms():
    import pickle

    d = Dictionary()
    rows = [
        (f"<http://example.org/dept{i % 7}/person{i}>", f'"name {i}"')
        for i in range(500)
    ]
    for row in rows:
        for term in row:
            d.encode(term)  # terms resident on both ends: only ids ship
    packed = pack_rows(rows, d.encode)
    assert len(packed.data) < len(pickle.dumps(rows))


def test_pack_rows_falls_back_on_ragged_or_nonstring():
    d = Dictionary()
    for rows in ([("a",), ("b", "c")], [("a", 1)], [(None,)]):
        packed = pack_rows(rows, d.encode)
        assert isinstance(packed, RawRows)
        assert unpack_rows(packed, d.decode) == rows
    assert len(d) == 0  # fallback must not pollute the send dictionary


class iter_only:
    """A chunk in the minimal sense: sized and iterable, nothing else."""

    def __init__(self, rows):
        self._rows = rows

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)


# -- kernel equivalence (deterministic randomized) -----------------------------


def random_relation(rng, attrs, terms, n):
    return Relation(
        attrs, [tuple(rng.choice(terms) for _ in attrs) for _ in range(n)]
    )


def assert_join_equivalent(inputs, on):
    """Vectorized and tuple star joins agree as row multisets."""
    d = Dictionary()
    blocks = [to_blocks(r, d) for r in inputs]
    expected = star_join(inputs, on=on)
    got = star_join_blocks(blocks, on=on)
    assert got.attrs == expected.attrs
    assert sorted(to_rows(got, d)) == sorted(expected.rows)


def test_star_join_equivalence_randomized():
    rng = random.Random(20150413)
    terms = [f"v{i}" for i in range(6)] + TERMS[:4]
    for trial in range(50):
        width = rng.randint(1, 3)
        num_inputs = rng.randint(2, 4)
        on = tuple(f"?k{i}" for i in range(width))
        inputs = [
            random_relation(
                rng,
                on + tuple(f"?a{j}.{i}" for i in range(rng.randint(0, 2))),
                terms,
                rng.randint(0, 12),
            )
            for j in range(num_inputs)
        ]
        assert_join_equivalent(inputs, on)


def test_star_join_shared_nonkey_attr_equivalence():
    # two inputs sharing a non-key attribute: merge must enforce equality
    left = Relation(("?k", "?x"), [("a", "1"), ("a", "2"), ("b", "1")])
    right = Relation(("?k", "?x", "?y"), [("a", "1", "p"), ("a", "3", "q")])
    assert_join_equivalent([left, right], on=("?k",))


def test_select_bind_matches_bind_triple():
    from repro.physical.translate import bind_triple
    from repro.sparql.ast import TriplePattern

    rng = random.Random(7)
    terms = ["a", "b", "c"]
    triples = [
        tuple(rng.choice(terms) for _ in range(3)) for _ in range(200)
    ]
    d = Dictionary()
    cols = tuple(
        ColumnBlock.from_rows(("?c",), [(t[i],) for t in triples], d).columns[0]
        for i in range(3)
    )
    for pattern in (
        TriplePattern("?s", "b", "?o"),
        TriplePattern("?s", "?p", "c"),
        TriplePattern("?x", "b", "?x"),  # repeated variable
        TriplePattern("?s", "never-seen", "?o"),
    ):
        expected = []
        for t in triples:
            row = bind_triple(pattern, t)
            if row is not None:
                expected.append(row)
        out_vars = pattern.variables()
        positions = {}
        for pos, part in enumerate((pattern.s, pattern.p, pattern.o)):
            if part.startswith("?"):
                positions.setdefault(part, []).append(pos)
        const_checks = [
            (pos, d.lookup(part))
            for pos, part in enumerate((pattern.s, pattern.p, pattern.o))
            if not part.startswith("?")
        ]
        var_positions = [tuple(positions[v]) for v in out_vars]
        selected = select_bind(cols, const_checks, var_positions)
        block = ColumnBlock(tuple(out_vars), tuple(selected))
        assert block.to_rows(d) == expected


def test_project_block_matches_relation_project():
    rng = random.Random(99)
    relation = random_relation(rng, ("?a", "?b", "?c"), ["x", "y", "z"], 40)
    d = Dictionary()
    block = to_blocks(relation, d)
    for attrs in (("?b",), ("?c", "?a"), ("?a", "?b", "?c")):
        got = to_rows(project_block(block, attrs), d)
        assert got == list(relation.project(attrs).rows)


def test_shuffle_partitions_match_stable_hash():
    rng = random.Random(3)
    relation = random_relation(rng, ("?k1", "?k2", "?v"), TERMS, 60)
    d = Dictionary()
    block = to_blocks(relation, d)
    memo = HashMemo(d)
    key = relation.key(("?k2", "?k1"))
    for num_reducers in (1, 3, 8):
        got = shuffle_partitions(block, ("?k2", "?k1"), num_reducers, memo)
        expected = [
            stable_hash(key(row)) % num_reducers for row in relation.rows
        ]
        assert got == expected


# -- bulk-kernel equivalence on raw id blocks -----------------------------------
#
# The join and the projection never look at terms, so these drive them on
# id tuples directly — which reaches ids no dictionary of a test could
# assign (>= 2^31, and near 2^62 where packing two key columns into one
# int64 must not overflow) — against the tuple kernels run on the same
# integers.

ID_OFFSETS = (0, 1 << 31, (1 << 62) - 8)
SIZES = (0, 1, 1, 2, 3, 7, 12, 25)


def random_id_relation(rng, attrs, offset, n, domain=4):
    rows = [tuple(offset + rng.randrange(domain) for _ in attrs) for _ in range(n)]
    if rows and rng.random() < 0.5:
        rows += rng.choices(rows, k=rng.randint(1, 4))  # guaranteed duplicates
    return Relation(attrs, rows)


def id_block(relation):
    return ColumnBlock.from_id_rows(relation.attrs, relation.rows)


def key_sorted(relation, on):
    """*relation* with its rows sorted by their *on* values (stable)."""
    key = relation.key(on)
    return Relation(relation.attrs, sorted(relation.rows, key=key))


def lookup_inputs(rng, on, offset):
    """A left input and 1-2 right inputs with unique *on* keys that all,
    some or none of the left keys hit, each input key-sorted or not."""
    domain = rng.choice((2, 3, 5))
    left = random_id_relation(rng, on + ("?x0",), offset, rng.choice(SIZES[1:]), domain)
    left_keys = sorted(set(map(left.key(on), left.rows)))
    inputs = [left]
    for i in range(rng.randint(1, 2)):
        hits = rng.choice(("all", "some", "none"))
        if hits == "all":
            keys = list(left_keys)
        elif hits == "some":
            keys = rng.sample(left_keys, rng.randint(0, len(left_keys) - 1))
        else:
            keys = []
        # keys outside the left domain: never hit
        keys += [
            tuple(offset + domain + rng.randrange(3) for _ in on)
            for _ in range(rng.randint(0, 3))
        ]
        keys = list(dict.fromkeys(keys))
        rng.shuffle(keys)
        rows = [key + (offset + rng.randrange(4),) for key in keys]
        inputs.append(Relation(on + (f"?y{i}",), rows))
    if rng.random() < 0.5:
        inputs = [key_sorted(r, on) for r in inputs]
    return inputs


@pytest.mark.parametrize("offset", ID_OFFSETS)
def test_star_join_id_equivalence_randomized(offset, monkeypatch):
    """Multi-attribute keys, 2-5 inputs, non-key attributes shared by
    some of the inputs, duplicate rows, empty and 1-row inputs; inputs
    sorted by key or not, and right sides with unique keys (N:1
    lookups) that every, some or no left row hits.  Each probe path is
    taken: a key-sorted right side (no ``stable_order``), an unsorted
    one, an N:1 lookup every left row hits, one some miss."""
    from collections import Counter

    from repro.columnar import kernels

    paths: Counter = Counter()
    sorts = []
    real_order, real_join = kernels.stable_order, kernels._natural_join

    def counted_order(keys):
        sorts.append(len(keys))
        return real_order(keys)

    def spied_join(left, right):
        shared = [a for a in left.attrs if a in right.attrs]
        left_keys = list(zip(*(left.column(a).tolist() for a in shared)))
        right_keys = list(zip(*(right.column(a).tolist() for a in shared)))
        ordered = right_keys == sorted(right_keys)
        before = len(sorts)
        out = real_join(left, right)
        assert (len(sorts) > before) == (not ordered)  # sorts only when out of order
        paths["sorted" if ordered else "unsorted"] += 1
        if len(set(right_keys)) == len(right_keys):
            hit = set(right_keys).issuperset(left_keys)
            paths["lookup-all-hit" if hit else "lookup-partial"] += 1
        return out

    monkeypatch.setattr(kernels, "stable_order", counted_order)
    monkeypatch.setattr(kernels, "_natural_join", spied_join)
    rng = random.Random(14 + offset % 97)
    nonempty_outputs = 0
    for trial in range(240):
        on = tuple(f"?k{i}" for i in range(rng.randint(1, 3)))
        if trial % 2:
            inputs = lookup_inputs(rng, on, offset)
        else:
            extras = [f"?x{i}" for i in range(3)]  # small pool: inputs collide on these
            inputs = [
                random_id_relation(
                    rng,
                    on + tuple(rng.sample(extras, rng.randint(0, 2))),
                    offset,
                    rng.choice(SIZES),
                    domain=rng.choice((2, 3, 5)),
                )
                for _ in range(rng.randint(2, 5))
            ]
            if rng.random() < 0.3:
                inputs = [key_sorted(r, on) for r in inputs]
        expected = star_join(inputs, on=on)
        got = star_join_blocks([id_block(r) for r in inputs], on=on)
        assert got.attrs == expected.attrs
        assert sorted(got.id_rows()) == sorted(expected.rows)
        nonempty_outputs += bool(expected.rows)
    assert nonempty_outputs > 20  # the sweep is not vacuous
    for path in ("sorted", "unsorted", "lookup-all-hit", "lookup-partial"):
        assert paths[path] >= 10, paths


def test_star_join_rejects_missing_key_attr():
    left = id_block(Relation(("?k", "?a"), [(1, 2)]))
    right = id_block(Relation(("?b",), [(1,)]))
    with pytest.raises(ValueError, match="lacks key attrs"):
        star_join_blocks([left, right], on=("?k",))


@pytest.mark.parametrize("offset", ID_OFFSETS)
def test_project_block_id_equivalence_randomized(offset):
    rng = random.Random(offset % 89)
    attrs = ("?a", "?b", "?c")
    for trial in range(60):
        relation = random_id_relation(
            rng, attrs, offset, rng.choice(SIZES), domain=rng.choice((2, 4))
        )
        block = id_block(relation)
        for onto in (("?b",), ("?c", "?a"), attrs):
            got = project_block(block, onto)
            assert got.attrs == onto
            # first-seen order, not just the same set
            assert got.id_rows() == list(relation.project(onto).rows)


def test_shuffle_partitions_randomized_and_memo_growth():
    """Multi-attribute keys, duplicate / empty / 1-row blocks, and a
    dictionary that keeps growing under one memo."""
    rng = random.Random(5)
    d = Dictionary()
    memo = HashMemo(d)
    vocabulary = list(TERMS)
    for round_no in range(6):
        vocabulary += [f"<http://example.org/r{round_no}/t{i}>" for i in range(5)]
        for n in SIZES:
            relation = random_relation(rng, ("?k1", "?v", "?k2"), vocabulary, n)
            relation.rows.extend(relation.rows[:2])
            block = to_blocks(relation, d)
            for key_attrs in (("?k1",), ("?k2", "?k1"), ("?v", "?k1", "?k2")):
                key = relation.key(key_attrs)
                for num_reducers in (1, 7):
                    got = shuffle_partitions(block, key_attrs, num_reducers, memo)
                    assert got == [
                        stable_hash(key(row)) % num_reducers for row in relation.rows
                    ]


# -- encoded-scan cache -----------------------------------------------------------


def test_scan_cache_evicts_one_entry_not_all():
    """The bound holds in node-scans, and the insert that overflows it
    costs exactly the least recently used entries it must — a hot key
    survives it."""
    state = ColumnarState()
    node = [("s", "p", "o")]
    d = numbering(node[0]).dictionary
    hot = state.scan_columns(("hot",), [node, node], d, "s")  # a 2-node group scan
    assert [len(c) for c in hot[0]] == [2, 2, 2] and hot[1].tolist() == [1, 1]
    for i in range(MAX_CACHED_SCANS - 2):
        state.scan_columns(("cold", i), [node], d, "s")
    assert state.scan_columns(("hot",), [node, node], d, "s") is hot  # now youngest
    state.scan_columns(("wide",), [node, node], d, "s")  # 514 node-scans: two must go
    assert state._cached_node_scans == MAX_CACHED_SCANS
    assert state.scan_columns(("hot",), [node, node], d, "s") is hot
    assert ("cold", 0) not in state._scan_cache
    assert ("cold", 1) not in state._scan_cache
    assert ("cold", 2) in state._scan_cache


def test_scan_columns_of_an_empty_scan():
    columns, lengths = ColumnarState().scan_columns(("empty",), [[], []], Dictionary(), "s")
    assert [len(c) for c in columns] == [0, 0, 0]
    assert lengths.tolist() == [0, 0]


def test_shared_state_under_concurrent_queries():
    """Service threads share one ``ColumnarState``: its hash memo and
    scan cache grow while others read them.  Every thread must still
    route every row where ``stable_hash`` does and get back the rows it
    encoded."""
    import sys
    import threading

    state = ColumnarState()
    failures: list[str] = []

    def terms_of(seed: int, step: int) -> list[str]:
        return [f"<http://example.org/w{seed}/s{step}/t{i}>" for i in range(6)]

    d = numbering(
        TERMS + ["p"] + [t for w in range(8) for s in range(40) for t in terms_of(w, s)]
    ).dictionary

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        for step in range(40):
            terms = terms_of(seed, step)
            relation = random_relation(rng, ("?k", "?v"), terms + TERMS, 30)
            try:
                block = state.encode_rows(relation.attrs, relation.rows, d)
                state.scan_columns((seed, step % 5), [[(t, "p", t) for t in terms]], d, "s")
                key = relation.key(("?k", "?v"))
                got = shuffle_partitions(block, ("?k", "?v"), 7, state.memo(d))
            except Exception as exc:
                failures.append(f"worker {seed} step {step}: {exc!r}")
                return
            if got != [stable_hash(key(row)) % 7 for row in relation.rows]:
                failures.append(f"worker {seed} step {step}: partitions differ")
            if block.to_rows(d) != relation.rows:
                failures.append(f"worker {seed} step {step}: rows differ")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[:3]


# -- block-native dataflow: chunks from scan to answer ---------------------------


def numbering(terms):
    """A data-less store snapshot whose dictionary numbers *terms*: the
    store a test's hand-made rows stand for (the engine computes in the
    store's numbering and never numbers a term itself)."""
    from repro.partitioning.triple_partitioner import PartitionedStore

    store = PartitionedStore(num_nodes=1)
    store.dictionary.encode_many(list(dict.fromkeys(terms)))
    return store.snapshot()


def shuffler_ctx(attrs, node_rows, terms=()):
    """A context whose HDFS file ``f`` holds ``node_rows[n]`` on node
    ``n`` (and whose store numbers their terms and *terms*), and the
    map-shuffler chain that reads it."""
    from repro.mapreduce.hdfs import HDFS, DistributedRelation
    from repro.mapreduce.jobs import TaskContext
    from repro.physical.operators import MapShuffler

    hdfs = HDFS(num_nodes=len(node_rows))
    hdfs.write("f", DistributedRelation(attrs, [list(rows) for rows in node_rows]))
    chain = MapShuffler(on=attrs[:1], source="f", source_attrs=attrs)
    store = numbering([t for rows in node_rows for row in rows for t in row] + list(terms))
    return TaskContext(num_nodes=len(node_rows), store=store, hdfs=hdfs), chain


def assert_split_matches_chain_map(attrs, rows, key_attrs, num_reducers):
    """One chain-map group of three tasks — *rows* on node 0, every
    other one of them on node 1, read by two tasks — puts on each
    reducer one block holding exactly the row multiset each task's
    ``ChainMapSpec.run`` routes there, on the group's first task; every
    task keeps its own counters.  A block's rows are ordered by the
    packed shuffle key, rows with equal keys in task order."""
    from repro.columnar.engine import run_chain_map
    from repro.physical.executor import ChainMapSpec
    from tests.conformance import shuffled_rows, task_outputs

    ctx, chain = shuffler_ctx(attrs, [rows, rows[::2]])
    specs = [
        ChainMapSpec(
            chain=chain, node=node, tag=3, key_attrs=key_attrs, num_reducers=num_reducers
        )
        for node in (1, 0, 1)
    ]
    got = run_chain_map(specs, ctx, ColumnarState())
    want = [spec.run(ctx) for spec in specs]
    assert task_outputs(got) == task_outputs(want)
    assert all(len(direct) == 0 for _s, direct, _m in got)
    emits = got[0][0]
    assert all(shuffle == [] for shuffle, _d, _m in got[1:])
    assert all(tag == 3 for _p, tag, _c in emits)
    assert all(chunk.dictionary is ctx.store.dictionary for _p, _t, chunk in emits)
    assert len({p for p, _tag, _chunk in emits}) == len(emits)  # one block per partition
    assert shuffled_rows(got) == shuffled_rows(want)
    positions = [attrs.index(a) for a in key_attrs]

    def key(row):
        return tuple(row[i] for i in positions)

    for partition, _tag, chunk in emits:
        in_task_order = [
            row
            for shuffle, _d, _m in want
            for p, _t, routed in shuffle
            if p == partition
            for row in routed
        ]
        got_rows = list(chunk)
        assert sorted(got_rows) == sorted(in_task_order)  # same row multiset
        codes = pack_codes([chunk.column(a) for a in key_attrs]).tolist()
        assert codes == sorted(codes)  # ordered by the packed shuffle key
        code_of = dict(zip(map(key, got_rows), codes))
        # a stable sort of the task-order rows: equal keys keep task order
        assert got_rows == sorted(in_task_order, key=lambda row: code_of[key(row)])
    assert sum(len(chunk) for _p, _t, chunk in emits) == len(rows) + 2 * len(rows[::2])


def test_partition_split_matches_chain_map_routing():
    rng = random.Random(19)
    attrs = ("?k1", "?k2", "?v")
    for n in SIZES + (60, 200):
        rows = random_relation(rng, attrs, TERMS, n).rows
        for key_attrs in (("?k1",), ("?k2", "?k1"), ("?v", "?k1", "?k2")):
            for num_reducers in (1, 2, 7, 9):
                assert_split_matches_chain_map(attrs, rows, key_attrs, num_reducers)
    # every row on one partition: the block goes through uncut
    same_key = [("k", "x", f"v{i}") for i in range(25)]
    assert_split_matches_chain_map(attrs, same_key, ("?k1", "?k2"), 7)


def mixed_reduce_inputs(rng):
    """A 2-input star-reduce task and, per tag, its rows cut three ways."""
    from repro.physical.executor import StarReduceSpec

    terms = [f"v{i}" for i in range(5)] + TERMS[:3]
    child_attrs = (("?k", "?a"), ("?k", "?b", "?a"))
    spec = StarReduceSpec(on=("?k",), child_attrs=child_attrs, project=("?b", "?k"))
    rows = {
        tag: random_relation(rng, attrs, terms, 18).rows
        for tag, attrs in enumerate(child_attrs)
    }
    return spec, rows


def test_reducer_reads_mixed_chunks_like_the_tuple_reducer():
    """Own-dictionary blocks, a foreign dictionary's blocks and plain row
    lists, mixed under one tag: same rows, bit-equal counters as the
    tuple reducer on the flattened rows."""
    from repro.mapreduce.backends import ColumnarBackend, TaskInvocation
    from repro.mapreduce.jobs import TaskContext

    rng = random.Random(23)
    backend = ColumnarBackend()
    ctx = TaskContext(num_nodes=1, store=numbering([f"v{i}" for i in range(5)] + TERMS))
    own, foreign = ctx.store.dictionary, Dictionary()
    foreign.encode_many([f"pad{i}" for i in range(50)])  # ids must not line up
    for _ in range(20):
        spec, rows = mixed_reduce_inputs(rng)
        grouped = {}
        for tag, attrs in enumerate(spec.child_attrs):
            r = rows[tag]
            grouped[tag] = [
                ColumnBlock.from_rows(attrs, r[:5], own),
                ColumnBlock.from_rows(attrs, r[5:9], foreign),
                r[9:14],
                ColumnBlock.from_rows(attrs, [], foreign),
                iter_only(r[14:]),
            ]
        want_rows, want_metrics = spec.run(ctx, 0, {t: [r] for t, r in rows.items()})
        [(got, got_metrics)] = backend.run(
            [TaskInvocation(spec, (0, grouped), 0, "reduce", 0)], ctx
        )
        assert got_metrics == want_metrics
        assert sorted(got) == sorted(want_rows)
        if len(got):
            assert got.dictionary is own
        # and the tuple reducer reads the very same mix
        assert spec.run(ctx, 0, grouped) == (want_rows, want_metrics)


def test_a_chunk_never_pickles_its_dictionary():
    """What leaves a process — a pool worker's result, a pickle-wire
    frame — must not drag the term table along: a block pickles as its
    decoded rows."""
    import pickle

    from repro.cluster.frames import ResultsReply
    from repro.mapreduce.counters import TaskMetrics

    d = Dictionary()
    d.encode_many([f"<http://example.org/filler/{i}>" for i in range(5000)])
    rows = [("a", "b"), ("c", "a")]
    block = ColumnBlock.from_rows(("?x", "?y"), rows, d)
    assert len(pickle.dumps(d)) > 100_000
    map_result = ([(0, 0, block)], block, TaskMetrics())
    reduce_result = (block, TaskMetrics())
    frame = ResultsReply(results=[map_result, reduce_result])
    for leaving in (block, map_result, reduce_result, frame):
        data = pickle.dumps(leaving, pickle.HIGHEST_PROTOCOL)
        assert len(data) < 1000
        assert b"Dictionary" not in data and b"filler" not in data
    assert pickle.loads(pickle.dumps(block)) == rows
    clone = pickle.loads(pickle.dumps(frame))
    assert clone.results[0][:2] == ([(0, 0, rows)], rows)
    assert clone.results[1][0] == rows
    # a bare kernel block (no dictionary) still round-trips as a block
    bare = pickle.loads(pickle.dumps(ColumnBlock(block.attrs, block.columns)))
    assert bare.id_rows() == block.id_rows()


LUBM_UNIVERSITIES = 4


@pytest.fixture(scope="module")
def lubm_graph():
    from repro.workloads import lubm

    return lubm.generate(lubm.LUBMConfig(universities=LUBM_UNIVERSITIES))


def test_shared_backend_serves_five_shards_from_one_encoding(lubm_graph, monkeypatch):
    """5 in-process shard workers, each holding one ``ColumnarBackend``
    of its own: the scans are encoded on the first execution and never
    again (the seed kept 4 per-snapshot states and rebuilt one on every
    phase)."""
    from repro.cluster import ShardedPlanExecutor, shard_graph
    from repro.core.algorithm import cliquesquare
    from repro.core.decomposition import MSC
    from repro.mapreduce.backends import ColumnarBackend
    from repro.partitioning.triple_partitioner import partition_graph
    from repro.physical.executor import PlanExecutor
    from repro.workloads import lubm_queries

    plan = cliquesquare(lubm_queries.query("Q9"), MSC).plans[0]
    reference = PlanExecutor(partition_graph(lubm_graph, 7))
    want = reference.execute_prepared(reference.prepare(plan))

    encodes = []
    real = Dictionary.ids_of
    monkeypatch.setattr(
        Dictionary, "ids_of", lambda self, terms: encodes.append(1) or real(self, terms)
    )
    executor = ShardedPlanExecutor(shard_graph(lubm_graph, 7, 5))
    try:
        prepared = executor.prepare(plan)
        first = executor.execute_prepared(prepared)
        assert first.rows == want.rows and first.rows
        assert first.report.jobs == want.report.jobs
        cold = len(encodes)
        assert cold > 0
        for _ in range(9):
            assert executor.execute_prepared(prepared).rows == want.rows
        assert len(encodes) == cold
        from tests.conformance import shard_client

        engines = [shard_client(executor.router, s).worker.backend for s in range(5)]
        assert all(isinstance(engine, ColumnarBackend) for engine in engines)
        assert len({id(engine) for engine in engines}) == 5
    finally:
        executor.close()


@pytest.mark.parametrize("shards", [0, 2])
def test_the_engine_computes_in_the_store_dictionary(lubm_graph, monkeypatch, shards):
    """The columnar backend has no dictionary of its own: every block a
    task hands the engine, unsharded or on in-process shards, is over
    ``service.store.dictionary``, and running queries numbers nothing."""
    from repro import QueryService, ServiceConfig
    from repro.mapreduce.backends import ColumnarBackend
    from repro.workloads import lubm_queries

    chunks = []
    real = ColumnarBackend.run

    def run(self, invocations, ctx):
        results = real(self, invocations, ctx)
        for result in results:
            if len(result) == 3:
                chunks.extend(chunk for _p, _tag, chunk in result[0])
            chunks.append(result[-2])
        return results

    monkeypatch.setattr(ColumnarBackend, "run", run)
    with QueryService(
        lubm_graph,
        ServiceConfig(shards=shards, result_cache_size=0),
    ) as service:
        size = len(service.store.dictionary)
        for query in lubm_queries.all_queries():
            service.submit(query)
        blocks = [chunk for chunk in chunks if isinstance(chunk, ColumnBlock)]
        assert blocks
        assert all(block.dictionary is service.store.dictionary for block in blocks)
        assert len(service.store.dictionary) == size
        assert not hasattr(ColumnarState(), "dictionary")


def test_warm_submit_decodes_once_per_answer_column(lubm_graph, monkeypatch):
    """Warm, single store, the service's columnar engine: ids from scan to
    answer.  A submit decodes each answer column once, in the store's
    dictionary, and re-encodes nothing — no task output is turned into
    rows and back, and the answer is not re-projected from a set."""
    from repro import QueryService, ServiceConfig
    from repro.workloads import lubm_queries

    queries = lubm_queries.all_queries()
    with QueryService(
        lubm_graph, ServiceConfig(result_cache_size=0)
    ) as service:
        for query in queries:
            service.submit(query)
        calls = {"decode_column": 0, "from_rows": 0, "encode_rows": 0}
        decoded_in = []

        def counted(owner, name, make=lambda fn: fn):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, make(wrapper))

        real_decode = Dictionary.decode_column

        def decode_column(self, ids):
            calls["decode_column"] += 1
            decoded_in.append(self)
            return real_decode(self, ids)

        monkeypatch.setattr(Dictionary, "decode_column", decode_column)
        counted(ColumnarState, "encode_rows")
        # from_rows is a classmethod: the bound original already has cls
        counted(ColumnBlock, "from_rows", staticmethod)
        execute = service.executor.execute_prepared
        answers = []

        def recording_execute(prepared):
            result = execute(prepared)
            answers.append(result)
            return result

        monkeypatch.setattr(service.executor, "execute_prepared", recording_execute)
        outcomes = []
        for query in queries:
            decoded = calls["decode_column"]
            outcome = service.submit(query)
            assert not outcome.result_cache_hit
            assert len(answers) == queries.index(query) + 1
            # The width is the outcome's: reading an ExecutionResult's
            # rows would decode (and be counted) itself.
            width = len(outcome.attrs) if outcome.rows else 0
            assert calls["decode_column"] - decoded == width, query.name
            outcomes.append(outcome)
        assert any(outcome.rows for outcome in outcomes)
        assert decoded_in and all(
            d is service.store.dictionary for d in decoded_in
        )
        assert calls["from_rows"] == calls["encode_rows"] == 0


class RecordingBackend(ExecutionBackend):
    """Wraps a backend, keeping every task's ``TaskMetrics`` in order."""

    def __init__(self, inner):
        self.inner, self.name, self.seen = inner, inner.name, []

    def run(self, invocations, ctx):
        results = self.inner.run(invocations, ctx)
        self.seen.extend(result[-1] for result in results)
        return results


def per_task_metrics(store, plans, backend):
    from repro.physical.executor import PlanExecutor

    recorder = RecordingBackend(make_backend(backend))
    executor = PlanExecutor(store, backend=recorder)
    out = []
    for plan in plans:
        result = executor.execute_prepared(executor.prepare(plan))
        out.append((result.rows, result.report, list(recorder.seen)))
        recorder.seen.clear()
    executor.close()
    return out


def test_task_metrics_bit_equal_serial_vs_columnar_on_lubm(lubm_graph):
    from repro.core.algorithm import cliquesquare
    from repro.core.decomposition import MSC
    from repro.partitioning.triple_partitioner import partition_graph
    from repro.workloads import lubm_queries

    plans = [cliquesquare(q, MSC).plans[0] for q in lubm_queries.all_queries()]
    for num_nodes in (1, 2, 7):
        store = partition_graph(lubm_graph, num_nodes)
        serial = per_task_metrics(store, plans, "serial")
        columnar = per_task_metrics(store, plans, "columnar")
        for (rows_s, report_s, tasks_s), (rows_c, report_c, tasks_c) in zip(
            serial, columnar
        ):
            assert rows_c == rows_s
            assert tasks_c == tasks_s  # every task, every counter
            assert report_c.jobs == report_s.jobs
            assert report_c.response_time == report_s.response_time
            assert report_c.total_work == report_s.total_work


def test_task_metrics_bit_equal_serial_vs_columnar_on_shape_corpus():
    generators = pytest.importorskip("benchmarks.ledger.generators")
    from itertools import islice

    from repro.core.algorithm import cliquesquare
    from repro.core.decomposition import MSC
    from repro.partitioning.triple_partitioner import partition_graph
    from repro.rdf.graph import RDFGraph
    from repro.sparql.parser import parse_query

    graph = RDFGraph(generators.random_graph(12))
    texts = dict.fromkeys(text for _cls, text in islice(generators.shape_stream(), 64))
    plans = [
        cliquesquare(parse_query(text), MSC, max_plans=1).plans[0] for text in texts
    ]
    for num_nodes in (1, 2, 7):
        store = partition_graph(graph, num_nodes)
        serial = per_task_metrics(store, plans, "serial")
        columnar = per_task_metrics(store, plans, "columnar")
        assert any(rows for rows, _report, _tasks in serial)
        for (rows_s, report_s, tasks_s), (rows_c, report_c, tasks_c) in zip(
            serial, columnar
        ):
            assert rows_c == rows_s
            assert tasks_c == tasks_s
            assert report_c.jobs == report_s.jobs


# -- task groups: one kernel pass per group -------------------------------------


def comparable(result):
    """A task result as plain data: shuffled rows per (partition, tag)
    and output rows as sorted lists, beside the task's metrics."""
    if len(result) == 2:  # reduce: (output, metrics)
        output, metrics = result
        return sorted(output), metrics
    shuffle, direct, metrics = result
    routed: dict = {}
    for partition, tag, chunk in shuffle:
        routed.setdefault((partition, tag), []).extend(chunk)
    return {key: sorted(rows) for key, rows in routed.items()}, sorted(direct), metrics


def assert_groups_match_single(invocations, ctx, backend):
    """Every invocation's columnar result — inside whatever groups its
    batch forms — equals its spec's own tuple ``run``, but for where a
    chain-map group's shuffle rides: per group, the rows of all its
    tasks' runs per (partition, tag), on the group's first task."""
    from repro.columnar.engine import task_groups
    from repro.mapreduce.backends import TaskBatch
    from tests.conformance import shuffled_rows

    groups = task_groups([inv.spec for inv in invocations])
    got = backend.run(TaskBatch(tuple(invocations), groups), ctx)
    assert len(got) == len(invocations)
    want = [inv.spec.run(ctx, *inv.args) for inv in invocations]
    for positions in groups:
        for rank, position in enumerate(positions):
            result, alone = got[position], want[position]
            if len(alone) == 2:  # reduce: (output, metrics)
                assert comparable(result) == comparable(alone), invocations[position]
                continue
            assert comparable(result)[1:] == comparable(alone)[1:], invocations[position]
            if rank:
                assert result[0] == [], invocations[position]
        if len(want[positions[0]]) == 3:
            members = [got[p] for p in positions]
            assert shuffled_rows(members) == shuffled_rows([want[p] for p in positions])
            emits = members[0][0]
            assert len({(p, tag) for p, tag, _chunk in emits}) == len(emits)


class GroupChecker(ExecutionBackend):
    """The serial reference, checking on the side that a columnar
    backend gives every task of every batch — shuffled, its first task
    repeated — what the task gives alone."""

    name = "serial"

    def __init__(self, seed):
        self.rng, self.columnar, self.batches = random.Random(seed), make_backend("columnar"), []

    def run(self, invocations, ctx):
        batch = list(invocations) + list(invocations[:1])
        self.rng.shuffle(batch)
        assert_groups_match_single(batch, ctx, self.columnar)
        self.batches.append(batch)
        return [inv.spec.run(ctx, *inv.args) for inv in invocations]


def test_task_groups_equal_single_tasks(lubm_graph):
    """Shuffled batches mixing groups, two tasks on one node, nodes with
    no data, variable-free patterns and reduce partitions with one empty
    tag: every task's rows and counters equal its own tuple run."""
    from repro.columnar.engine import task_group
    from repro.core.algorithm import cliquesquare
    from repro.core.decomposition import MSC
    from repro.partitioning.triple_partitioner import partition_graph
    from repro.physical.executor import PlanExecutor
    from repro.rdf.graph import RDFGraph
    from repro.workloads import lubm_queries
    from tests.conformance import ground_queries

    queries = lubm_queries.all_queries() + ground_queries(lubm_graph)
    plans = [cliquesquare(q, MSC).plans[0] for q in queries]
    sparse = RDFGraph(sorted(lubm_graph)[:40])  # most nodes hold nothing
    batches = []
    for graph in (lubm_graph, sparse):
        checker = GroupChecker(seed=26)
        executor = PlanExecutor(partition_graph(graph, 7), backend=checker)
        for plan in plans:
            executor.execute_prepared(executor.prepare(plan))
        executor.close()
        batches += checker.batches
    assert any(len({task_group(inv.spec) for inv in b}) > 1 for b in batches)
    tag_sizes = [
        [sum(map(len, inv.args[1].get(t, ()))) for t in range(len(inv.spec.child_attrs))]
        for b in batches
        for inv in b
        if inv.phase == "reduce"
    ]
    assert any(0 in sizes and any(sizes) for sizes in tag_sizes)


def group_rows(block, task):
    """A group block's id rows of one task, without the group column."""
    return sorted(row[1:] for row in block.id_rows() if row[0] == task)


@pytest.mark.parametrize("offset", ID_OFFSETS)
def test_group_keyed_kernels_equal_per_task_kernels(offset):
    """Keyed on a leading group column, one star join and one projection
    over several tasks' rows give each task exactly its own join and
    projection — ids near 2^62 included, where the packed key codes
    fall back to dense ranks."""
    from repro.columnar.engine import GROUP

    rng = random.Random(26 + offset % 89)
    for _trial in range(80):
        tasks = rng.randint(1, 4)
        on = tuple(f"?k{i}" for i in range(rng.randint(1, 2)))
        schemas = [on + (f"?x{i}",) for i in range(rng.randint(2, 3))]
        per_task = [
            [random_id_relation(rng, attrs, offset, rng.choice(SIZES)) for attrs in schemas]
            for _ in range(tasks)
        ]
        grouped = [
            ColumnBlock.from_id_rows(
                (GROUP,) + attrs,
                [(t,) + row for t in range(tasks) for row in per_task[t][i].rows],
            )
            for i, attrs in enumerate(schemas)
        ]
        joined = star_join_blocks(grouped, on=(GROUP,) + on)
        keep = tuple(rng.sample(joined.attrs[1:], 2))
        projected = project_block(joined, (GROUP,) + keep)
        for t in range(tasks):
            want = star_join(per_task[t], on=on)
            assert group_rows(joined, t) == sorted(want.rows)
            assert group_rows(projected, t) == sorted(want.project(keep).rows)


def test_kernel_passes_per_query_do_not_scale_with_nodes(lubm_graph, monkeypatch):
    """A warm pass of the 14 LUBM queries makes as many star-join steps
    and group passes at 3 nodes as at 7: a chain's per-node map tasks,
    and a reduce's partitions, are one kernel pass."""
    from collections import Counter

    from repro.columnar import engine, kernels
    from repro.core.algorithm import cliquesquare
    from repro.core.decomposition import MSC
    from repro.partitioning.triple_partitioner import partition_graph
    from repro.physical.executor import PlanExecutor
    from repro.workloads import lubm_queries

    calls: Counter = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for module, name in (
        (kernels, "_natural_join"),
        (engine, "run_chain_map"),
        (engine, "run_star_reduce"),
        (engine, "run_map_only"),
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    plans = [cliquesquare(q, MSC).plans[0] for q in lubm_queries.all_queries()]
    per_nodes = {}
    for num_nodes in (3, 7):
        executor = PlanExecutor(partition_graph(lubm_graph, num_nodes), backend="columnar")
        prepared = [executor.prepare(plan) for plan in plans]
        for plan in prepared:  # warm: scans encoded
            executor.execute_prepared(plan)
        calls.clear()
        for plan in prepared:
            executor.execute_prepared(plan)
        per_nodes[num_nodes] = dict(calls)
        executor.close()
    assert per_nodes[3] == per_nodes[7]
    assert len(per_nodes[7]) == 4  # every kernel ran


def test_warm_joins_probe_key_sorted_inputs(lubm_graph, monkeypatch):
    """After a warm pass of the 14 LUBM queries every scan-cache entry
    holds each node's triples sorted by its placement key, and no join
    whose shared key is one variable besides the task column sorts its
    right side (calls ``stable_order``): scans and shuffle partitions
    arrive key-sorted."""
    from repro.columnar import kernels
    from repro.columnar.engine import GROUP
    from repro.core.algorithm import cliquesquare
    from repro.core.decomposition import MSC
    from repro.partitioning.layout import PLACEMENTS
    from repro.partitioning.triple_partitioner import partition_graph
    from repro.physical.executor import PlanExecutor
    from repro.workloads import lubm_queries

    executor = PlanExecutor(partition_graph(lubm_graph, 7), backend="columnar")
    prepared = [
        executor.prepare(cliquesquare(q, MSC).plans[0])
        for q in lubm_queries.all_queries()
    ]
    for plan in prepared:  # warm: scans encoded
        executor.execute_prepared(plan)

    sorts = []
    real_order, real_join = kernels.stable_order, kernels._natural_join

    def counted_order(keys):
        sorts.append(len(keys))
        return real_order(keys)

    joins = []  # (shared attrs, right rows, sorts the join made)

    def spied_join(left, right):
        before = len(sorts)
        out = real_join(left, right)
        shared = tuple(a for a in left.attrs if a in right.attrs)
        joins.append((shared, len(right), len(sorts) - before))
        return out

    monkeypatch.setattr(kernels, "stable_order", counted_order)
    monkeypatch.setattr(kernels, "_natural_join", spied_join)
    try:
        for plan in prepared:
            executor.execute_prepared(plan)
        cache = executor.backend.state._scan_cache
    finally:
        executor.close()

    assert cache
    for (_token, _nodes, placement, _prop, _type), (columns, lengths) in cache.items():
        key_column = columns[PLACEMENTS.index(placement)]
        for part in np.split(key_column, np.cumsum(lengths)[:-1]):
            assert (np.diff(part) >= 0).all()
    one_variable = [j for j in joins if len(j[0]) == 2 and j[0][0] == GROUP]
    assert len(one_variable) > 20 and sum(rows for _s, rows, _n in one_variable) > 1000
    assert [j for j in one_variable if j[2]] == []


def test_two_backends_on_different_graphs_answer_right(lubm_graph):
    """Two columnar backends serving interleaved queries over different
    graphs each answer their own graph: the scan cache belongs to one
    id space."""
    from repro.core.algorithm import cliquesquare
    from repro.core.decomposition import MSC
    from repro.partitioning.triple_partitioner import partition_graph
    from repro.physical.executor import PlanExecutor
    from repro.rdf.graph import RDFGraph
    from repro.workloads import lubm_queries

    graphs = [lubm_graph, RDFGraph(sorted(lubm_graph)[::2])]
    columnar = [PlanExecutor(partition_graph(g, 7), backend="columnar") for g in graphs]
    serial = [PlanExecutor(partition_graph(g, 7)) for g in graphs]
    differ = 0
    for query in lubm_queries.all_queries():
        plan = cliquesquare(query, MSC).plans[0]
        answers = []
        for executor, reference in zip(columnar, serial):
            got = executor.execute_prepared(executor.prepare(plan))
            want = reference.execute_prepared(reference.prepare(plan))
            assert got.rows == want.rows, query.name
            assert got.report.jobs == want.report.jobs
            answers.append(got.rows)
        differ += answers[0] != answers[1]
    assert differ  # the two graphs tell the backends apart
    for executor in columnar + serial:
        executor.close()


@pytest.mark.parametrize(
    "column",
    [
        [],
        [7] * 9,
        [255, 0, 255, 3, 0],
        [256, 0, 256, 255],
        [65_535, 9, 65_535, 0],
        [65_536, 1, 65_536, 1],
    ],
)
def test_stable_order_at_the_narrowing_bounds(column):
    """Empty and all-equal columns, and maxima each side of the 8- and
    16-bit bounds: the same order as an int64 stable argsort."""
    import numpy as np

    keys = np.array(column, dtype=np.int64)
    assert stable_order(keys).tolist() == keys.argsort(kind="stable").tolist()


# -- property-based (hypothesis, optional) ------------------------------------

if HAVE_HYPOTHESIS:
    term_st = st.text(min_size=0, max_size=12)
    row3_st = st.tuples(term_st, term_st, term_st)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(row3_st, max_size=30))
    def test_prop_block_roundtrip(rows):
        d = Dictionary()
        block = ColumnBlock.from_rows(("?s", "?p", "?o"), rows, d)
        assert block.to_rows(d) == rows

    @settings(max_examples=60, deadline=None)
    @given(st.lists(row3_st, max_size=30))
    def test_prop_pack_roundtrip(rows):
        sender, receiver = Dictionary(), Dictionary()
        packed = pack_rows(rows, sender.encode)
        receiver.merge_entries(0, sender.entries_from(0))
        assert unpack_rows(packed, receiver.decode) == rows

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(term_st, term_st), max_size=15),
        st.lists(st.tuples(term_st, term_st), max_size=15),
    )
    def test_prop_two_way_join_equivalence(left_rows, right_rows):
        left = Relation(("?k", "?a"), left_rows)
        right = Relation(("?k", "?b"), right_rows)
        assert_join_equivalent([left, right], on=("?k",))

    #: key columns whose maximum sits on either side of the 8- and
    #: 16-bit bounds the stable order narrows to
    bound_st = st.sampled_from([0, 1, 254, 255, 256, 257, 65_534, 65_535, 65_536, 65_537])

    @settings(max_examples=120, deadline=None)
    @given(
        bound_st,
        st.lists(st.integers(min_value=0, max_value=65_537), max_size=300),
        st.integers(min_value=0, max_value=5),
        st.randoms(use_true_random=False),
    )
    def test_prop_stable_order_is_the_stable_argsort(top, values, ties, rnd):
        """Empty columns, all-equal ones (``values`` empty, ``ties``
        copies of the maximum) and columns whose maximum is each side
        of 255 / 256 and 65 535 / 65 536: the narrowed order equals
        int64 ``argsort(kind="stable")``, ties in input order."""
        import numpy as np

        column = [min(v, top) for v in values] + [top] * ties
        rnd.shuffle(column)
        keys = np.array(column, dtype=np.int64)
        want = keys.argsort(kind="stable")
        assert stable_order(keys).tolist() == want.tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(term_st, min_size=1, max_size=8))
    def test_prop_hash_memo_matches_stable_hash(terms):
        # one row keyed on every column; 2^31 reducers leave the hash whole
        d = Dictionary()
        attrs = tuple(f"?k{i}" for i in range(len(terms)))
        block = ColumnBlock.from_rows(attrs, [tuple(terms)], d)
        got = shuffle_partitions(block, attrs, 1 << 31, HashMemo(d))
        assert got == [stable_hash(terms)]

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(term_st, term_st, term_st), max_size=200),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=9),
        st.booleans(),
    )
    def test_prop_partition_split_matches_chain_map(rows, key_width, reducers, one_key):
        attrs = ("?a", "?b", "?c")
        if one_key and rows:  # every row on one partition
            rows = [rows[0][:key_width] + row[key_width:] for row in rows]
        assert_split_matches_chain_map(attrs, rows, attrs[:key_width], reducers)

    SMALL_TERMS = ["a", "b", "c", "", '"é"']
    small_term_st = st.sampled_from(SMALL_TERMS)
    pair_rows_st = st.lists(st.tuples(small_term_st, small_term_st), max_size=6)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.tuples(small_term_st, small_term_st, small_term_st), max_size=10),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=5),
        st.lists(st.tuples(pair_rows_st, pair_rows_st), max_size=5),
        st.randoms(use_true_random=False),
    )
    def test_prop_task_groups_equal_single_tasks(node_rows, nodes, reducers, reduces, rnd):
        """Random batches of chain-map, map-only (projecting onto some,
        no or all attributes) and star-reduce tasks, nodes repeated or
        empty, reduce tags empty or not, shuffled: each task's result
        equals its own tuple run."""
        from repro.mapreduce.backends import TaskInvocation
        from repro.physical.executor import ChainMapSpec, MapOnlySpec, StarReduceSpec

        attrs = ("?a", "?b", "?c")
        ctx, chain = shuffler_ctx(attrs, node_rows, SMALL_TERMS)
        nodes = [node % len(node_rows) for node in nodes]
        specs = [
            ChainMapSpec(
                chain=chain, node=node, tag=1, key_attrs=("?b", "?a"), num_reducers=reducers
            )
            for node in nodes
        ] + [
            MapOnlySpec(chain=chain, node=node, project=project)
            for node in nodes
            for project in (("?c", "?a"), (), None)
        ]
        invocations = [TaskInvocation(spec, (), spec.node, "map", 0) for spec in specs]
        reduce_spec = StarReduceSpec(
            on=("?k",), child_attrs=(("?k", "?x"), ("?x", "?k")), project=("?k",)
        )
        invocations += [
            TaskInvocation(reduce_spec, (p, {0: [left], 1: [right]}), p, "reduce", 0)
            for p, (left, right) in enumerate(reduces)
        ]
        rnd.shuffle(invocations)
        assert_groups_match_single(invocations, ctx, make_backend("columnar"))

