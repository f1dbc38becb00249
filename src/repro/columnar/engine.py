"""Columnar evaluation of the physical task specs.

Mirrors :mod:`repro.physical.executor`'s ``eval_chain`` and the three
spec ``run`` methods line for line, but every intermediate relation is
a :class:`ColumnBlock` and every comparison happens on term ids.
Nothing decodes at the spec boundary: a task's shuffle emits, direct
output and reduce output are blocks carrying the state's dictionary —
chunks, to the engine — and the next task over the same dictionary
(a map shuffler, a reducer, on this shard or another in-process one)
concatenates their id columns.  Terms reappear once, when
``PlanExecutor.execute_prepared`` reads the answer.  A shard worker's
inputs are such blocks too: its end of the rpc codec unpacks frames
straight into this dictionary.  A chunk that is not a block over this
dictionary (a tuple backend's output, rows the wire could not pack, a
foreign dictionary's block) is iterated as rows and encoded — the
correct, slower path.

Counter parity is structural: every counter the tuple kernels charge is
a (multi)set cardinality — scanned triples, selected rows, join input
and output sizes, distinct projection keys — all of which are preserved
by dictionary encoding, so charging them from block lengths yields
field-wise identical :class:`TaskMetrics`.
"""

from __future__ import annotations

import threading
from functools import lru_cache

from repro.analysis.locks import checked
from repro.columnar.block import ColumnBlock, empty_column, gather, make_column
from repro.columnar.kernels import (
    HashMemo,
    project_block,
    select_bind,
    split_partitions,
    star_join_blocks,
)
from repro.mapreduce.hdfs import chunks_of
from repro.mapreduce.counters import TaskMetrics
from repro.mapreduce.jobs import TaskContext
from repro.physical.executor import ChainMapSpec, MapOnlySpec, StarReduceSpec
from repro.physical.operators import (
    Filter,
    MapJoin,
    MapScan,
    MapShuffler,
    PhysicalOperator,
    PhysProject,
)
from repro.rdf.dictionary import Dictionary
from repro.rdf.terms import is_variable

#: Cached scan encodings per backend (all snapshots it serves together).
MAX_CACHED_SCANS = 512


class ColumnarState:
    """The id space of one columnar backend.

    One dictionary (grown lazily as scans and seam conversions encode
    terms), the memoized ``stable_hash`` pieces keyed by id, and a
    bounded cache of encoded scan columns.  The dictionary and the memo
    live as long as the backend: every snapshot it serves — the shards
    of one in-process executor, the store before and after a mutation —
    encodes against the same ids, so their blocks concatenate.  Only
    the scan cache depends on a snapshot, and its keys say which.  The
    lock guards dictionary growth and cache population — concurrent
    queries on one service share this state.  Reads (``decode``, memo
    hits) are lock-free: ids are append-only, so anything already
    assigned never moves.
    """

    def __init__(self) -> None:
        self.lock = checked(threading.Lock(), "ColumnarState.lock")
        self.dictionary = Dictionary()
        self.memo = HashMemo(self.dictionary)
        self._scan_cache: dict[tuple, tuple] = {}  # guarded-by: lock

    def encode_rows(self, attrs, rows) -> ColumnBlock:
        """The ``to_blocks`` seam: encode term-tuple rows (thread-safe)."""
        with self.lock:
            return ColumnBlock.from_rows(attrs, rows, self.dictionary)

    def cached_scan(self, key: tuple) -> tuple | None:
        """The cached columns of a scan (touched: now youngest), if any."""
        with self.lock:
            cache = self._scan_cache
            columns = cache.pop(key, None)
            if columns is not None:
                cache[key] = columns
        return columns

    def scan_columns(self, key: tuple, triples) -> tuple:
        """The (s, p, o) id columns of one scan, encoded once and cached
        (least recently used evicted first)."""
        with self.lock:
            cache = self._scan_cache
            columns = cache.pop(key, None)
            if columns is None:
                encode = self.dictionary.encode_many
                columns = tuple(
                    make_column(encode(terms)) for terms in zip(*triples)
                ) or tuple(empty_column() for _ in range(3))
                if len(cache) >= MAX_CACHED_SCANS:
                    del cache[next(iter(cache))]
            cache[key] = columns  # (re)inserted at the young end
        return columns


# -- chain evaluation ---------------------------------------------------------


@lru_cache(maxsize=4096)
def _scan_shape(op: MapScan) -> tuple:
    """What a scan's pattern asks for, independent of any dictionary:
    ``(attrs, prop, type_object, constants, var_positions)`` with
    *constants* the ``(position, term)`` pairs a triple must match and
    *var_positions*, per output variable in schema order, the positions
    holding it (several: the columns must agree)."""
    constants = []
    positions: dict[str, list[int]] = {}
    for pos, term in enumerate((op.pattern.s, op.pattern.p, op.pattern.o)):
        if is_variable(term):
            positions.setdefault(term, []).append(pos)
        else:
            constants.append((pos, term))
    attrs = op.attrs
    return (
        attrs,
        op.prop,
        op.type_object,
        tuple(constants),
        tuple(tuple(positions[v]) for v in attrs),
    )


def eval_chain_block(
    op: PhysicalOperator,
    node: int,
    ctx: TaskContext,
    metrics: TaskMetrics,
    state: ColumnarState,
) -> ColumnBlock:
    """Columnar twin of ``executor.eval_chain`` (same operators, same
    counter charges, blocks instead of relations)."""
    if isinstance(op, MapScan):
        attrs, prop, type_object, constants, var_positions = _scan_shape(op)
        store = ctx.store
        key = (store.token, node, op.placement, prop, type_object)
        columns = state.cached_scan(key)
        if columns is None:
            columns = state.scan_columns(
                key, store.scan(node, op.placement, prop, type_object)
            )
        metrics.tuples_read += len(columns[0])
        # The pattern's constraints in id space: constants pin a column
        # to one id (or to nothing, when the dictionary has never seen
        # the constant — every term of this scan was encoded, so
        # "unseen" means "matches no triple here"); repeated variables
        # require their columns to agree.
        lookup = state.dictionary.lookup
        const_checks = [(pos, lookup(term)) for pos, term in constants]
        if not attrs:
            # A variable-free pattern binds nothing: one empty row per
            # matching triple, counted on the subject column.
            (matched,) = select_bind(columns, const_checks, ((0,),))
            return ColumnBlock((), (), state.dictionary, len(matched))
        selected = select_bind(columns, const_checks, var_positions)
        return ColumnBlock(attrs, selected, state.dictionary)
    if isinstance(op, Filter):
        before = metrics.tuples_read
        child = eval_chain_block(op.child, node, ctx, metrics, state)
        metrics.checks += metrics.tuples_read - before
        return child
    if isinstance(op, MapJoin):
        inputs = [
            eval_chain_block(c, node, ctx, metrics, state) for c in op.inputs
        ]
        output = star_join_blocks(inputs, on=op.on)
        metrics.join_tuples += sum(len(b) for b in inputs) + len(output)
        metrics.tuples_written += len(output)
        return output
    if isinstance(op, MapShuffler):
        relation = ctx.hdfs.read(op.source)
        block = gather(
            relation.attrs,
            chunks_of(relation.partitions[node]),
            state.dictionary,
            state.encode_rows,
        )
        metrics.tuples_read += len(block)
        metrics.tuples_written += len(block)
        return block
    if isinstance(op, PhysProject):
        child = eval_chain_block(op.child, node, ctx, metrics, state)
        metrics.checks += len(child)
        return project_block(child, op.on)
    raise TypeError(f"not a map-side operator: {type(op)!r}")


# -- spec evaluation ----------------------------------------------------------


def run_chain_map(spec: ChainMapSpec, ctx: TaskContext, state: ColumnarState):
    metrics = TaskMetrics()
    block = eval_chain_block(spec.chain, spec.node, ctx, metrics, state)
    if not isinstance(spec.chain, (MapJoin, MapShuffler)):
        metrics.tuples_written += len(block)
    tag = spec.tag
    shuffle = [
        (partition, tag, part)
        for partition, part in split_partitions(
            block, spec.key_attrs, spec.num_reducers, state.memo
        )
    ]
    return shuffle, (), metrics


def run_map_only(spec: MapOnlySpec, ctx: TaskContext, state: ColumnarState):
    metrics = TaskMetrics()
    block = eval_chain_block(spec.chain, spec.node, ctx, metrics, state)
    if spec.project is not None:
        metrics.checks += len(block)
        block = project_block(block, spec.project)
    metrics.tuples_written += len(block)
    return [], block, metrics


def run_star_reduce(
    spec: StarReduceSpec,
    ctx: TaskContext,
    partition: int,
    grouped: dict,
    state: ColumnarState,
):
    metrics = TaskMetrics()
    inputs = []
    for tag, attrs in enumerate(spec.child_attrs):
        block = gather(
            attrs, grouped.get(tag, ()), state.dictionary, state.encode_rows
        )
        metrics.tuples_shuffled += len(block)
        metrics.tuples_read += len(block)
        inputs.append(block)
    output: ColumnBlock | tuple = ()
    if all(len(b) for b in inputs):
        output = star_join_blocks(inputs, on=spec.on)
        metrics.join_tuples += sum(len(b) for b in inputs) + len(output)
        if spec.project is not None:
            metrics.checks += len(output)
            output = project_block(output, spec.project)
    metrics.tuples_written += len(output)
    return output, metrics


def run_invocation(spec, args: tuple, ctx: TaskContext, state: ColumnarState):
    """Evaluate one task invocation, columnar where the spec is one of
    the three plan specs, falling back to the spec's own tuple ``run``
    for anything else (closure-style jobs, test doubles)."""
    if isinstance(spec, ChainMapSpec):
        return run_chain_map(spec, ctx, state)
    if isinstance(spec, MapOnlySpec):
        return run_map_only(spec, ctx, state)
    if isinstance(spec, StarReduceSpec):
        partition, grouped = args
        return run_star_reduce(spec, ctx, partition, grouped, state)
    return spec.run(ctx, *args)
