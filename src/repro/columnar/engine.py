"""Columnar evaluation of the physical task specs.

Mirrors :mod:`repro.physical.executor`'s ``eval_chain`` and the three
spec ``run`` methods line for line, but every intermediate relation is
a :class:`ColumnBlock` and every comparison happens on term ids.  Rows
decode back to term tuples only at the spec boundary (shuffle emits,
direct outputs, reduce outputs), so the engine, the shuffle exchange
and report merging see exactly what the tuple kernels produce.

Counter parity is structural: every counter the tuple kernels charge is
a (multi)set cardinality — scanned triples, selected rows, join input
and output sizes, distinct projection keys — all of which are preserved
by dictionary encoding, so charging them from block lengths yields
field-wise identical :class:`TaskMetrics`.
"""

from __future__ import annotations

import threading
from itertools import repeat

from repro.columnar.block import ColumnBlock, empty_column, make_column
from repro.columnar.kernels import (
    HashMemo,
    project_block,
    select_bind,
    shuffle_partitions,
    star_join_blocks,
)
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

#: Cached scan encodings per store snapshot.
MAX_CACHED_SCANS = 512


class ColumnarState:
    """Per-store-snapshot state of the columnar backend.

    One dictionary (grown lazily as scans and seam conversions encode
    terms), the memoized ``stable_hash`` pieces keyed by id, and a
    bounded cache of encoded scan columns.  The lock guards dictionary
    growth and cache population — concurrent queries on one service
    share this state.  Reads (``decode``, memo hits) are lock-free:
    ids are append-only, so anything already assigned never moves.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.dictionary = Dictionary()
        self.memo = HashMemo(self.dictionary)
        self._scan_cache: dict[tuple, tuple] = {}

    def encode_rows(self, attrs, rows) -> ColumnBlock:
        """The ``to_blocks`` seam: encode term-tuple rows (thread-safe)."""
        with self.lock:
            return ColumnBlock.from_rows(attrs, rows, self.dictionary)

    def scan_columns(self, key: tuple, triples) -> tuple:
        """The (s, p, o) id columns of one scan, encoded once and cached
        (least recently used evicted first)."""
        cache = self._scan_cache
        with self.lock:
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
        triples = ctx.store.scan(node, op.placement, op.prop, op.type_object)
        metrics.tuples_read += len(triples)
        columns = state.scan_columns(
            (node, op.placement, op.prop, op.type_object), triples
        )
        # The pattern's constraints in id space: constants pin a column
        # to one id (or to nothing, when the dictionary has never seen
        # the constant — every term of this scan was just encoded, so
        # "unseen" means "matches no triple here"); repeated variables
        # require their columns to agree.
        const_checks: list[tuple[int, int | None]] = []
        var_positions: dict[str, list[int]] = {}
        for pos, term in enumerate((op.pattern.s, op.pattern.p, op.pattern.o)):
            if is_variable(term):
                var_positions.setdefault(term, []).append(pos)
            else:
                const_checks.append((pos, state.dictionary.lookup(term)))
        selected = select_bind(
            columns,
            const_checks,
            [tuple(var_positions[v]) for v in op.attrs],
        )
        return ColumnBlock(op.attrs, selected)
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
        rows = list(relation.partitions[node])
        metrics.tuples_read += len(rows)
        metrics.tuples_written += len(rows)
        return state.encode_rows(relation.attrs, rows)
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
    partitions = shuffle_partitions(
        block, spec.key_attrs, spec.num_reducers, state.memo
    )
    rows = block.to_rows(state.dictionary)
    return list(zip(partitions, repeat(spec.tag), rows)), [], metrics


def run_map_only(spec: MapOnlySpec, ctx: TaskContext, state: ColumnarState):
    metrics = TaskMetrics()
    block = eval_chain_block(spec.chain, spec.node, ctx, metrics, state)
    if spec.project is not None:
        metrics.checks += len(block)
        block = project_block(block, spec.project)
    metrics.tuples_written += len(block)
    return [], block.to_rows(state.dictionary), metrics


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
        rows = grouped.get(tag, [])
        metrics.tuples_shuffled += len(rows)
        metrics.tuples_read += len(rows)
        inputs.append(state.encode_rows(attrs, rows))
    if any(len(b) == 0 for b in inputs):
        out_rows: list[tuple] = []
    else:
        output = star_join_blocks(inputs, on=spec.on)
        metrics.join_tuples += sum(len(b) for b in inputs) + len(output)
        if spec.project is not None:
            metrics.checks += len(output)
            output = project_block(output, spec.project)
        out_rows = output.to_rows(state.dictionary)
    metrics.tuples_written += len(out_rows)
    return out_rows, metrics


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
