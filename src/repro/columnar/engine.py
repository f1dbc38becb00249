"""Columnar evaluation of the physical task specs, one task group per
kernel pass.

Mirrors :mod:`repro.physical.executor`'s ``eval_chain`` and the three
spec ``run`` methods over a *task group*: the invocations of a batch
whose specs are equal but for ``node`` (a chain's per-node map tasks),
or that share one reduce spec (:func:`task_groups`).  A group is
evaluated over a leading reserved attribute, :data:`GROUP` — the int64
index of the row's invocation within the group — that is a key
everywhere: a scan concatenates the group's nodes, star joins and
projections key on it.  Rows of different invocations never meet, so
grouping is correct for any batch; a lone task is a group of one.  A
group block stays sorted by task (scans and gathers concatenate in task
order, the kernels keep their left input's row order), so per-task
results are slices.

The shuffle is the one place a group answers as a group: a chain-map
group cuts its block by reduce partition only — one block per
partition, its rows in task order — and those ``(partition, tag,
block)`` emits ride on the group's first task, every other task
returning ``[]``.  Each task keeps its own metrics and its own direct
output.  A reducer sees the same rows either way; what the exchange
moves is one block per (task group, partition) instead of one per
(task, partition).  Because the emits go to the first task's job, a
group never spans two jobs: the k-th occurrence of an equal chain-map
spec joins the k-th group of its key (the engine submits a job's tasks
together, one per node and tag).

Intermediate relations are blocks (:class:`ColumnBlock`) compared on
term ids, and the ids are the store's: a task computes in the
dictionary of the snapshot it is given (``ctx.store.dictionary`` — the
store's own in-process, its replica on a shard worker), which numbered
every term when the triple bringing it was loaded.  Nothing decodes at
the spec boundary: task outputs are blocks over that dictionary —
chunks, to the engine — that the next task (on this shard, another
in-process one, or across the rpc wire, which ships the ids as they
are) concatenates.  Terms reappear once, when the service builds the
outcome; any other chunk is iterated as rows and looked up (correct,
slower).  Nothing here ever
assigns an id: a term the store never numbered raises ``KeyError``.

Counter parity is structural: every counter the tuple kernels charge is
a (multi)set cardinality that dictionary encoding preserves.  A group
charges each invocation at exactly the points ``eval_chain`` charges a
task, by ``np.bincount`` of the group column (or the per-node lengths a
scan or gather already has), so every invocation's
:class:`TaskMetrics` equals its own tuple run's field for field.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Sequence

import numpy as np

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

#: The reserved group attribute: a row's invocation index within its
#: task group.  No SPARQL variable starts with ``#``.
GROUP = "#task"

#: Encoded scans cached per backend (all snapshots it serves together),
#: counted in node-scans: a group's scan of k nodes costs k.
MAX_CACHED_SCANS = 512

# Rows of a group's counter table, in ``TaskMetrics`` field order.
_READ, _WRITTEN, _SHUFFLED, _CHECKS, _JOIN = range(5)


class ColumnarState:
    """What one columnar backend keeps between batches.

    The memoized ``stable_hash`` pieces keyed by id (for the dictionary
    it last computed in — one store's numbering for an in-process
    backend's whole life, a worker's replica until the next ``Prime``)
    and a bounded cache of encoded scan columns, keyed by snapshot
    token, so every snapshot it serves — the shards of one in-process
    executor, the store before and after a mutation — reuses the
    encodings of the versions it has seen.  The ids themselves belong
    to the store (see the module docs).  The lock guards the scan
    cache; concurrent queries on one service share this state.
    """

    def __init__(self) -> None:
        self.lock = checked(threading.Lock(), "ColumnarState.lock")
        self._memo: HashMemo | None = None
        self._scan_cache: dict[tuple, tuple] = {}  # guarded-by: lock
        self._cached_node_scans = 0  # guarded-by: lock

    def memo(self, dictionary: Dictionary) -> HashMemo:
        """The hash memo over *dictionary*'s ids (a new dictionary —
        another store, a re-primed replica — starts a new one)."""
        memo = self._memo
        if memo is None or memo.dictionary is not dictionary:
            memo = self._memo = HashMemo(dictionary)
        return memo

    def encode_rows(self, attrs, rows, dictionary: Dictionary) -> ColumnBlock:
        """The ``to_blocks`` seam: term-tuple rows as a block over
        *dictionary*, looked up, never numbered (``KeyError`` for a
        term the store does not hold)."""
        return ColumnBlock.from_rows(attrs, rows, dictionary, mint=False)

    def cached_scan(self, key: tuple) -> tuple | None:
        """The cached ``(columns, lengths)`` of a group scan (touched:
        now youngest), if any."""
        with self.lock:
            cache = self._scan_cache
            entry = cache.pop(key, None)
            if entry is not None:
                cache[key] = entry
        return entry

    def scan_columns(
        self, key: tuple, scans: Sequence[Sequence], dictionary: Dictionary
    ) -> tuple:
        """``(columns, lengths)`` of one group scan: the (s, p, o) id
        columns of *scans* — one triple list per node — end to end, and
        each node's triple count.  Encoded once and cached; the least
        recently used entries are evicted until the node-scans held fit
        :data:`MAX_CACHED_SCANS`."""
        with self.lock:
            cache = self._scan_cache
            entry = cache.pop(key, None)
            if entry is None:
                ids_of = dictionary.ids_of
                triples = [triple for node_triples in scans for triple in node_triples]
                columns = tuple(
                    make_column(ids_of(terms)) for terms in zip(*triples)
                ) or tuple(empty_column() for _ in range(3))
                entry = (columns, make_column(map(len, scans)))
                self._cached_node_scans += len(scans)
                while cache and self._cached_node_scans > MAX_CACHED_SCANS:
                    _columns, lengths = cache.pop(next(iter(cache)))
                    self._cached_node_scans -= len(lengths)
            cache[key] = entry  # (re)inserted at the young end
        return entry


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


def _per_task(block: ColumnBlock, tasks: int):
    """Rows per task of a group block (its group column leads)."""
    return np.bincount(block.columns[0], minlength=tasks)


def eval_chain_block(
    op: PhysicalOperator,
    nodes: tuple[int, ...],
    ctx: TaskContext,
    counts,
    state: ColumnarState,
) -> ColumnBlock:
    """Columnar twin of ``executor.eval_chain`` over a task group: task
    ``i`` reads node ``nodes[i]`` and is charged in ``counts[:, i]``
    (same operators, same counter charges; one block led by the
    :data:`GROUP` column instead of a relation per task)."""
    tasks = len(nodes)
    dictionary = ctx.store.dictionary
    if isinstance(op, MapScan):
        attrs, prop, type_object, constants, var_positions = _scan_shape(op)
        store = ctx.store
        key = (store.token, nodes, op.placement, prop, type_object)
        entry = state.cached_scan(key)
        if entry is None:
            entry = state.scan_columns(
                key,
                [store.scan(node, op.placement, prop, type_object) for node in nodes],
                dictionary,
            )
        columns, lengths = entry
        counts[_READ] += lengths
        group = np.repeat(np.arange(tasks), lengths)
        # The pattern's constraints in id space: constants pin a column
        # to one id (or to nothing, when the store has never numbered
        # the constant — it then matches no triple); repeated variables
        # require their columns to agree.  The group column rides along
        # as position 3 (a variable-free pattern binds it alone).
        lookup = dictionary.lookup
        const_checks = [(pos, lookup(term)) for pos, term in constants]
        selected = select_bind(
            columns + (group,), const_checks, ((3,),) + var_positions
        )
        return ColumnBlock((GROUP,) + attrs, selected, dictionary)
    if isinstance(op, Filter):
        before = counts[_READ].copy()
        child = eval_chain_block(op.child, nodes, ctx, counts, state)
        counts[_CHECKS] += counts[_READ] - before
        return child
    if isinstance(op, MapJoin):
        inputs = [eval_chain_block(c, nodes, ctx, counts, state) for c in op.inputs]
        output = star_join_blocks(inputs, on=(GROUP,) + op.on)
        written = _per_task(output, tasks)
        counts[_JOIN] += sum(_per_task(b, tasks) for b in inputs) + written
        counts[_WRITTEN] += written
        return output
    if isinstance(op, MapShuffler):
        relation = ctx.hdfs.read(op.source)
        partitions = [relation.partitions[node] for node in nodes]
        block = gather(
            relation.attrs,
            [chunk for part in partitions for chunk in chunks_of(part)],
            dictionary,
            state.encode_rows,
        )
        lengths = make_column(map(len, partitions))
        counts[_READ] += lengths
        counts[_WRITTEN] += lengths
        return ColumnBlock(
            (GROUP,) + block.attrs,
            (np.repeat(np.arange(tasks), lengths),) + block.columns,
            dictionary,
        )
    if isinstance(op, PhysProject):
        child = eval_chain_block(op.child, nodes, ctx, counts, state)
        counts[_CHECKS] += _per_task(child, tasks)
        return project_block(child, (GROUP,) + op.on)
    raise TypeError(f"not a map-side operator: {type(op)!r}")


# -- group evaluation ---------------------------------------------------------


def task_group(spec) -> object:
    """The key of the task group an invocation of *spec* joins: plan
    map specs equal but for ``node``, or one reduce spec (its
    invocations differ in ``(partition, grouped)`` only); any other
    spec runs alone."""
    if isinstance(spec, ChainMapSpec):
        return (ChainMapSpec, spec.chain, spec.tag, spec.key_attrs, spec.num_reducers)
    if isinstance(spec, MapOnlySpec):
        return (MapOnlySpec, spec.chain, spec.project)
    if isinstance(spec, StarReduceSpec):
        return spec
    return object()


def task_groups(specs: Sequence) -> list[list[int]]:
    """The positions of *specs* per task group, in first-member order.

    A chain-map group's emits ride on its first task, so two jobs that
    read an equal chain, tag and key must not pool their rows: the k-th
    occurrence of an equal :class:`ChainMapSpec` (equal key, equal
    ``node``) joins the k-th group of its :func:`task_group` key — a
    batch naming one node twice splits the same way."""
    order: list[list[int]] = []
    by_key: dict[object, tuple[dict[int, int], list[list[int]]]] = {}
    for position, spec in enumerate(specs):
        key = task_group(spec)
        entry = by_key.get(key)
        if entry is None:
            entry = by_key[key] = ({}, [])
        occurrences, groups = entry
        k = 0
        if isinstance(spec, ChainMapSpec):
            k = occurrences.get(spec.node, 0)
            occurrences[spec.node] = k + 1
        if k == len(groups):
            groups.append([])
            order.append(groups[k])
        groups[k].append(position)
    return order


def _metrics(counts) -> list[TaskMetrics]:
    return [TaskMetrics(*column) for column in counts.T.tolist()]


def _by_task(block: ColumnBlock, sizes) -> list[ColumnBlock]:
    """A group block without its group column, cut into *sizes* rows per task."""
    columns = block.columns[1:]
    rest = ColumnBlock(
        block.attrs[1:], columns, block.dictionary, 0 if columns else len(block)
    )
    out, start = [], 0
    for end in np.cumsum(sizes).tolist():
        out.append(rest[start:end])
        start = end
    return out


def _eval_group(specs: Sequence, ctx: TaskContext, state: ColumnarState):
    """A map group's chain block and its (fresh) counter table."""
    counts = np.zeros((5, len(specs)), dtype=np.int64)
    nodes = tuple(spec.node for spec in specs)
    return eval_chain_block(specs[0].chain, nodes, ctx, counts, state), counts


def run_chain_map(
    specs: Sequence[ChainMapSpec], ctx: TaskContext, state: ColumnarState
) -> list:
    """One chain-map group: per task, ``(shuffle, (), metrics)``, the
    group's one block per reduce partition on the first task (see the
    module docs) and ``[]`` on the others."""
    spec, tasks = specs[0], len(specs)
    block, counts = _eval_group(specs, ctx, state)
    if not isinstance(spec.chain, (MapJoin, MapShuffler)):
        counts[_WRITTEN] += _per_task(block, tasks)
    rows = ColumnBlock(block.attrs[1:], block.columns[1:], block.dictionary)
    tag = spec.tag
    emits = [
        (partition, tag, part)
        for partition, part in split_partitions(
            rows, spec.key_attrs, spec.num_reducers, state.memo(block.dictionary)
        )
    ]
    return [
        (emits if task == 0 else [], (), metrics)
        for task, metrics in enumerate(_metrics(counts))
    ]


def run_map_only(
    specs: Sequence[MapOnlySpec], ctx: TaskContext, state: ColumnarState
) -> list:
    """One map-only group: per task, ``([], output, metrics)``."""
    spec, tasks = specs[0], len(specs)
    block, counts = _eval_group(specs, ctx, state)
    if spec.project is not None:
        counts[_CHECKS] += _per_task(block, tasks)
        block = project_block(block, (GROUP,) + spec.project)
    sizes = _per_task(block, tasks)
    counts[_WRITTEN] += sizes
    return [
        ([], output, metrics)
        for output, metrics in zip(_by_task(block, sizes), _metrics(counts))
    ]


def run_star_reduce(
    spec: StarReduceSpec,
    calls: Sequence[tuple],
    ctx: TaskContext,
    state: ColumnarState,
) -> list:
    """One star-reduce group, *calls* its tasks' ``(partition,
    grouped)``: per task, ``(output, metrics)``.  A task joins only when
    every one of its tags has rows (the ``live`` mask)."""
    tasks = len(calls)
    dictionary = ctx.store.dictionary
    counts = np.zeros((5, tasks), dtype=np.int64)
    task_ids = np.arange(tasks)
    live = np.ones(tasks, dtype=bool)
    inputs = []
    for tag, attrs in enumerate(spec.child_attrs):
        per_task = [grouped.get(tag, ()) for _partition, grouped in calls]
        block = gather(
            attrs,
            [chunk for chunks in per_task for chunk in chunks],
            dictionary,
            state.encode_rows,
        )
        sizes = make_column(sum(map(len, chunks)) for chunks in per_task)
        counts[_SHUFFLED] += sizes
        counts[_READ] += sizes
        live &= sizes > 0
        inputs.append(
            ColumnBlock(
                (GROUP,) + block.attrs,
                (np.repeat(task_ids, sizes),) + block.columns,
                dictionary,
            )
        )
    if not live.any():
        return [((), metrics) for metrics in _metrics(counts)]
    if not live.all():
        keep = [live[b.columns[0]] for b in inputs]
        inputs = [
            ColumnBlock(b.attrs, tuple(col[rows] for col in b.columns), b.dictionary)
            for b, rows in zip(inputs, keep)
        ]
    output = star_join_blocks(inputs, on=(GROUP,) + spec.on)
    sizes = _per_task(output, tasks)
    # A live task's join input is every row it read.
    counts[_JOIN] += counts[_READ] * live + sizes
    if spec.project is not None:
        counts[_CHECKS] += sizes
        output = project_block(output, (GROUP,) + spec.project)
        sizes = _per_task(output, tasks)
    counts[_WRITTEN] += sizes
    return [
        (block if joined else (), metrics)
        for block, joined, metrics in zip(
            _by_task(output, sizes), live.tolist(), _metrics(counts)
        )
    ]


def run_invocations(
    invocations: Sequence, ctx: TaskContext, state: ColumnarState
) -> list:
    """Evaluate one task group (invocations sharing a :func:`task_group`
    key), results in invocation order: columnar where the spec is one of
    the three plan specs, each invocation's own tuple ``run`` for
    anything else (closure-style jobs, test doubles)."""
    spec = invocations[0].spec
    if isinstance(spec, ChainMapSpec):
        return run_chain_map([inv.spec for inv in invocations], ctx, state)
    if isinstance(spec, MapOnlySpec):
        return run_map_only([inv.spec for inv in invocations], ctx, state)
    if isinstance(spec, StarReduceSpec):
        return run_star_reduce(spec, [inv.args for inv in invocations], ctx, state)
    return [inv.spec.run(ctx, *inv.args) for inv in invocations]
