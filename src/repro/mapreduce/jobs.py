"""The simulated MapReduce job model: task specs and their context.

A job's tasks carry *declarative specs* — picklable dataclasses whose
``run`` method evaluates the task against a :class:`TaskContext` — so
any execution backend (serial, thread pool, process pool, a shard
worker) can ship a task to a worker and get back its output rows plus
:class:`TaskMetrics`.  Behaviour lives in the spec class, state in its
fields; nothing in a spec may close over live engine objects.  A job
DAG compiles to the level program the engine runs
(:mod:`repro.mapreduce.engine`); its levels are
:func:`topological_levels`.

The unit every task exchanges with the engine is the *chunk*: any sized
iterable of term-tuple rows (``len(chunk)`` rows, ``iter(chunk)`` yields
them).  The tuple specs return row lists; the columnar specs return
:class:`~repro.columnar.block.ColumnBlock` s, which a consumer sharing
their dictionary reads as id columns and anyone else simply iterates.
The engine only ever appends chunks and sums their lengths — it never
looks inside one.

A map task returns *shuffle output* — one ``(partition, tag, chunk)``
per reduce partition it has rows for — and one *direct output* chunk
(map-only jobs).  A reducer receives, for its partition, the chunks
grouped by tag, and returns one chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Collection, Sequence

from repro.mapreduce.counters import TaskMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.mapreduce.hdfs import HDFS
    from repro.partitioning.triple_partitioner import StoreSnapshot

Row = tuple

#: A sized iterable of term-tuple rows (see the module docstring).
Chunk = Collection[Row]

#: Shuffle emission: (reduce partition, input tag, that partition's rows).
ShuffleEmit = tuple[int, int, Chunk]

#: A map task returns shuffle emissions, a direct output chunk, and metrics.
MapResult = tuple[list[ShuffleEmit], Chunk, TaskMetrics]


def flatten(chunks) -> list[Row]:
    """The rows of a chunk sequence, as one list."""
    return list(chain.from_iterable(chunks))


@dataclass
class TaskContext:
    """Everything a worker needs to evaluate task specs.

    The context is the only channel through which a spec reaches shared
    state: the partitioned store (as a read-only snapshot) and the
    intermediate-result namespace.  A process backend rebuilds an
    equivalent context inside each worker (store shipped once per pool,
    HDFS inputs sliced per task), so specs must not assume the context
    object is shared with the driver.
    """

    num_nodes: int
    store: "StoreSnapshot | None" = None
    hdfs: "HDFS | None" = None
    #: per-execution state of a dispatching backend, attached by its
    #: :meth:`~repro.mapreduce.backends.ExecutionBackend.execution`
    dispatch: object | None = None


class TaskSpec:
    """Base class for declarative task specs.

    Concrete specs are module-level dataclasses with plain-data fields,
    so ``pickle`` round-trips them by reference to their class — the
    contract that lets a :class:`~repro.mapreduce.backends.ProcessBackend`
    ship work across process boundaries.
    """

    def hdfs_inputs(self) -> tuple[str, ...]:
        """Names of the HDFS files this task reads (shipped to workers)."""
        return ()

    def hdfs_slice(self, hdfs: "HDFS") -> dict:
        """The HDFS content to ship for a remote run of this task.

        Defaults to the whole file for every name in :meth:`hdfs_inputs`;
        specs that read only part of a file (e.g. one node's partitions)
        should override this to cut per-task IPC.
        """
        return {name: hdfs.read(name) for name in self.hdfs_inputs()}

    def run(self, ctx: TaskContext, *args):
        raise NotImplementedError


class MapTaskSpec(TaskSpec):
    """A map task spec: ``run(ctx)`` returns a :data:`MapResult`."""


class ReduceTaskSpec(TaskSpec):
    """A reduce task spec: ``run(ctx, partition, grouped)`` — *grouped*
    maps each input tag to the list of chunks shuffled to this
    partition — returns ``(chunk, metrics)``."""


def stable_hash(values: tuple) -> int:
    """Deterministic hash for shuffle partitioning.

    Python's builtin string hash is randomized per process, which would
    scatter a key to different reducers in different workers; this
    polynomial hash is pure arithmetic over the text, so every backend —
    and every worker process — routes a key identically.
    """
    h = 17
    for value in values:
        text = value if isinstance(value, str) else repr(value)
        for ch in text:
            h = (h * 131 + ord(ch)) & 0x7FFFFFFF
        h = (h * 257 + 11) & 0x7FFFFFFF
    return h


def topological_levels(
    jobs: Sequence[tuple[str, Sequence[str]]],
) -> list[list[int]]:
    """The positions of *jobs* — ``(name, names it depends on)`` pairs —
    per scheduling level, in input order within a level: a job sits one
    level after its last dependency; names are unique."""
    position_of = {name: position for position, (name, _deps) in enumerate(jobs)}
    if len(position_of) != len(jobs):
        raise ValueError("duplicate job name")
    level_of: dict[str, int] = {}

    def level(name: str, deps: Sequence[str], seen: frozenset[str]) -> int:
        if name in level_of:
            return level_of[name]
        if name in seen:
            raise ValueError(f"job dependency cycle through {name}")
        below = []
        for dep in deps:
            if dep not in position_of:
                raise ValueError(f"job {name} depends on unknown {dep}")
            below.append(level(dep, jobs[position_of[dep]][1], seen | {name}))
        value = (max(below) + 1) if below else 0
        level_of[name] = value
        return value

    for name, deps in jobs:
        level(name, deps, frozenset())
    out: list[list[int]] = [[] for _ in range(max(level_of.values(), default=-1) + 1)]
    for position, (name, _deps) in enumerate(jobs):
        out[level_of[name]].append(position)
    return out
