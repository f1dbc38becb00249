"""The simulated MapReduce job model.

A :class:`MapReduceJob` bundles map tasks, an optional reduce stage and
dependency edges; a :class:`JobGraph` of them compiles to the level
program the engine runs (:mod:`repro.mapreduce.engine`), the type a
prepared plan builds directly.  Tasks carry *declarative specs* —
picklable dataclasses whose ``run`` method evaluates the task against a
:class:`TaskContext` — so any execution backend (serial, thread pool,
process pool) can ship a task to a worker and get back its output rows
plus :class:`TaskMetrics`.  Behaviour lives in the spec
class, state in its fields; nothing in a spec may close over live
engine objects.

Closure-style tasks (the historical API, still used by ad-hoc
simulations and tests) remain available through ``MapTask(run=...)`` /
``MapReduceJob(reducer=...)``; they are wrapped into
:class:`FnMapSpec` / :class:`FnReduceSpec`, which serial and thread
backends execute in place.  A process backend cannot pickle closures:
hitting one demotes that backend to serial for good (a one-time,
backend-wide fallback with a recorded warning), so keep closure jobs
off backends meant to serve spec-based work in parallel.

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
grouped by tag, and returns one chunk.  Closure-style tasks keep their
historical per-row shapes (``(partition, tag, row)`` emits in,
``{tag: rows}`` to the reducer): the two ``Fn*Spec`` adapters convert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Callable, Collection, Sequence

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

#: A closure-style map task's per-row result: (partition, tag, row) emits.
RowMapResult = tuple[list[tuple[int, int, Row]], list[Row], TaskMetrics]

#: A closure-style reducer consumes {tag: rows} for one partition and
#: returns rows+metrics.
ReduceFn = Callable[[int, dict[int, list[Row]]], tuple[list[Row], TaskMetrics]]


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


@dataclass(frozen=True)
class FnMapSpec(MapTaskSpec):
    """Adapter for closure-style map tasks (not process-safe): groups
    the closure's per-row emits into one chunk per (partition, tag),
    rows in emission order."""

    fn: Callable[[], RowMapResult]  # lint: disable=SPEC001 — closure adapter for in-process backends only, never pickled

    def run(self, ctx: TaskContext, *args) -> MapResult:
        row_emits, direct, metrics = self.fn()
        groups: dict[tuple[int, int], list[Row]] = {}
        for partition, tag, row in row_emits:
            groups.setdefault((partition, tag), []).append(row)
        shuffle = [(p, tag, rows) for (p, tag), rows in groups.items()]
        return shuffle, direct, metrics


@dataclass(frozen=True)
class FnReduceSpec(ReduceTaskSpec):
    """Adapter for closure-style reducers (not process-safe): hands the
    closure each tag's chunks flattened to one row list."""

    fn: ReduceFn  # lint: disable=SPEC001 — closure adapter for in-process backends only, never pickled

    def run(self, ctx: TaskContext, partition: int, grouped: dict) -> tuple:
        return self.fn(partition, {tag: flatten(c) for tag, c in grouped.items()})


@dataclass
class MapTask:
    """One map task, pinned to a cluster node.

    Construct with either a declarative ``spec`` (preferred; required
    for process execution) or a legacy ``run`` closure, which is wrapped
    into a :class:`FnMapSpec`.
    """

    node: int
    spec: MapTaskSpec | None = None
    run: Callable[[], RowMapResult] | None = None

    def __post_init__(self) -> None:
        if (self.spec is None) == (self.run is None):
            raise ValueError("a MapTask needs exactly one of spec= or run=")
        if self.spec is None:
            self.spec = FnMapSpec(self.run)


@dataclass
class MapReduceJob:
    """One simulated MapReduce job."""

    name: str
    map_tasks: list[MapTask]
    num_reducers: int = 0  # 0 -> map-only job
    reducer: ReduceFn | None = None
    #: declarative reduce spec (preferred over the ``reducer`` closure)
    reduce_spec: ReduceTaskSpec | None = None
    #: names of jobs whose output this job reads (scheduling DAG)
    depends_on: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.reducer is not None and self.reduce_spec is not None:
            raise ValueError(f"job {self.name} has both reducer and reduce_spec")
        if self.reducer is not None:
            self.reduce_spec = FnReduceSpec(self.reducer)
        if self.num_reducers > 0 and self.reduce_spec is None:
            raise ValueError(f"job {self.name} has reducers but no reduce fn")
        if self.num_reducers == 0 and self.reduce_spec is not None:
            raise ValueError(f"job {self.name} has a reduce fn but 0 reducers")

    @property
    def map_only(self) -> bool:
        return self.num_reducers == 0


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


@dataclass
class JobGraph:
    """A DAG of jobs, with level-wise scheduling order.

    Jobs with no unfinished dependencies run concurrently (Hadoop runs
    independent jobs in parallel); levels are the simulator's barriers.
    The engine runs a graph compiled to its level program
    (:func:`repro.mapreduce.engine.graph_program`), which publishes each
    job's per-node outputs into HDFS under the job's name.
    """

    jobs: list[MapReduceJob] = field(default_factory=list)

    def add(self, job: MapReduceJob) -> MapReduceJob:
        if any(j.name == job.name for j in self.jobs):
            raise ValueError(f"duplicate job name: {job.name}")
        self.jobs.append(job)
        return job

    def levels(self) -> list[list[MapReduceJob]]:
        """Topological levels: a job sits one level after its last dependency."""
        return [
            [self.jobs[position] for position in level]
            for level in topological_levels(
                [(job.name, job.depends_on) for job in self.jobs]
            )
        ]


def topological_levels(
    jobs: Sequence[tuple[str, Sequence[str]]],
) -> list[list[int]]:
    """The positions of *jobs* — ``(name, names it depends on)`` pairs —
    per scheduling level, in input order within a level: a job sits one
    level after its last dependency."""
    position_of = {name: position for position, (name, _deps) in enumerate(jobs)}
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
