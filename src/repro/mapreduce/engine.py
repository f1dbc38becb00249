"""The simulated MapReduce execution engine.

Executes a :class:`LevelProgram` level by level (independent jobs run
concurrently; dependent jobs wait), really running every task spec on
real data, and charges simulated time from the task counters and the
§5.4 unit costs:

* a job's map phase time is the maximum over nodes of the node's map
  work (nodes work in parallel, tasks on one node serially);
* the reduce phase likewise is the maximum over reducers;
* each job pays a fixed initialization overhead (``job_overhead``);
* the response time of a level is its slowest job; levels are barriers.

A level program is a plan's job DAG with everything about it that does
not depend on the data fixed once: the topological levels, per level
its jobs (name, output file and schema, reduce spec and reducer count),
every map :class:`~repro.mapreduce.backends.TaskInvocation`, their task
groups, and which job and partition each reduce task of the level
serves.  A prepared plan builds its program on its first execution
(:meth:`repro.physical.executor.PreparedPlan.program`).  What an
execution builds is only its own
state: the shuffle buckets, the metrics, the reduce invocations around
the ``(partition, grouped)`` the shuffle produced, and the job outputs
it publishes into the context's HDFS namespace, each under its job's
output name.

*How* the tasks of a level physically run is delegated to an
:class:`~repro.mapreduce.backends.ExecutionBackend`: all map tasks of a
level fan out together as one :class:`~repro.mapreduce.backends.TaskBatch`,
then all reduce tasks, with results consumed in submission order so
that shuffle grouping — and therefore answers and reports — is
identical whichever backend ran the tasks.  The simulated timing model
depends only on the returned counters, never on wall-clock, so a report
is backend-invariant by construction (the backend name is recorded on
it for observability).

This is the only level scheduler.  A sharded deployment does not run a
second one: the shard router (:mod:`repro.cluster.router`) is itself a
backend that runs each task on the shard owning its node — every
:class:`~repro.mapreduce.backends.TaskInvocation` says which node,
phase and level it belongs to — so a sharded report is this engine's
report, equal to the unsharded one field for field.

The scheduler moves *chunks* (:mod:`repro.mapreduce.jobs`): a map task
hands back one chunk per reduce partition it has rows for, the shuffle
appends it to that partition's list, a reducer gets ``{tag: [chunks]}``
and each node's output is the sequence of chunks its tasks returned.
The level loop never iterates rows and never asks what a chunk is made
of — row list or id-column block, it needs ``len`` only.

Total work (the quantity the cost model of §5.4 estimates) is reported
alongside the response time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from repro.cost.params import DEFAULT_PARAMS, CostParams
from repro.mapreduce.backends import (
    ExecutionBackend,
    SerialBackend,
    TaskBatch,
    TaskInvocation,
)
from repro.mapreduce.counters import ExecutionReport, JobMetrics
from repro.mapreduce.hdfs import Chunks, DistributedRelation
from repro.mapreduce.jobs import Chunk, ReduceTaskSpec, TaskContext
from repro.obs.trace import span


@dataclass
class ClusterConfig:
    """The simulated cluster (the paper used 7 nodes)."""

    num_nodes: int = 7

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("a cluster needs at least one node")


# -- level programs -----------------------------------------------------------


@dataclass(frozen=True)
class ProgramJob:
    """One job of a level program: everything about it that is fixed
    once its plan is."""

    name: str
    #: the HDFS file the job's per-node outputs are published as
    output: str
    #: that file's attribute schema
    attrs: tuple[str, ...]
    #: the map invocations, in submission order
    maps: tuple[TaskInvocation, ...]
    reduce_spec: ReduceTaskSpec | None = None
    num_reducers: int = 0  # 0 -> map-only job

    def __post_init__(self) -> None:
        if (self.reduce_spec is None) != self.map_only:
            raise ValueError(f"job {self.name}: a reduce spec and reducers go together")

    @property
    def map_only(self) -> bool:
        return self.num_reducers == 0


@dataclass(frozen=True)
class ProgramLevel:
    """One scheduling level: its jobs, the map batch they submit
    together and the fixed layout of the reduce batch."""

    jobs: tuple[ProgramJob, ...]
    #: every map invocation of the level, job by job, with its task groups
    maps: TaskBatch
    #: ``(position in jobs, partition)`` per reduce task, in submission order
    reduces: tuple[tuple[int, int], ...]
    #: the task groups of the reduce batch
    reduce_groups: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LevelProgram:
    """A job DAG compiled for the engine: its levels, in order.

    Immutable and made of specs only (never blocks or rows), so one
    program serves every execution of its plan, from any thread at
    once; two threads that build the program of one plan build equal
    ones."""

    levels: tuple[ProgramLevel, ...]
    #: the answer schema (the terminal job's output attributes)
    final_attrs: tuple[str, ...] = ()


def program_level(jobs: Sequence[ProgramJob]) -> ProgramLevel:
    """The level running *jobs*: their map invocations as one batch and
    every reduce task's place, each grouped once by
    :func:`repro.columnar.engine.task_groups`."""
    # Imported here: the columnar engine evaluates the plan specs, whose
    # module imports this one.
    from repro.columnar.engine import task_groups

    jobs = tuple(jobs)
    maps = tuple(inv for job in jobs for inv in job.maps)
    reduces = tuple(
        (position, partition)
        for position, job in enumerate(jobs)
        for partition in range(job.num_reducers)
    )
    return ProgramLevel(
        jobs=jobs,
        maps=TaskBatch(maps, task_groups([inv.spec for inv in maps])),
        reduces=reduces,
        reduce_groups=task_groups(
            [jobs[position].reduce_spec for position, _ in reduces]
        ),
    )


# -- execution ----------------------------------------------------------------


class _JobState:
    """Per-job accumulation while its level executes."""

    def __init__(self, job: ProgramJob, num_nodes: int, overhead: float) -> None:
        self.job = job
        self.metrics = JobMetrics(
            name=job.name, overhead=overhead, map_only=job.map_only
        )
        self.node_work: dict[int, float] = defaultdict(float)
        self.reduce_work: dict[int, float] = defaultdict(float)
        #: reduce partition -> input tag -> the chunks shuffled there
        self.shuffle: dict[int, dict[int, list[Chunk]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.outputs_per_node = [Chunks() for _ in range(num_nodes)]


class MapReduceEngine:
    """Runs level programs on a simulated cluster via an execution backend."""

    def __init__(
        self,
        cluster: ClusterConfig | None = None,
        params: CostParams = DEFAULT_PARAMS,
        backend: ExecutionBackend | None = None,
    ) -> None:
        self.cluster = cluster or ClusterConfig()
        self.params = params
        self.backend = backend or SerialBackend()

    def execute(self, program: LevelProgram, ctx: TaskContext) -> ExecutionReport:
        """Run all jobs; return the execution report.

        ``ctx`` carries the worker-visible state (store snapshot, HDFS
        namespace).  Each job's per-node outputs, each a chunk of rows
        (reducer outputs live on the reducer's node, map-only outputs on
        the mapper's node), are written to the context's HDFS under the
        job's output name once its level's tasks returned; a context
        without a namespace keeps none.
        """
        report = ExecutionReport(backend=self.backend.name)
        with self.backend.execution(ctx, report) as ctx:
            for level_index, level in enumerate(program.levels):
                with span("level", index=level_index, jobs=len(level.jobs)):
                    level_time = self._run_level(level, level_index, ctx, report)
                report.levels.append([job.name for job in level.jobs])
                report.response_time += level_time
        return report

    # -- internals -----------------------------------------------------------

    def _run_level(
        self,
        level: ProgramLevel,
        level_index: int,
        ctx: TaskContext,
        report: ExecutionReport,
    ) -> float:
        params = self.params
        num_nodes = self.cluster.num_nodes
        states = [
            _JobState(job, num_nodes, params.job_overhead) for job in level.jobs
        ]

        # Map phase: fan every map task of the level out on the backend,
        # then consume results in submission order (determinism: shuffle
        # lists are appended in task order, not completion order).
        with span("map_phase", tasks=len(level.maps)):
            results = iter(list(self.backend.run(level.maps, ctx)))
        for state in states:
            job, metrics = state.job, state.metrics
            num_reducers = max(job.num_reducers, 1)
            for task in job.maps:
                shuffle, direct, task_metrics = next(results)
                work = task_metrics.time(params)
                state.node_work[task.node] += work
                metrics.total_work += work
                for partition, tag, chunk in shuffle:
                    state.shuffle[partition % num_reducers][tag].append(chunk)
                state.outputs_per_node[task.node % num_nodes].append(direct)
            metrics.map_time = max(state.node_work.values(), default=0.0)

        # Reduce phase: likewise, across all jobs of the level; only the
        # invocations' (partition, grouped) arguments are new per run.
        if level.reduces:
            reduce_batch = TaskBatch(
                tuple(
                    TaskInvocation(
                        states[position].job.reduce_spec,
                        (
                            partition,
                            dict(states[position].shuffle.get(partition, ())),
                        ),
                        partition % num_nodes,
                        "reduce",
                        level_index,
                    )
                    for position, partition in level.reduces
                ),
                level.reduce_groups,
            )
            with span("reduce_phase", tasks=len(reduce_batch)):
                reduce_results = self.backend.run(reduce_batch, ctx)
            for (position, partition), (out, task_metrics) in zip(
                level.reduces, reduce_results
            ):
                state = states[position]
                metrics = state.metrics
                node = partition % num_nodes
                work = task_metrics.time(params)
                state.reduce_work[node] += work
                metrics.total_work += work
                metrics.tuples_shuffled += task_metrics.tuples_shuffled
                state.outputs_per_node[node].append(out)
            for state in states:
                if not state.job.map_only:
                    state.metrics.reduce_time = max(
                        state.reduce_work.values(), default=0.0
                    )

        # Close out the level: charge overheads, publish outputs.
        level_time = 0.0
        for state in states:
            job, metrics = state.job, state.metrics
            metrics.total_work += params.job_overhead
            metrics.output_tuples = sum(map(len, state.outputs_per_node))
            if ctx.hdfs is not None:
                ctx.hdfs.write(
                    job.output,
                    DistributedRelation(job.attrs, state.outputs_per_node),
                )
            report.jobs.append(metrics)
            report.total_work += metrics.total_work
            level_time = max(level_time, metrics.time)
        return level_time

