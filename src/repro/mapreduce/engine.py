"""The simulated MapReduce execution engine.

Executes a :class:`JobGraph` level by level (independent jobs run
concurrently; dependent jobs wait), really running every task spec on
real data, and charges simulated time from the task counters and the
§5.4 unit costs:

* a job's map phase time is the maximum over nodes of the node's map
  work (nodes work in parallel, tasks on one node serially);
* the reduce phase likewise is the maximum over reducers;
* each job pays a fixed initialization overhead (``job_overhead``);
* the response time of a level is its slowest job; levels are barriers.

*How* the tasks of a level physically run is delegated to an
:class:`~repro.mapreduce.backends.ExecutionBackend`: all map tasks of a
level fan out together, then all reduce tasks, with results consumed in
submission order so that shuffle grouping — and therefore answers and
reports — is identical whichever backend ran the tasks.  The simulated
timing model depends only on the returned counters, never on wall-clock,
so a report is backend-invariant by construction (the backend name is
recorded on it for observability).

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

from repro.cost.params import DEFAULT_PARAMS, CostParams
from repro.mapreduce.backends import (
    ExecutionBackend,
    SerialBackend,
    TaskInvocation,
)
from repro.mapreduce.counters import ExecutionReport, JobMetrics, TaskMetrics
from repro.mapreduce.hdfs import Chunks
from repro.mapreduce.jobs import Chunk, JobGraph, MapReduceJob, TaskContext
from repro.obs.trace import span


@dataclass
class ClusterConfig:
    """The simulated cluster (the paper used 7 nodes)."""

    num_nodes: int = 7

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("a cluster needs at least one node")


class _JobState:
    """Per-job accumulation while its level executes."""

    def __init__(self, job: MapReduceJob, num_nodes: int, overhead: float) -> None:
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
    """Runs job graphs on a simulated cluster via an execution backend."""

    def __init__(
        self,
        cluster: ClusterConfig | None = None,
        params: CostParams = DEFAULT_PARAMS,
        backend: ExecutionBackend | None = None,
    ) -> None:
        self.cluster = cluster or ClusterConfig()
        self.params = params
        self.backend = backend or SerialBackend()

    def execute(self, graph: JobGraph, ctx: TaskContext | None = None) -> ExecutionReport:
        """Run all jobs; return the execution report.

        ``ctx`` carries the worker-visible state (store snapshot, HDFS
        namespace); omitting it suits self-contained closure-style jobs.
        Job ``on_complete`` callbacks receive the per-node outputs, each
        a chunk of rows (reducer outputs live on the reducer's node;
        map-only outputs on the mapper's node), letting callers persist
        intermediates; they always run in the driver, after the level's
        tasks returned.
        """
        if ctx is None:
            ctx = TaskContext(num_nodes=self.cluster.num_nodes)
        report = ExecutionReport(backend=self.backend.name)
        with self.backend.execution(ctx, report) as ctx:
            for level_index, level in enumerate(graph.levels()):
                with span("level", index=level_index, jobs=len(level)):
                    level_time = self._run_level(level, level_index, ctx, report)
                report.levels.append([job.name for job in level])
                report.response_time += level_time
        return report

    # -- internals -----------------------------------------------------------

    def _run_level(
        self,
        level: list[MapReduceJob],
        level_index: int,
        ctx: TaskContext,
        report: ExecutionReport,
    ) -> float:
        params = self.params
        num_nodes = self.cluster.num_nodes
        states = [
            _JobState(job, num_nodes, params.job_overhead) for job in level
        ]

        # Map phase: fan every map task of the level out on the backend,
        # then consume results in submission order (determinism: shuffle
        # lists are appended in task order, not completion order).
        invocations = [
            TaskInvocation(task.spec, (), task.node, "map", level_index)
            for state in states
            for task in state.job.map_tasks
        ]
        with span("map_phase", tasks=len(invocations)):
            results = iter(list(self.backend.run(invocations, ctx)))
        for state in states:
            job, metrics = state.job, state.metrics
            num_reducers = max(job.num_reducers, 1)
            for task in job.map_tasks:
                shuffle, direct, task_metrics = next(results)
                work = task_metrics.time(params)
                state.node_work[task.node] += work
                metrics.total_work += work
                for partition, tag, chunk in shuffle:
                    state.shuffle[partition % num_reducers][tag].append(chunk)
                state.outputs_per_node[task.node % num_nodes].append(direct)
            metrics.map_time = max(state.node_work.values(), default=0.0)

        # Reduce phase: likewise, across all jobs of the level.
        reduce_invocations: list[TaskInvocation] = []
        owners: list[tuple[_JobState, int]] = []
        for state in states:
            job = state.job
            if job.map_only:
                continue
            assert job.reduce_spec is not None
            for partition in range(job.num_reducers):
                grouped = dict(state.shuffle.get(partition, ()))
                reduce_invocations.append(
                    TaskInvocation(
                        job.reduce_spec,
                        (partition, grouped),
                        partition % num_nodes,
                        "reduce",
                        level_index,
                    )
                )
                owners.append((state, partition))
        if reduce_invocations:
            with span("reduce_phase", tasks=len(reduce_invocations)):
                reduce_results = self.backend.run(reduce_invocations, ctx)
            for (state, partition), (out, task_metrics) in zip(
                owners, reduce_results
            ):
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
            metrics = state.metrics
            metrics.total_work += params.job_overhead
            metrics.output_tuples = sum(map(len, state.outputs_per_node))
            if state.job.on_complete is not None:
                state.job.on_complete(state.outputs_per_node)
            report.jobs.append(metrics)
            report.total_work += metrics.total_work
            level_time = max(level_time, metrics.time)
        return level_time


def run_jobs(
    jobs: list[MapReduceJob],
    cluster: ClusterConfig | None = None,
    params: CostParams = DEFAULT_PARAMS,
    backend: ExecutionBackend | None = None,
    ctx: TaskContext | None = None,
) -> ExecutionReport:
    """Convenience: build a graph from *jobs* and execute it."""
    graph = JobGraph()
    for job in jobs:
        graph.add(job)
    return MapReduceEngine(cluster, params, backend).execute(graph, ctx)
