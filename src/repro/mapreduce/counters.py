"""Work counters for simulated MapReduce tasks and jobs.

Every simulated task counts the tuples it reads, writes, shuffles,
checks and joins; the §5.4 unit costs turn counters into (simulated)
time.  The same counters double as the framework's "total work", which
is what the paper's cost model estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cost.params import CostParams


@dataclass
class TaskMetrics:
    """Counters for one map or reduce task."""

    tuples_read: int = 0
    tuples_written: int = 0
    tuples_shuffled: int = 0
    checks: int = 0
    join_tuples: int = 0

    def time(self, params: CostParams) -> float:
        """Simulated execution time of the task under the unit costs."""
        return (
            self.tuples_read * params.c_read
            + self.tuples_written * params.c_write
            + self.tuples_shuffled * params.c_shuffle
            + self.checks * params.c_check
            + self.join_tuples * params.c_join
        )

    def merge(self, other: "TaskMetrics") -> None:
        self.tuples_read += other.tuples_read
        self.tuples_written += other.tuples_written
        self.tuples_shuffled += other.tuples_shuffled
        self.checks += other.checks
        self.join_tuples += other.join_tuples


@dataclass
class JobMetrics:
    """Aggregated metrics and timing for one MapReduce job."""

    name: str
    map_time: float = 0.0
    reduce_time: float = 0.0
    overhead: float = 0.0
    total_work: float = 0.0
    map_only: bool = True
    tuples_shuffled: int = 0
    output_tuples: int = 0

    @property
    def time(self) -> float:
        """Response time of the job: map and reduce phases are barriers."""
        return self.overhead + self.map_time + self.reduce_time


@dataclass
class ExecutionReport:
    """End-to-end execution statistics of a job DAG."""

    jobs: list[JobMetrics] = field(default_factory=list)
    levels: list[list[str]] = field(default_factory=list)
    response_time: float = 0.0
    total_work: float = 0.0
    #: name of the execution backend that produced this report
    backend: str = "serial"
    #: number of store shards the execution spanned (0 = unsharded).
    #: This and the fields below are stamped by the shard router when
    #: the execution it dispatched ends.
    shards: int = 0
    #: how shards were reached: "local" (no shards / single store),
    #: "inproc" (shard workers in the driver process) or "rpc" (shard
    #: server processes)
    transport: str = "local"
    #: map + reduce tasks run on each shard, and output rows landing on
    #: each shard's nodes over all jobs (None when unsharded)
    shard_tasks: tuple[int, ...] | None = None
    shard_rows: tuple[int, ...] | None = None
    #: request bytes shipped to each shard worker for this execution
    #: (zeros in process, where frames cross as objects; None unsharded)
    shard_bytes: tuple[int, ...] | None = None
    #: request frames shipped to each shard worker for this execution
    #: (None unsharded).  With cross-query
    #: coalescing a frame may carry several queries' levels, so this
    #: can undershoot levels x shards.
    shard_frames: tuple[int, ...] | None = None

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    def job_signature(self) -> str:
        """The paper's Fig. 20/21 job annotation: 'M' for a map-only
        execution, otherwise the number of jobs."""
        if all(j.map_only for j in self.jobs):
            return "M"
        return str(self.num_jobs)
