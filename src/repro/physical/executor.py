"""Executes compiled plans on the simulated MapReduce cluster.

Every operator really runs: map chains scan the §5.1 partitioned store
node-locally, map joins star-join co-located tuples, shuffles hash rows
to reducers, reduce joins combine their partition's groups.  Work
counters feed the timing model of the engine, and the returned answers
are exact (tested against the reference evaluator).

Tasks are *declarative specs* (:class:`ChainMapSpec`,
:class:`MapOnlySpec`, :class:`StarReduceSpec`): picklable dataclasses
holding the physical operator chain plus routing data, evaluated against
a :class:`~repro.mapreduce.jobs.TaskContext`.  That keeps plan execution
backend-agnostic — the same compiled plan runs serially, on a thread
pool, or fanned out across a process pool, with byte-identical answers.

What a task hands the engine is a *chunk* (:mod:`repro.mapreduce.jobs`):
these tuple specs return row lists — a map task one list per reduce
partition, grouped inside the task — and read whatever chunks they are
given by iterating them as rows.

The ``run`` methods below are also the *reference semantics* for the
vectorized evaluator: :mod:`repro.columnar.engine` executes these same
three specs over dictionary-encoded :class:`~repro.columnar.block.ColumnBlock`
columns instead of term tuples, and returns blocks as its chunks; the
answer stays a block too (:attr:`ExecutionResult.block`), decoded to
terms once, by whoever reads it.  Both the produced rows (as multisets —
intermediate order is never observable, the reducers group by key and
the final answer is a set) and every :class:`TaskMetrics` increment in
this file are a compatibility contract: change the accounting here and
the columnar mirror must change in lockstep (the conformance harness
compares the two field-wise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.core.logical import LogicalPlan, rewrite_patterns
from repro.cost.params import DEFAULT_PARAMS, CostParams
from repro.columnar.block import ColumnBlock, answer_block, answer_rows
from repro.mapreduce.backends import ExecutionBackend, TaskInvocation, make_backend
from repro.mapreduce.counters import ExecutionReport, TaskMetrics
from repro.mapreduce.engine import (
    ClusterConfig,
    LevelProgram,
    MapReduceEngine,
    ProgramJob,
    program_level,
)
from repro.mapreduce.hdfs import HDFS, DistributedRelation
from repro.mapreduce.jobs import (
    MapTaskSpec,
    ReduceTaskSpec,
    TaskContext,
    flatten,
    stable_hash,
    topological_levels,
)
from repro.obs.trace import span
from repro.partitioning.triple_partitioner import PartitionedStore
from repro.physical.job_compiler import (
    CompiledPlan,
    JobSpec,
    compile_plan,
    shuffler_sources,
)
from repro.physical.operators import (
    Filter,
    MapJoin,
    MapScan,
    MapShuffler,
    PhysicalOperator,
    PhysProject,
)
from repro.physical.translate import (
    PhysicalPlan,
    bind_triple,
    substitute_pattern,
    substitute_plan,
    translate,
)
from repro.sparql.ast import BGPQuery
from repro.relational.joins import star_join
from repro.relational.relation import Relation


@dataclass
class PreparedPlan:
    """A logical plan translated and compiled, ready to execute.

    Preparation is pure (no cluster state is touched), so a prepared
    plan can be executed any number of times — and cached: the query
    service memoizes prepared plans per query shape to skip translation
    and job compilation on repeated queries.  Its first execution also
    compiles the job DAG into the engine's level program (levels, map
    invocations, task groups — :meth:`program`), which the plan keeps,
    so a warm execution builds nothing but its own per-run state; a
    plan that is only ever bound builds none.  All layers are plain
    dataclasses of plain data, so a prepared plan pickles: it can be
    shipped to another process or persisted and re-executed there.

    A prepared plan may be a *template*: its scan patterns can carry
    ``$`` parameter placeholders where constants will go.  :meth:`bind`
    substitutes concrete constants through all three layers without
    re-planning — structure (placements, joins, job grouping) is decided
    once per template, selection terms per binding.
    """

    plan: LogicalPlan
    physical: PhysicalPlan
    compiled: CompiledPlan
    #: ``(num_nodes, program)``: the level program the plan last ran
    #: on a cluster of that size (see :meth:`program`)
    _program: tuple[int, LevelProgram] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def program(self, num_nodes: int) -> LevelProgram:
        """The plan's level program on *num_nodes* nodes, built on the
        first call and kept.  No lock: building is pure, so two threads
        racing on a new plan build equal programs and either may stay."""
        cached = self._program
        if cached is None or cached[0] != num_nodes:
            program = level_program(self.compiled, num_nodes)
            from repro.analysis.plan_check import maybe_check

            maybe_check(self.plan, compiled=self.compiled, program=program)
            cached = self._program = (num_nodes, program)
        return cached[1]

    def bind(self, subst: dict[str, str]) -> "PreparedPlan":
        """A copy with *subst* applied to every pattern term.

        Late binding for parameterized templates: only the selection
        terms inside scan patterns (hence the selection predicates the
        compiled :class:`ChainMapSpec`/:class:`MapOnlySpec` tasks
        evaluate) change; translation decisions are reused verbatim and
        the job DAG recompiles to the identical shape.
        """
        if not subst:
            return self

        def bind_pattern(tp):
            return substitute_pattern(tp, subst)

        query = self.plan.query
        bound_query = BGPQuery(
            distinguished=query.distinguished,
            patterns=tuple(bind_pattern(tp) for tp in query.patterns),
            name=query.name,
        )
        plan = LogicalPlan(
            root=rewrite_patterns(self.plan.root, bind_pattern),
            query=bound_query,
        )
        physical = substitute_plan(self.physical, subst)
        return PreparedPlan(
            plan=plan, physical=physical, compiled=compile_plan(physical)
        )


# -- chain evaluation ---------------------------------------------------------


def eval_chain(
    op: PhysicalOperator, node: int, ctx: TaskContext, metrics: TaskMetrics
) -> Relation:
    """Evaluate a map-side chain on one node's local data."""
    if isinstance(op, MapScan):
        triples = ctx.store.scan(node, op.placement, op.prop, op.type_object)
        metrics.tuples_read += len(triples)
        rows = []
        for triple in triples:
            row = bind_triple(op.pattern, triple)
            if row is not None:
                rows.append(row)
        return Relation(op.attrs, rows)
    if isinstance(op, Filter):
        # The scan enforces the whole pattern via bind_triple; the
        # filter's accounted work is one check per scanned tuple.
        before = metrics.tuples_read
        child = eval_chain(op.child, node, ctx, metrics)
        metrics.checks += metrics.tuples_read - before
        return child
    if isinstance(op, MapJoin):
        inputs = [eval_chain(c, node, ctx, metrics) for c in op.inputs]
        output = star_join(inputs, on=op.on)
        metrics.join_tuples += sum(len(r) for r in inputs) + len(output)
        metrics.tuples_written += len(output)
        return output
    if isinstance(op, MapShuffler):
        relation = ctx.hdfs.read(op.source)
        rows = list(relation.partitions[node])
        metrics.tuples_read += len(rows)
        metrics.tuples_written += len(rows)
        return Relation(relation.attrs, rows)
    if isinstance(op, PhysProject):
        # A pushed-down projection running inside the map task.
        child = eval_chain(op.child, node, ctx, metrics)
        metrics.checks += len(child)
        return child.project(op.on)
    raise TypeError(f"not a map-side operator: {type(op)!r}")


# -- task specs ---------------------------------------------------------------


class _ChainTaskSpec(MapTaskSpec):
    """Shared remote-input logic for chain-evaluating map specs
    (subclasses carry ``chain`` and ``node`` fields)."""

    def hdfs_inputs(self) -> tuple[str, ...]:
        return shuffler_sources(self.chain)

    def hdfs_slice(self, hdfs: HDFS) -> dict:
        # The chain only reads this node's partitions; ship those alone
        # (the full relation would otherwise cross the process boundary
        # once per node).
        out = {}
        for name in self.hdfs_inputs():
            relation = hdfs.read(name)
            out[name] = DistributedRelation(
                attrs=relation.attrs,
                partitions=[
                    part if i == self.node else []
                    for i, part in enumerate(relation.partitions)
                ],
            )
        return out


@dataclass(frozen=True)
class ChainMapSpec(_ChainTaskSpec):
    """Map task feeding a reduce join: evaluate a chain on one node and
    shuffle its rows to reducers by the join key's stable hash."""

    chain: PhysicalOperator
    node: int
    tag: int
    key_attrs: tuple[str, ...]
    num_reducers: int

    def run(self, ctx: TaskContext, *args):
        metrics = TaskMetrics()
        relation = eval_chain(self.chain, self.node, ctx, metrics)
        # Hadoop spills map output to local disk before the shuffle.
        # Map joins and map shufflers already counted that write
        # (c(MJ)/c(MF) include it, §5.4); bare scan chains have not.
        if not isinstance(self.chain, (MapJoin, MapShuffler)):
            metrics.tuples_written += len(relation)
        key = relation.key(self.key_attrs)
        partitions: dict[int, list] = {}
        for row in relation.rows:
            partitions.setdefault(
                stable_hash(key(row)) % self.num_reducers, []
            ).append(row)
        shuffle = [(p, self.tag, rows) for p, rows in partitions.items()]
        return shuffle, [], metrics


@dataclass(frozen=True)
class MapOnlySpec(_ChainTaskSpec):
    """Map-only task: evaluate a chain on one node, emit direct output."""

    chain: PhysicalOperator
    node: int
    project: tuple[str, ...] | None

    def run(self, ctx: TaskContext, *args):
        metrics = TaskMetrics()
        relation = eval_chain(self.chain, self.node, ctx, metrics)
        if self.project is not None:
            metrics.checks += len(relation)
            relation = relation.project(self.project)
        metrics.tuples_written += len(relation)
        return [], list(relation.rows), metrics


@dataclass(frozen=True)
class StarReduceSpec(ReduceTaskSpec):
    """Reduce task of a repartition join: star-join the tagged groups of
    one partition, optionally projecting the terminal job's output."""

    on: tuple[str, ...]
    child_attrs: tuple[tuple[str, ...], ...]
    project: tuple[str, ...] | None

    def run(self, ctx: TaskContext, partition: int, grouped: dict):
        metrics = TaskMetrics()
        inputs = []
        for tag, attrs in enumerate(self.child_attrs):
            rows = flatten(grouped.get(tag, ()))
            metrics.tuples_shuffled += len(rows)
            # Reducers merge-read the transferred runs from disk.
            metrics.tuples_read += len(rows)
            inputs.append(Relation(attrs, rows))
        if any(len(r) == 0 for r in inputs):
            out_rows: list[tuple] = []
        else:
            output = star_join(inputs, on=self.on)
            metrics.join_tuples += sum(len(r) for r in inputs) + len(output)
            if self.project is not None:
                metrics.checks += len(output)
                output = output.project(self.project)
            out_rows = list(output.rows)
        metrics.tuples_written += len(out_rows)
        return out_rows, metrics


# -- level programs -------------------------------------------------------------


def job_output_attrs(spec: JobSpec) -> tuple[str, ...]:
    """The attribute schema of a job's output relation."""
    if spec.project is not None:
        return spec.project
    if spec.reduce_join is not None:
        return spec.reduce_join.attrs
    return spec.map_chains[0].attrs


def program_job(spec: JobSpec, num_nodes: int, level: int) -> ProgramJob:
    """The program job of one job spec at *level*: a map-only job runs
    its chain once per node; a reduce-join job runs each chain (tag)
    once per node and shuffles to one reducer per node."""
    attrs = job_output_attrs(spec)
    if spec.map_only:
        chain = spec.map_chains[0]
        maps = tuple(
            TaskInvocation(MapOnlySpec(chain, node, spec.project), (), node, "map", level)
            for node in range(num_nodes)
        )
        return ProgramJob(spec.name, spec.output_name, attrs, maps)
    rj = spec.reduce_join
    assert rj is not None
    maps = tuple(
        TaskInvocation(
            ChainMapSpec(chain, node, tag, rj.on, num_nodes), (), node, "map", level
        )
        for tag, chain in enumerate(spec.map_chains)
        for node in range(num_nodes)
    )
    reduce_spec = StarReduceSpec(
        on=rj.on,
        child_attrs=tuple(chain.attrs for chain in spec.map_chains),
        project=spec.project,
    )
    return ProgramJob(spec.name, spec.output_name, attrs, maps, reduce_spec, num_nodes)


def level_program(compiled: CompiledPlan, num_nodes: int) -> LevelProgram:
    """Compile a job DAG into the level program the engine runs on
    *num_nodes* nodes: the topological levels of ``compiled.jobs``,
    every map invocation built and grouped once."""
    levels = topological_levels([(spec.name, spec.depends) for spec in compiled.jobs])
    return LevelProgram(
        tuple(
            program_level(
                [program_job(compiled.jobs[p], num_nodes, index) for p in positions]
            )
            for index, positions in enumerate(levels)
        ),
        compiled.final_attrs,
    )


# -- results ------------------------------------------------------------------


@dataclass
class ExecutionResult:
    """Answers plus the execution report of one query run.

    ``block`` is the answer in id space: the plan's output attributes in
    canonical order, each distinct row once.  ``rows`` decodes it to the
    term-tuple set on first read.
    """

    block: ColumnBlock
    report: ExecutionReport
    plan: LogicalPlan
    physical: PhysicalPlan
    compiled: CompiledPlan

    @property
    def attrs(self) -> tuple[str, ...]:
        return self.block.attrs

    @cached_property
    def rows(self) -> frozenset[tuple]:
        return answer_rows(self.block)

    @property
    def response_time(self) -> float:
        return self.report.response_time

    # Per-shard counts of a sharded execution (repro.cluster), as the
    # shard router stamped them on the report; None when unsharded.

    @property
    def shard_tasks(self) -> tuple[int, ...] | None:
        return self.report.shard_tasks

    @property
    def shard_rows(self) -> tuple[int, ...] | None:
        return self.report.shard_rows

    @property
    def shard_bytes(self) -> tuple[int, ...] | None:
        return self.report.shard_bytes

    @property
    def shard_frames(self) -> tuple[int, ...] | None:
        return self.report.shard_frames

    @property
    def num_jobs(self) -> int:
        return self.report.num_jobs

    def job_signature(self) -> str:
        return self.compiled.job_signature()


class PlanExecutor:
    """Runs logical plans over a partitioned store on a simulated cluster.

    ``backend`` selects how task specs physically execute: a backend
    name (``"serial"``/``"thread"``/``"process"``/``"columnar"``), an
    :class:`~repro.mapreduce.backends.ExecutionBackend` instance, or
    ``None`` for serial.  Answers and simulated reports are identical
    across backends; only wall-clock differs.
    """

    def __init__(
        self,
        store: PartitionedStore,
        cluster: ClusterConfig | None = None,
        params: CostParams = DEFAULT_PARAMS,
        backend: ExecutionBackend | str | None = None,
    ) -> None:
        self.store = store
        self.cluster = cluster or ClusterConfig(num_nodes=store.num_nodes)
        self.params = params
        self.backend = make_backend(backend)
        self.engine = MapReduceEngine(self.cluster, params, backend=self.backend)

    # -- lifecycle ------------------------------------------------------------

    def prime(self) -> None:
        """Warm the backend's worker pools against the current store.

        Idempotent per store version: the process backend keys its pool
        on the snapshot token and rebuilds only when the store actually
        changed.
        """
        self.backend.prime(
            TaskContext(
                num_nodes=self.cluster.num_nodes, store=self.store.snapshot()
            )
        )

    def close(self) -> None:
        """Release backend worker pools (no-op for serial)."""
        self.backend.close()

    def __enter__(self) -> "PlanExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- public API -----------------------------------------------------------

    def execute(self, plan: LogicalPlan) -> ExecutionResult:
        """Translate, compile and run *plan*; return answers + report."""
        return self.execute_prepared(self.prepare(plan))

    def prepare(self, plan: LogicalPlan) -> PreparedPlan:
        """Translate and compile *plan* without running it.

        With ``REPRO_CHECK_PLANS=1``, every prepared plan is verified
        against the paper's structural invariants (logical, physical and
        job-DAG level) before it is handed out.
        """
        with span("prepare") as sp:
            physical = translate(plan, replicas=self.store.replicas)
            compiled = compile_plan(physical)
            sp.set(jobs=len(compiled.jobs))
            from repro.analysis.plan_check import maybe_check

            maybe_check(plan, physical=physical, compiled=compiled)
        return PreparedPlan(plan=plan, physical=physical, compiled=compiled)

    def register_template(self, prepared: PreparedPlan) -> bool:
        """A no-op: nothing that runs tasks keeps anything about a
        plan, so there is nobody to announce a template to.  Still here
        only because the perf ledger's deployment probe calls it; it
        goes with that call."""
        return False

    def execute_prepared(self, prepared: PreparedPlan) -> ExecutionResult:
        """Run an already-prepared plan; return answers + report.

        The plan's level program is built on its first execution and
        reused by every later one; what is new per execution is the
        HDFS namespace, the store snapshot it reads and what the engine
        keeps per run (shuffle buckets, metrics, reduce arguments)."""
        num_nodes = self.cluster.num_nodes
        program = prepared.program(num_nodes)
        hdfs = HDFS(num_nodes=num_nodes)
        ctx = TaskContext(
            num_nodes=num_nodes, store=self.store.snapshot(), hdfs=hdfs
        )
        with span("engine", jobs=len(prepared.compiled.jobs)):
            report = self.engine.execute(program, ctx)
        block = answer_block(
            program.final_attrs,
            hdfs.read("result").chunks(),
            ctx.store.dictionary,
        )
        return ExecutionResult(
            block=block,
            report=report,
            plan=prepared.plan,
            physical=prepared.physical,
            compiled=prepared.compiled,
        )
