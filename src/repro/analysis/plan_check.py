"""Plan-invariant checker — the paper's structural guarantees, verified.

CliqueSquare's headline property is structural: the clique-decomposition
search produces *flat* plans whose space provably contains a
height-optimal plan (HO-partial, Theorem 4.3), built from n-ary star
joins that agree on all shared attributes.  Until now those properties
were only implied by figure-reproduction benchmarks; this module checks
them mechanically on any plan:

* :func:`check_logical_plan` — leaf coverage, per-level join-variable
  disjointness, star-join attribute agreement, dead-variable-only
  projections, and the flatness bound ``height <= n_patterns - 1``;
* :func:`check_plan_space` — the HO-partial guarantee: the optimizer's
  retained plan set still contains a plan of the query's optimal height
  (this catches ``max_plans`` truncation dropping every HO plan);
* :func:`check_physical_plan` — §5.2 translation invariants: map joins
  only over co-located scan chains, no reduce join consuming another
  reduce join directly, shufflers wired to real producers, the root
  projecting exactly the distinguished variables;
* :func:`check_compiled_plan` — §5.3 job-DAG shape: one job per reduce
  join, dependency depth equal to the reduce-join nesting depth, level
  schedule consistent with the plan height;
* :func:`check_level_program` — the level program the engine runs: the
  DAG's topological levels, every job exactly once, and stored task
  groups equal to the grouping function's.

Runtime hook: with ``REPRO_CHECK_PLANS=1`` in the environment,
``PlanExecutor.prepare``/``ShardedPlanExecutor.prepare``, the service's
optimizer and ``PreparedPlan.program`` call :func:`maybe_check` on every
plan (and level program) they touch,
so any pipeline bug that breaks a paper invariant fails loudly at the
point of introduction instead of as a wrong answer much later.
"""

from __future__ import annotations

import os
import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.logical import Join, LogicalOperator, LogicalPlan, Match, Project
from repro.core.properties import height, operator_height, optimal_height
from repro.physical.operators import (
    Filter,
    MapJoin,
    MapScan,
    MapShuffler,
    PhysicalOperator,
    PhysProject,
    ReduceJoin,
)
from repro.sparql.ast import BGPQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.algorithm import OptimizerResult
    from repro.cost.model import PlanCoster
    from repro.mapreduce.engine import LevelProgram
    from repro.physical.job_compiler import CompiledPlan, JobSpec
    from repro.physical.translate import PhysicalPlan

ENV_FLAG = "REPRO_CHECK_PLANS"


class PlanInvariantError(AssertionError):
    """A plan violates one of the paper's structural invariants.

    Derives from :class:`AssertionError` because the checks are
    assertion-grade: they can only fire on an optimizer/translator bug
    (or a hand-built plan), never on user input.
    """

    def __init__(self, where: str, problems: list[str]) -> None:
        self.where = where
        self.problems = list(problems)
        lines = "\n  - ".join(self.problems)
        super().__init__(f"plan invariants violated in {where}:\n  - {lines}")


@dataclass
class _Report:
    """Accumulates violations so one raise lists every problem at once."""

    where: str
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def raise_if_failed(self) -> None:
        if self.problems:
            raise PlanInvariantError(self.where, self.problems)


def plans_checked() -> bool:
    """True iff the opt-in runtime assertion mode is enabled."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


# -- logical plans ---------------------------------------------------------


def _join_levels(plan: LogicalPlan) -> dict[int, list[Join]]:
    """Joins of the plan DAG grouped by level (1 = closest to leaves)."""
    levels: dict[int, list[Join]] = defaultdict(list)
    seen: set[int] = set()
    for op in plan.root.iter_operators():
        if isinstance(op, Join) and id(op) not in seen:
            seen.add(id(op))
            levels[operator_height(op)].append(op)
    return dict(levels)


def _op_variables(op: LogicalOperator) -> frozenset[str]:
    """Variables produced by *op*, recomputed from its patterns."""
    out: set[str] = set()
    for tp in op.patterns():
        out.update(tp.variables())
    return frozenset(out)


def check_logical_plan(plan: LogicalPlan, query: BGPQuery | None = None) -> None:
    """Verify the §4 structural invariants of one logical plan.

    Raises :class:`PlanInvariantError` listing every violation.  When
    *query* is omitted the plan's own attached query is used.
    """
    q = query if query is not None else plan.query
    report = _Report(where=f"logical plan for {q.name or q}")

    # 1. Leaf coverage: the Match leaves are exactly the query patterns,
    #    each covered by exactly one distinct Match operator (shared
    #    sub-DAGs may reference it from several consumers).
    leaves = [op for op in plan.root.iter_operators() if isinstance(op, Match)]
    leaf_patterns = {m.pattern for m in leaves}
    query_patterns = set(q.patterns)
    report.check(
        leaf_patterns == query_patterns,
        f"leaves {sorted(map(str, leaf_patterns))} do not cover the query "
        f"patterns {sorted(map(str, query_patterns))} exactly",
    )

    levels = _join_levels(plan)

    for level in sorted(levels):
        claimed: dict[str, int] = {}
        for join in levels[level]:
            # 2. n-ary star joins: >= 2 inputs, non-empty key, and every
            #    input agrees on (i.e. produces) all shared attributes.
            #    (A key may include variables that are not query join
            #    variables when two inputs share a sub-DAG — the shared
            #    subtree makes its private variables common to both.)
            report.check(len(join.inputs) >= 2, f"join {join} has < 2 inputs")
            report.check(bool(join.on), f"join {join} has an empty key")
            for v in join.on:
                for child in join.inputs:
                    report.check(
                        v in _op_variables(child),
                        f"join input {child} does not produce shared "
                        f"attribute {v!r} of {join}",
                    )
                # 3. Exactly-once coverage per level: the clique
                #    decomposition assigns each variable to at most one
                #    clique per reduction step, so two joins of the same
                #    level must never both resolve the same variable.
                previous = claimed.setdefault(v, id(join))
                report.check(
                    previous == id(join),
                    f"variable {v!r} is covered by two joins at level {level}",
                )

    # 4. Projections drop only dead variables: anything a projection
    #    removes must be needed neither by the distinguished variables
    #    nor by any join evaluated above the projection.
    _check_projections(plan, q, report)

    # 5. Flatness: a plan over n patterns has at most n - 1 join levels
    #    (each level strictly reduces the number of unjoined components).
    n = len(q.patterns)
    h = height(plan)
    report.check(
        h <= max(0, n - 1),
        f"height {h} exceeds the structural bound {max(0, n - 1)} "
        f"for {n} patterns",
    )

    report.raise_if_failed()


def _check_projections(
    plan: LogicalPlan, query: BGPQuery, report: _Report
) -> None:
    needed_above: dict[int, set[str]] = {}

    def walk(op: LogicalOperator, needed: set[str]) -> None:
        prior = needed_above.get(id(op))
        if prior is not None and needed <= prior:
            return  # already walked with a superset of requirements
        merged = set(needed) | (prior or set())
        needed_above[id(op)] = merged
        if isinstance(op, Project):
            dropped = _op_variables(op.child) - set(op.on)
            live = dropped & merged
            report.check(
                not live,
                f"projection {op.on} drops live variable(s) "
                f"{sorted(live)} still needed above",
            )
        child_needed = set(merged)
        if isinstance(op, Join):
            child_needed |= set(op.on)
        for child in op.children:
            walk(child, child_needed)

    walk(plan.root, set(query.distinguished))


def check_plan_space(
    query: BGPQuery,
    result: "OptimizerResult",
    *,
    optimal: int | None = None,
    check_each: bool = False,
    timeout_s: float | None = 100.0,
) -> int:
    """Verify the HO-partial guarantee on an optimizer result.

    The retained plan set must contain at least one plan of the query's
    optimal height (Theorem 4.3) — in particular, ``max_plans``
    truncation must never drop *every* height-optimal plan.  Returns the
    optimal height.  With ``check_each`` every retained plan is also run
    through :func:`check_logical_plan` (the corpus sweep does this; the
    runtime hook skips it for cost).
    """
    report = _Report(where=f"plan space of {query.name or query}")
    if not result.plans:
        raise PlanInvariantError(report.where, ["optimizer produced no plan"])
    opt = optimal if optimal is not None else optimal_height(query, timeout_s=timeout_s)
    heights = [height(p) for p in result.plans]
    report.check(
        min(heights) == opt,
        f"retained plans have min height {min(heights)} but the optimal "
        f"height is {opt} (every height-optimal plan was dropped)",
    )
    bound = max(0, len(query.patterns) - 1)
    report.check(
        max(heights) <= bound,
        f"max plan height {max(heights)} exceeds the structural bound {bound}",
    )
    report.raise_if_failed()
    if check_each:
        for p in result.plans:
            check_logical_plan(p, query)
    return opt


def _pareto_front(plans: "list[LogicalPlan]", coster: "PlanCoster") -> dict[int, float]:
    """height -> cost of the non-dominated plans (shorter or cheaper than
    every other plan)."""
    cheapest: dict[int, float] = {}
    memo: dict = {}  # plans of one search share operator objects
    for plan in plans:
        h, cost = height(plan), coster.cost(plan, memo)
        if cost < cheapest.get(h, float("inf")):
            cheapest[h] = cost
    front: dict[int, float] = {}
    best = float("inf")
    for h in sorted(cheapest):
        if cheapest[h] < best:
            best = front[h] = cheapest[h]
    return front


def check_bounded_search(
    query: BGPQuery, exhaustive: "OptimizerResult", coster: "PlanCoster"
) -> "OptimizerResult":
    """Verify the cost-bounded search against an exhaustive enumeration.

    The bound must only ever cut plans that a retained plan dominates:
    the plan selected from the bounded search equals (signature and cost)
    the one selected from *exhaustive*, and the (height, cost) Pareto
    front of both spaces is the same — so a height-optimal plan survives
    too.  Returns the bounded result.
    """
    from repro.core.algorithm import cost_bounded_search
    from repro.cost.model import select_best_plan

    report = _Report(where=f"bounded search of {query.name or query}")
    bounded = cost_bounded_search(
        query, coster, exhaustive.option, max_plans=None, timeout_s=None
    )
    if bool(bounded.plans) != bool(exhaustive.plans):
        raise PlanInvariantError(
            report.where,
            [f"{len(bounded.plans)} plans retained of {len(exhaustive.plans)}"],
        )
    if not exhaustive.plans:
        return bounded
    want, want_cost = select_best_plan(exhaustive.unique_plans(), coster)
    got, got_cost = select_best_plan(bounded.unique_plans(), coster)
    report.check(
        got.signature() == want.signature(),
        f"bounded search selects {got} but the exhaustive one {want}",
    )
    report.check(
        got_cost == want_cost,
        f"selected cost {got_cost} differs from the exhaustive {want_cost}",
    )
    kept = {p.signature() for p in bounded.plans}
    report.check(
        kept <= {p.signature() for p in exhaustive.plans},
        "bounded search produced a plan outside the exhaustive space",
    )
    want_front = _pareto_front(exhaustive.plans, coster)
    got_front = _pareto_front(bounded.plans, coster)
    report.check(
        got_front == want_front,
        f"(height, cost) front {got_front} differs from the exhaustive {want_front}",
    )
    report.raise_if_failed()
    return bounded


# -- physical plans --------------------------------------------------------


def _physical_attrs(op: PhysicalOperator, report: _Report) -> tuple[str, ...]:
    """Recompute output attributes bottom-up, cross-checking ``op.attrs``."""
    if isinstance(op, MapScan):
        computed: tuple[str, ...] = op.pattern.variables()
    elif isinstance(op, (Filter, PhysProject)):
        child = _physical_attrs(op.children[0], report)
        computed = op.on if isinstance(op, PhysProject) else child
        if isinstance(op, PhysProject):
            missing = set(op.on) - set(child)
            report.check(
                not missing,
                f"projection {op.on} keeps attribute(s) {sorted(missing)} "
                "its child does not produce",
            )
    elif isinstance(op, MapShuffler):
        computed = op.source_attrs
    elif isinstance(op, (MapJoin, ReduceJoin)):
        seen: list[str] = []
        for child in op.inputs:
            for a in _physical_attrs(child, report):
                if a not in seen:
                    seen.append(a)
        computed = tuple(seen)
    else:  # pragma: no cover - future operator types
        report.check(False, f"unknown physical operator {type(op).__name__}")
        return op.attrs
    report.check(
        set(computed) == set(op.attrs),
        f"{op} advertises attrs {op.attrs} but its inputs produce {computed}",
    )
    return computed


def _is_map_side_chain(op: PhysicalOperator) -> bool:
    """True iff *op* is a pure map-side chain (no reduce join inside)."""
    if isinstance(op, ReduceJoin):
        return False
    return all(_is_map_side_chain(c) for c in op.children)


def check_physical_plan(
    plan: "PhysicalPlan", query: BGPQuery | None = None
) -> None:
    """Verify the §5.2 translation invariants of one physical plan."""
    report = _Report(where="physical plan")
    producers = {rj.output_name: rj for rj in plan.reduce_joins}
    report.check(
        len(producers) == len(plan.reduce_joins),
        "duplicate reduce-join output names",
    )

    for op in plan.operators():
        if isinstance(op, (MapJoin, ReduceJoin)):
            report.check(len(op.inputs) >= 2, f"join {op} has < 2 inputs")
            report.check(bool(op.on), f"join {op} has an empty key")
            for child in op.inputs:
                missing = set(op.on) - set(child.attrs)
                report.check(
                    not missing,
                    f"input {child} of {op} lacks join attribute(s) "
                    f"{sorted(missing)}",
                )
        if isinstance(op, MapJoin):
            # Map joins are first-level, co-located: every input must be
            # a map-side chain over base scans (no shufflers: a shuffled
            # input means a prior job, hence a reduce join).
            for child in op.inputs:
                ok = _is_map_side_chain(child) and not any(
                    isinstance(o, MapShuffler)
                    for o in _chain_operators(child)
                )
                report.check(
                    ok,
                    f"map join {op} consumes non-co-located input {child}",
                )
        if isinstance(op, ReduceJoin):
            for child in op.inputs:
                report.check(
                    not isinstance(child, ReduceJoin),
                    f"reduce join {op} consumes reduce join {child} "
                    "directly (a shuffler must sit between jobs)",
                )
        if isinstance(op, MapShuffler):
            report.check(
                op.source in producers,
                f"shuffler {op} reads {op.source!r} which no reduce join "
                "produces",
            )
            if op.source in producers:
                produced = set(producers[op.source].attrs)
                report.check(
                    set(op.source_attrs) <= produced,
                    f"shuffler {op} advertises attrs not produced by "
                    f"{op.source!r}",
                )

    _physical_attrs(plan.root, report)

    if query is not None:
        report.check(
            isinstance(plan.root, PhysProject),
            "plan root is not a projection",
        )
        report.check(
            set(plan.root.attrs) == set(query.distinguished),
            f"root projects {plan.root.attrs} instead of the "
            f"distinguished variables {query.distinguished}",
        )
    report.raise_if_failed()


def _chain_operators(op: PhysicalOperator) -> list[PhysicalOperator]:
    out = [op]
    for child in op.children:
        out.extend(_chain_operators(child))
    return out


# -- compiled job DAGs -----------------------------------------------------


def check_compiled_plan(
    compiled: "CompiledPlan",
    physical: "PhysicalPlan",
    plan: LogicalPlan | None = None,
) -> None:
    """Verify the §5.3 job-DAG invariants of one compiled plan."""
    report = _Report(where="compiled plan")
    by_name = {job.name: job for job in compiled.jobs}
    report.check(len(by_name) == len(compiled.jobs), "duplicate job names")

    # One job per reduce join, plus a single map-only job for flat plans.
    rj_jobs = [j for j in compiled.jobs if j.reduce_join is not None]
    report.check(
        len(rj_jobs) == len(physical.reduce_joins),
        f"{len(physical.reduce_joins)} reduce joins but {len(rj_jobs)} "
        "reduce jobs",
    )
    if not physical.reduce_joins:
        report.check(
            len(compiled.jobs) == 1 and compiled.jobs[0].map_only,
            "plan without reduce joins must compile to one map-only job",
        )

    terminals = [j for j in compiled.jobs if j.output_name == "result"]
    report.check(len(terminals) == 1, "expected exactly one terminal job")

    for job in compiled.jobs:
        for dep in job.depends:
            report.check(
                dep in by_name, f"job {job.name} depends on unknown {dep!r}"
            )

    # Dependency depth == reduce-join nesting depth: the job DAG adds no
    # extra synchronization levels beyond what the plan's shape forces.
    def job_depth(job: "JobSpec", seen: tuple = ()) -> int:
        if job.name in seen:
            report.check(False, f"dependency cycle through {job.name}")
            return 0
        deps = [by_name[d] for d in job.depends if d in by_name]
        return 1 + max((job_depth(d, (*seen, job.name)) for d in deps), default=0)

    depth = max((job_depth(j) for j in compiled.jobs), default=0)
    rj_by_name = {rj.output_name: rj for rj in physical.reduce_joins}

    def rj_depth(rj: ReduceJoin, seen: tuple = ()) -> int:
        if rj.output_name in seen:
            return 0
        inner = 0
        for child in rj.inputs:
            source = getattr(child, "source", None)
            if source in rj_by_name:
                inner = max(
                    inner, rj_depth(rj_by_name[source], (*seen, rj.output_name))
                )
        return inner + 1

    expected = max((rj_depth(rj) for rj in physical.reduce_joins), default=1)
    report.check(
        depth == expected,
        f"job DAG depth {depth} != reduce-join nesting depth {expected}",
    )

    if plan is not None:
        # Levels consistent with the plan height: first-level joins may
        # collapse into map tasks, everything else costs one job level.
        h = height(plan)
        report.check(
            max(1, h - 1) <= depth <= max(1, h),
            f"job DAG depth {depth} inconsistent with plan height {h}",
        )
    report.raise_if_failed()


# -- level programs --------------------------------------------------------


def check_level_program(program: "LevelProgram", compiled: "CompiledPlan") -> None:
    """Verify a level program against the job DAG it was compiled from.

    Its levels are the topological levels of ``compiled.jobs``: every
    job placed exactly once, one level after its last dependency (its
    invocations stamped with that level).  Each level's map batch is its
    jobs' map invocations in job order, its reduce layout one task per
    job partition, and both stored task groupings are what
    :func:`~repro.columnar.engine.task_groups` makes of them.
    """
    from repro.columnar.engine import task_groups

    report = _Report(where="level program")
    specs = {job.name: job for job in compiled.jobs}
    placed = [job.name for level in program.levels for job in level.jobs]
    report.check(
        sorted(placed) == sorted(specs),
        f"program places jobs {sorted(placed)}, the plan has {sorted(specs)}",
    )
    level_of: dict[str, int] = {}
    for index, level in enumerate(program.levels):
        for job in level.jobs:
            level_of.setdefault(job.name, index)
    report.check(
        program.final_attrs == compiled.final_attrs,
        f"final attrs {program.final_attrs} != {compiled.final_attrs}",
    )
    for index, level in enumerate(program.levels):
        for job in level.jobs:
            spec = specs.get(job.name)
            if spec is None:
                continue
            deps = [level_of.get(dep, -1) for dep in spec.depends]
            want = 1 + max(deps, default=-1)
            report.check(
                index == want and -1 not in deps,
                f"job {job.name} runs at level {index}, its topological level "
                f"is {want}" + (" (a dependency never runs)" if -1 in deps else ""),
            )
        maps = level.maps.invocations
        expected = [inv for job in level.jobs for inv in job.maps]
        report.check(
            len(maps) == len(expected) and all(a is b for a, b in zip(maps, expected)),
            f"level {index}: the map batch is not its jobs' map invocations",
        )
        report.check(
            all(inv.level == index for inv in maps),
            f"level {index}: a map invocation is stamped with another level",
        )
        report.check(
            level.maps.groups == task_groups([inv.spec for inv in maps]),
            f"level {index}: stored map groups differ from task_groups",
        )
        layout = [
            (position, partition)
            for position, job in enumerate(level.jobs)
            for partition in range(job.num_reducers)
        ]
        report.check(
            list(level.reduces) == layout,
            f"level {index}: reduce layout {level.reduces} != {tuple(layout)}",
        )
        report.check(
            level.reduce_groups
            == task_groups([level.jobs[p].reduce_spec for p, _ in level.reduces]),
            f"level {index}: stored reduce groups differ from task_groups",
        )
    report.raise_if_failed()


# -- runtime hook + corpus sweep -------------------------------------------


def maybe_check(
    plan: LogicalPlan,
    physical: "PhysicalPlan | None" = None,
    compiled: "CompiledPlan | None" = None,
    query: BGPQuery | None = None,
    program: "LevelProgram | None" = None,
) -> None:
    """Run every applicable check iff ``REPRO_CHECK_PLANS=1``.

    This is the hook the executors, the optimizer and a prepared plan
    building its level program call; it is a single env lookup when the
    mode is off.
    """
    if not plans_checked():
        return
    check_logical_plan(plan, query)
    if physical is not None:
        check_physical_plan(physical, query if query is not None else plan.query)
    if physical is not None and compiled is not None:
        check_compiled_plan(compiled, physical, plan)
    if program is not None and compiled is not None:
        check_level_program(program, compiled)


def corpus_coster(queries: "list[BGPQuery]", seed: int) -> "PlanCoster":
    """A §5.4 coster over seeded made-up statistics for every property
    the *queries* mention — skewed enough that plans differ in cost."""
    from repro.cost.cardinality import (
        CardinalityEstimator,
        CatalogStatistics,
        PropertyStats,
    )
    from repro.cost.model import PlanCoster

    rng = random.Random(f"corpus-stats:{seed}")
    stats = CatalogStatistics()
    for prop in sorted({tp.p for q in queries for tp in q.patterns}):
        count = int(10 ** rng.uniform(0.5, 4.5))
        stats.per_property[prop] = PropertyStats(
            count=count,
            distinct_subjects=rng.randint(1, count),
            distinct_objects=rng.randint(1, count),
        )
        stats.triple_count += count
    stats.distinct_properties = len(stats.per_property)
    stats.distinct_subjects = stats.distinct_objects = max(stats.triple_count // 3, 1)
    return PlanCoster(CardinalityEstimator(stats))


def sweep_corpus(
    synthetic: int = 120,
    seed: int = 8612,
    max_patterns: int = 8,
    progress: "Callable[[BGPQuery, int, dict], None] | None" = None,
) -> dict[str, int]:
    """Check every invariant across the LUBM 14 + a synthetic corpus.

    Every query is optimized, its full retained plan space validated
    (:func:`check_plan_space` with per-plan checks), the cost-bounded
    search checked against it (:func:`check_bounded_search`), and the
    selected plan translated + compiled and validated at all three
    levels, with its level program for the default cluster.  Returns
    counters; raises :class:`PlanInvariantError` on the first violating
    query.
    """
    from repro.core.algorithm import cliquesquare
    from repro.core.decomposition import MSC
    from repro.mapreduce.engine import ClusterConfig
    from repro.physical.executor import level_program
    from repro.physical.job_compiler import compile_plan
    from repro.physical.translate import translate
    from repro.workloads.lubm_queries import all_queries
    from repro.workloads.synthetic import SyntheticWorkload

    queries = list(all_queries())
    shapes = SyntheticWorkload(
        queries_per_shape=max(1, (synthetic + 3) // 4),
        max_patterns=max_patterns,
        seed=seed,
    ).generate()
    for batch in shapes.values():
        queries.extend(batch)

    coster = corpus_coster(queries, seed)
    nodes = ClusterConfig().num_nodes
    counters = {"queries": 0, "plans": 0, "retained": 0, "physical": 0, "compiled": 0}
    for query in queries:
        result = cliquesquare(query, MSC, max_plans=None, timeout_s=100.0)
        opt = check_plan_space(query, result, check_each=True)
        counters["plans"] += len(result.plans)
        bounded = check_bounded_search(query, result, coster)
        check_plan_space(query, bounded, optimal=opt)
        counters["retained"] += len(bounded.plans)
        # Validate the full pipeline on a height-optimal plan *and* on
        # the structurally worst retained plan (tallest): both must
        # translate and compile into invariant-respecting job DAGs.
        picks = {
            id(min(result.plans, key=height)): min(result.plans, key=height),
            id(max(result.plans, key=height)): max(result.plans, key=height),
        }
        for pick in picks.values():
            physical = translate(pick)
            check_physical_plan(physical, query)
            compiled = compile_plan(physical)
            check_compiled_plan(compiled, physical, pick)
            check_level_program(level_program(compiled, nodes), compiled)
            counters["physical"] += 1
            counters["compiled"] += 1
        counters["queries"] += 1
        if progress is not None:
            progress(query, opt, counters)
    return counters
