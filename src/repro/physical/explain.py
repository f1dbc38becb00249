"""Plan explainer: render logical plans, physical plans and MapReduce
job groupings as text — the repo's version of the paper's Fig. 15.

``explain(plan)`` shows all three layers for a logical plan::

    == logical plan (height 2) ==
    pi[p,s](J_p(...))
    == physical plan ==
    pi[p,s]
      RJ_p
        MJ_d
          MS[ub:worksFor-O]
          ...
    == MapReduce jobs (2) ==
    job-rj1 [map+reduce]
      map:  MS[...] ... MJ_d(...)
      reduce: RJ_p -> rj1
"""

from __future__ import annotations

from typing import Sequence

from repro.core.logical import LogicalPlan
from repro.core.properties import height
from repro.physical.job_compiler import CompiledPlan, compile_plan
from repro.physical.operators import PhysicalOperator
from repro.physical.translate import PhysicalPlan, translate


def _tree_lines(op: PhysicalOperator, depth: int = 0) -> list[str]:
    label = type(op).__name__
    detail = str(op)
    if op.children:
        # show only the operator head, children rendered below
        head = detail.split("(", 1)[0]
        lines = [f"{'  ' * depth}{head}  [{', '.join(a.lstrip('?') for a in op.attrs)}]"]
        for child in op.children:
            lines.extend(_tree_lines(child, depth + 1))
        return lines
    return [f"{'  ' * depth}{detail}"]


def render_physical(plan: PhysicalPlan) -> str:
    """Indented tree rendering of a physical plan."""
    return "\n".join(_tree_lines(plan.root))


def render_jobs(compiled: CompiledPlan) -> str:
    """One block per MapReduce job, §5.3-style."""
    lines: list[str] = []
    for spec in compiled.jobs:
        kind = "map-only" if spec.map_only else "map+reduce"
        deps = f"  (after {', '.join(spec.depends)})" if spec.depends else ""
        lines.append(f"{spec.name} [{kind}]{deps}")
        for chain in spec.map_chains:
            lines.append(f"  map:    {chain}")
        if spec.reduce_join is not None:
            rj = spec.reduce_join
            on = ",".join(a.lstrip("?") for a in rj.on)
            lines.append(f"  reduce: RJ_{on} -> {spec.output_name}")
        if spec.project is not None:
            on = ",".join(a.lstrip("?") for a in spec.project)
            lines.append(f"  output: pi[{on}]")
    return "\n".join(lines)


def render_shard_distribution(
    compiled: CompiledPlan,
    shard_map: Sequence[int],
    shard_triples: Sequence[int] | None = None,
) -> str:
    """Per-shard task/data distribution of a compiled plan.

    ``shard_map[n]`` is the shard owning logical node *n* (the sharded
    store's ``node_shards``); ``shard_triples`` the stored-triple count
    per shard.  Shows, per shard, the nodes it owns, how many of the
    plan's map tasks and reduce partitions land on it, and how much of
    the store it holds — the pre-execution view of where a sharded
    query's work will run.
    """
    num_nodes = len(shard_map)
    num_shards = max(shard_map) + 1 if shard_map else 1
    lines = [f"== shard distribution ({num_shards} shards over {num_nodes} nodes) =="]
    for shard in range(num_shards):
        nodes = [n for n in range(num_nodes) if shard_map[n] == shard]
        map_tasks = sum(
            len(spec.map_chains) * len(nodes) for spec in compiled.jobs
        )
        reduce_parts = sum(
            sum(1 for p in range(num_nodes) if shard_map[p % num_nodes] == shard)
            for spec in compiled.jobs
            if not spec.map_only
        )
        line = (
            f"shard {shard}: nodes {','.join(map(str, nodes)) or '-'} | "
            f"{map_tasks} map tasks, {reduce_parts} reduce partitions"
        )
        if shard_triples is not None:
            line += f" | {shard_triples[shard]} stored triples"
        lines.append(line)
    return "\n".join(lines)


def explain(
    plan: LogicalPlan,
    replicas: tuple[str, ...] = ("s", "p", "o"),
    backend: str = "serial",
    template: str | None = None,
    shard_map: Sequence[int] | None = None,
    shard_triples: Sequence[int] | None = None,
    transport: str | None = None,
    rows: str | None = None,
    wire: str | None = None,
    wire_bytes: int | None = None,
) -> str:
    """Full three-layer explanation of a logical plan.

    ``backend`` names the execution backend the jobs would run on
    (serial / thread / process / columnar); it changes wall-clock only,
    never the job structure or answers, and is surfaced here so an
    EXPLAIN of a service-configured query shows where its tasks will
    execute.  ``rows`` names the in-flight row representation the
    backend evaluates ("tuple" term-tuples or "columnar"
    dictionary-encoded id blocks).  ``template`` is the
    template-signature digest of a prepared query, shown so an EXPLAIN
    identifies which plan-template cache entry the query binds into.
    ``shard_map``/``shard_triples`` (set when a sharded store is
    active) append the per-shard row/task distribution; ``transport``
    names the shard boundary ("inproc" workers in the driver process or
    "rpc" shard server processes) the tasks would cross, ``wire`` the row encoding of the
    rpc frames ("columnar" id buffers in the store's numbering, or "pickle"),
    and ``wire_bytes`` the encoded request bytes the service last
    measured shipping over that wire — so benchmark tables and explains
    agree on what was measured.
    """
    physical = translate(plan, replicas=replicas)
    compiled = compile_plan(physical)
    header = f"== logical plan (height {height(plan)}"
    if template is not None:
        header += f"; template {template}"
    header += ") =="
    jobs_header = (
        f"== MapReduce jobs ({compiled.num_jobs}; signature "
        f"{compiled.job_signature()}; backend {backend}"
    )
    if rows is not None:
        jobs_header += f"; rows {rows}"
    if transport is not None:
        jobs_header += f"; transport {transport}"
    if wire is not None:
        jobs_header += f"; wire {wire}"
        if wire_bytes is not None:
            jobs_header += f" ({wire_bytes} B last shipped)"
    jobs_header += ") =="
    parts = [
        header,
        str(plan),
        "== physical plan ==",
        render_physical(physical),
        jobs_header,
        render_jobs(compiled),
    ]
    if shard_map is not None:
        parts.append(
            render_shard_distribution(compiled, shard_map, shard_triples)
        )
    return "\n".join(parts)


__all__ = [
    "explain",
    "render_physical",
    "render_jobs",
    "render_shard_distribution",
]
