"""The traced run: per-layer numbers for one workload.

Three parts, all driven through public functions of ``repro``:

1. the workload at a fifth of its size, once untraced and once with
   ``ServiceConfig(tracing=True)`` plus the benchmark's own spans — the
   difference is the tracing overhead, the counters and span trees the
   program publishes give the service/obs/cluster numbers;
2. a hand-walk of every distinct query through the pipeline the service
   runs (parse, canonicalize, cliquesquare, select, prepare, execute)
   with a span around each call and a timing proxy around the backend;
3. probes of the layers no single op isolates (wire codec, id-space
   kernels, every execution backend, shard/rpc deployment cells, store
   and service mutation), on the workload's own graph and queries.
"""

from __future__ import annotations

import pickle
import statistics
import threading
import time
from typing import Callable, Sequence

from repro import (
    CardinalityEstimator,
    CatalogStatistics,
    ClusterConfig,
    PlanCoster,
    PlanExecutor,
    QueryOutcome,
    QueryService,
    RDFGraph,
    SerialBackend,
    ServiceConfig,
    ShardedPlanExecutor,
    cliquesquare,
    extract_template,
    height,
    parse_query,
    partition_graph,
    select_best_plan,
    shard_graph,
)
from repro.columnar import to_blocks
from repro.columnar.block import make_column
from repro.columnar.kernels import (
    HashMemo,
    select_bind,
    shuffle_partitions,
    star_join_blocks,
)
from repro.columnar.wire import WireCodec, pack_rows, unpack_rows
from repro.mapreduce.backends import BACKEND_NAMES, ExecutionBackend
from repro.rdf.dictionary import Dictionary
from repro.relational.relation import Relation
from repro.sparql.canonical import CanonicalizationBudgetExceeded

from benchmarks.ledger.measure import SpanLog, class_medians, percentile, summarize
from benchmarks.ledger.workloads import Checker, Workload

#: Share of the workload the traced pass runs.
TRACED_SHARE = 0.2

#: Hand-walk stages an op of each kind pays (see ``Workload.op_kind``).
STAGES = {
    "warm": ("sparql.parse", "sparql.canonicalize", "physical.execute"),
    "cold": (
        "sparql.parse",
        "sparql.canonicalize",
        "core.cliquesquare",
        "cost.select",
        "physical.prepare",
        "physical.execute",
    ),
}


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class TimingBackend(ExecutionBackend):
    """Delegates to a real backend, splitting ``run`` time into map and
    reduce invocations and summing the task counters on the way."""

    def __init__(self, inner: ExecutionBackend, log: SpanLog) -> None:
        self.inner = inner
        self.name = inner.name
        self.log = log
        self.reset()

    def reset(self) -> None:
        self.counts = dict.fromkeys(
            ("map_tasks", "reduce_tasks", "tuples_read", "tuples_shuffled", "join_tuples"), 0
        )

    def run(self, invocations, ctx):
        phase = "reduce" if invocations and invocations[0].args else "map"
        with self.log.span(f"mapreduce.{phase}", tasks=len(invocations)):
            results = self.inner.run(invocations, ctx)
        counts = self.counts
        counts[f"{phase}_tasks"] += len(results)
        for result in results:
            metrics = result[-1]
            counts["tuples_read"] += metrics.tuples_read
            counts["tuples_shuffled"] += metrics.tuples_shuffled
            counts["join_tuples"] += metrics.join_tuples
        return results


# -- part 2: the hand-walk ----------------------------------------------------------


class HandWalk:
    """Every distinct query walked through the pipeline by hand."""

    def __init__(self, triples: list, queries: list[tuple[str, str]], log: SpanLog) -> None:
        self.cfg = ServiceConfig()
        self.graph = RDFGraph(triples)
        self.queries = queries
        self.log = log
        started = time.perf_counter()
        self.store = partition_graph(self.graph, self.cfg.num_nodes)
        self.partition_s = time.perf_counter() - started
        self.cluster = ClusterConfig(num_nodes=self.cfg.num_nodes)
        self.plans: list = []
        self.prepared: list = []
        self.rows: list[set] = []
        self.budget_exceeded = 0
        #: per query: stage name -> median seconds over repetitions
        self.stage_s: list[dict[str, float]] = []
        #: per query: counter name -> value (identical on every repetition)
        self.counts: list[dict[str, int]] = []

    def walk(self, reps: int) -> None:
        cfg = self.cfg
        coster = PlanCoster(
            CardinalityEstimator(CatalogStatistics.from_graph(self.graph)), cfg.params
        )
        backend = TimingBackend(SerialBackend(), self.log)
        executor = PlanExecutor(self.store, self.cluster, cfg.params, backend=backend)
        span = self.log.span
        for index, (cls, text) in enumerate(self.queries):
            for rep in range(reps):
                backend.reset()
                with span("handwalk", op=f"walk:{index}:{rep}", cls=cls):
                    with span("sparql.parse"):
                        parsed = parse_query(text)
                    query = parsed
                    with span("sparql.canonicalize"):
                        try:
                            template = extract_template(
                                parsed,
                                cfg.canonical_budget,
                                lift_constants=cfg.enable_templates,
                            )
                            query = template.bind_canonical(
                                template.check_values(template.default_values())
                            )
                        except CanonicalizationBudgetExceeded:
                            self.budget_exceeded += rep == 0
                    with span("core.cliquesquare"):
                        result = cliquesquare(
                            query, cfg.option, max_plans=cfg.max_plans, timeout_s=cfg.timeout_s
                        )
                        unique = result.unique_plans()
                    with span("cost.select"):
                        best, _cost = select_best_plan(unique, coster)
                    with span("physical.prepare"):
                        prepared = executor.prepare(best)
                    with span("physical.execute"):
                        executed = executor.execute_prepared(prepared)
            self.plans.append(best)
            self.prepared.append(prepared)
            self.rows.append(executed.rows)
            self.counts.append(
                {
                    **backend.counts,
                    "plans_enumerated": result.plan_count,
                    "plans_costed": len(unique),
                    "plan_height": height(best),
                    "jobs": len(prepared.compiled.jobs),
                    "levels": len(executed.report.levels),
                }
            )
        executor.close()
        self._fold_spans(reps)

    def _fold_spans(self, reps: int) -> None:
        """Per query and stage, the median over repetitions of the
        stage's self time (its span minus its child spans)."""
        own = self.log.self_times()
        per_op: dict[str, dict[str, float]] = {}
        for record in self.log.spans:
            op = record["op"]
            if isinstance(op, str) and op.startswith("walk:") and record["name"] != "handwalk":
                stages = per_op.setdefault(op, {})
                stages[record["name"]] = stages.get(record["name"], 0.0) + own[record["id"]]
        for index in range(len(self.queries)):
            walks = [per_op[f"walk:{index}:{rep}"] for rep in range(reps)]
            names = {name for stages in walks for name in stages}
            self.stage_s.append(
                {
                    name: statistics.median(stages.get(name, 0.0) for stages in walks)
                    for name in names
                }
            )

    def stage_mean(self, name: str) -> float:
        """Seconds per op spent in *name*, averaged over the queries."""
        return mean([stages.get(name, 0.0) for stages in self.stage_s])

    def count_mean(self, name: str) -> float:
        return mean([counts[name] for counts in self.counts])

    def op_seconds(self, kind: str) -> list[float]:
        """Per query, the hand-walked time of one op of *kind*: the
        stages it pays plus the map/reduce time inside execute."""
        names = STAGES[kind] + ("mapreduce.map", "mapreduce.reduce")
        return [sum(stages.get(n, 0.0) for n in names) for stages in self.stage_s]

    def metrics(self) -> dict[str, float]:
        optimize = [stages.get("core.cliquesquare", 0.0) for stages in self.stage_s]
        triples = len(self.graph)
        return {
            "sparql.parse_us": 1e6 * self.stage_mean("sparql.parse"),
            "sparql.canonicalize_us": 1e6 * self.stage_mean("sparql.canonicalize"),
            "sparql.budget_exceeded": self.budget_exceeded,
            "core.optimize_ms": 1e3 * mean(optimize),
            "core.optimize_p95_ms": 1e3 * percentile(optimize, 95),
            "core.plans_enumerated": self.count_mean("plans_enumerated"),
            "core.plan_height": self.count_mean("plan_height"),
            "cost.select_ms": 1e3 * self.stage_mean("cost.select"),
            "cost.plans_costed": self.count_mean("plans_costed"),
            "physical.prepare_ms": 1e3 * self.stage_mean("physical.prepare"),
            "physical.jobs": self.count_mean("jobs"),
            "physical.levels": self.count_mean("levels"),
            "mapreduce.map_ms": 1e3 * self.stage_mean("mapreduce.map"),
            "mapreduce.reduce_ms": 1e3 * self.stage_mean("mapreduce.reduce"),
            "mapreduce.driver_ms": 1e3 * self.stage_mean("physical.execute"),
            "mapreduce.map_tasks": self.count_mean("map_tasks"),
            "mapreduce.reduce_tasks": self.count_mean("reduce_tasks"),
            "mapreduce.tuples_read": self.count_mean("tuples_read"),
            "mapreduce.tuples_shuffled": self.count_mean("tuples_shuffled"),
            "relational.join_tuples": self.count_mean("join_tuples"),
            "partitioning.partition_s": self.partition_s,
            "partitioning.triples_per_s": triples / self.partition_s,
            "partitioning.replication": self.store.total_stored() / triples,
            "rdf.graph_triples": triples,
        }


# -- part 3: layer probes -------------------------------------------------------------


def median_of(fn: Callable[[], object], reps: int = 5) -> tuple[float, object]:
    """Median seconds of *reps* calls of *fn*, and its last result."""
    times = []
    result = None
    for _ in range(reps):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


def probe_wire(walk: HandWalk, checker: Checker) -> dict[str, float]:
    """``pack_rows``/``unpack_rows`` against a ``WireCodec``'s
    dictionaries, over every query's result rows."""
    codec = WireCodec(walk.store.snapshot())
    encode_s = decode_s = 0.0
    rows_total = packed_bytes = pickled_bytes = 0
    for rows in walk.rows:
        rows = sorted(rows)
        if not rows:
            continue
        seconds, packed = median_of(lambda: pack_rows(rows, codec.send.encode), 3)
        encode_s += seconds
        seconds, back = median_of(lambda: unpack_rows(packed, codec.recv.decode), 3)
        decode_s += seconds
        if back != rows:
            checker.fail(f"wire round trip changed {len(rows)} rows")
        rows_total += len(rows)
        packed_bytes += len(pickle.dumps(packed, pickle.HIGHEST_PROTOCOL))
        pickled_bytes += len(pickle.dumps(rows, pickle.HIGHEST_PROTOCOL))
    rows_total = max(rows_total, 1)
    return {
        "columnar.wire.encode_us_per_krow": 1e9 * encode_s / rows_total,
        "columnar.wire.decode_us_per_krow": 1e9 * decode_s / rows_total,
        "columnar.wire.bytes_per_row": packed_bytes / rows_total,
        "columnar.wire.pickle_bytes_per_row": pickled_bytes / rows_total,
    }


def probe_kernels(graph: RDFGraph) -> dict[str, float]:
    """The three id-space kernels over blocks built with ``to_blocks``
    from the graph's two largest property files."""
    first, second = sorted(graph.properties, key=graph.count_property, reverse=True)[:2]
    dictionary = Dictionary()
    left = to_blocks(
        Relation(("?x", "?y"), [(s, o) for s, _p, o in graph.match(p=first)]), dictionary
    )
    right = to_blocks(
        Relation(("?x", "?z"), [(s, o) for s, _p, o in graph.match(p=second)]), dictionary
    )
    triples = [t for prop in (first, second) for t in graph.match(p=prop)]
    columns = tuple(
        make_column(dictionary.encode(triple[position]) for triple in triples)
        for position in range(3)
    )
    memo = HashMemo(dictionary)
    star_s, _ = median_of(lambda: star_join_blocks([left, right], on=("?x",)))
    shuffle_s, _ = median_of(lambda: shuffle_partitions(left, ("?x",), 7, memo))
    select_s, _ = median_of(
        lambda: select_bind(columns, [(1, dictionary.lookup(first))], [(0,), (2,)])
    )
    return {
        "columnar.kernels.star_join_ms": 1e3 * star_s,
        "columnar.kernels.shuffle_ms": 1e3 * shuffle_s,
        "columnar.kernels.select_bind_ms": 1e3 * select_s,
    }


def time_passes(
    execute: Callable[[object], object], prepared: list, passes: int
) -> tuple[float, list[float]]:
    """One warm-up pass, then *passes* timed ones: the median pass time
    and the per-query median time, both in seconds."""
    for plan in prepared:
        execute(plan)
    pass_s = []
    per_query: list[list[float]] = [[] for _ in prepared]
    for _ in range(passes):
        started = time.perf_counter()
        for index, plan in enumerate(prepared):
            t0 = time.perf_counter()
            execute(plan)
            per_query[index].append(time.perf_counter() - t0)
        pass_s.append(time.perf_counter() - started)
    return statistics.median(pass_s), [statistics.median(v) for v in per_query]


def probe_backends(walk: HandWalk, passes: int) -> tuple[dict[str, float], list[float]]:
    """One cell per name in ``BACKEND_NAMES`` (read at run time, so a
    deleted backend drops its cell): a warm pass of the prepared plans.
    Also returns the serial per-query times, the unsharded baseline."""
    out = {}
    serial: list[float] = []
    for name in BACKEND_NAMES:
        executor = PlanExecutor(walk.store, walk.cluster, walk.cfg.params, backend=name)
        try:
            executor.prime()
            pass_s, per_query = time_passes(executor.execute_prepared, walk.prepared, passes)
        finally:
            executor.close()
        out[f"mapreduce.backend.{name}.pass_ms"] = 1e3 * pass_s
        if name == "serial":
            serial = per_query
    return out, serial


def concurrent_qps(executor: ShardedPlanExecutor, prepared: list, passes: int) -> float:
    """Ops per second with 2 closed-loop clients over the prepared plans
    (the second walks them in reverse, so levels of different queries
    meet at the shards)."""
    orders = [prepared, prepared[::-1]]

    def client(order: list) -> None:
        for _ in range(passes):
            for plan in order:
                executor.execute_prepared(plan)

    threads = [threading.Thread(target=client, args=(order,)) for order in orders]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return len(orders) * passes * len(prepared) / (time.perf_counter() - started)


def probe_cluster(
    walk: HandWalk, triples: list, baseline: list[float], passes: int, queries: int
) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Deployment cells over the first *queries* chosen plans: 2 shards
    in-process vs unsharded, rpc vs in-process, and the rpc modes.  Also
    returns the per-query seconds behind the two overheads."""
    cfg = walk.cfg
    plans = walk.plans[:queries]
    baseline = baseline[:queries]
    out: dict[str, float] = {}

    def deploy(**options):
        started = time.perf_counter()
        store = shard_graph(triples, cfg.num_nodes, 2)
        executor = ShardedPlanExecutor(store, walk.cluster, cfg.params, **options)
        executor.prime()
        seconds = time.perf_counter() - started
        prepared = [executor.prepare(plan) for plan in plans]
        for plan in prepared:
            executor.register_template(plan)
        return executor, prepared, seconds

    executor, prepared, _ = deploy(transport="inproc")
    try:
        _, inproc = time_passes(executor.execute_prepared, prepared, passes)
    finally:
        executor.close()
    out["cluster.shard.overhead_ms"] = 1e3 * mean([a - b for a, b in zip(inproc, baseline)])

    executor, prepared, out["cluster.rpc.spawn_s"] = deploy(transport="rpc")
    try:
        _, rpc = time_passes(executor.execute_prepared, prepared, passes)
        out["cluster.rpc.mode.default.qps"] = concurrent_qps(executor, prepared, passes)
    finally:
        executor.close()
    out["cluster.rpc.overhead_ms"] = 1e3 * mean([a - b for a, b in zip(rpc, inproc)])

    modes = {
        "serial_conn": {"rpc_pipeline": 0},
        "coalesced": {"rpc_pipeline": 8, "coalesce_window_ms": 2.0, "coalesce_max_batch": 8},
    }
    for mode, options in modes.items():
        executor, prepared, _ = deploy(transport="rpc", **options)
        try:
            for plan in prepared:
                executor.execute_prepared(plan)
            out[f"cluster.rpc.mode.{mode}.qps"] = concurrent_qps(executor, prepared, passes)
        finally:
            executor.close()

    executor, prepared, _ = deploy(transport="rpc", wire_format="pickle")
    try:
        for plan in prepared:
            executor.execute_prepared(plan)
        shipped = [sum(executor.execute_prepared(plan).shard_bytes) for plan in prepared]
    finally:
        executor.close()
    out["cluster.rpc.wire.pickle.bytes_per_query"] = mean(shipped)
    return out, {"unsharded_s": baseline, "inproc_s": inproc, "rpc_s": rpc}


def probe_mutation(triples: list, queries: list[tuple[str, str]]) -> dict[str, float]:
    """A default-config service on the workload's graph: the cost of
    late binding on a cold submit, of a result-cache hit, of
    ``add_triples`` (5 batches of 15 new triples) and of
    ``PartitionedStore.add`` alone."""
    fresh = [
        (f"<LedgerProbe{i}>", p, o) for i, (_s, p, o) in enumerate(triples[:275])
    ]
    with QueryService(RDFGraph(triples)) as service:
        binds, hits = [], []
        for _cls, text in queries:
            binds.append(service.submit(text).timings.bind_s)
            started = time.perf_counter()
            outcome = service.submit(text)
            if outcome.result_cache_hit:
                hits.append(time.perf_counter() - started)
        adds = []
        for batch in range(5):
            started = time.perf_counter()
            service.add_triples(fresh[15 * batch : 15 * batch + 15])
            adds.append(time.perf_counter() - started)
    store = partition_graph(RDFGraph(triples), ServiceConfig().num_nodes)
    started = time.perf_counter()
    for triple in fresh[75:]:
        store.add(triple)
    store_add_s = (time.perf_counter() - started) / len(fresh[75:])
    return {
        "service.bind_us": 1e6 * statistics.median(binds),
        "service.result_hit_us": 1e6 * statistics.median(hits),
        "service.add_triples_ms": 1e3 * statistics.median(adds),
        "partitioning.store_add_us": 1e6 * store_add_s,
    }


# -- part 1: the traced pass ------------------------------------------------------------


def class_mean(records: list[dict], key: str) -> float:
    """Mean over query classes of the class median of *key*: exact for a
    per-query count whichever ops the two clients happened to coalesce."""
    return mean(list(class_medians((r["cls"], r[key]) for r in records).values()))


class PassObserver:
    """What the program publishes about each traced op: its timings,
    report and span tree, plus the benchmark's own span around submit."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.records: list[dict] = []
        self.queue_depth_max = 0

    def __call__(
        self, service: QueryService, cls: str, outcome: QueryOutcome, started: float, ended: float
    ) -> None:
        timings = outcome.timings
        served_by = outcome.provenance["served_by"]
        op = f"op:{len(self.records)}"
        self.log.add("service.submit", started, ended, op, cls=cls, served_by=served_by)
        record = {
            "cls": cls,
            "served_by": served_by,
            "coalesced": outcome.coalesced,
            "total_s": timings.total_s,
            "staged_s": timings.optimize_s + timings.bind_s + timings.execute_s,
            "frames": sum(outcome.report.shard_frames or ()),
            "bytes": sum(outcome.report.shard_bytes or ()),
        }
        trace = service.trace(outcome)
        if trace is not None:
            root = trace.root()
            covered = sum(child.duration_s for child in trace.children(root.span_id))
            record["spans"] = len(trace.spans)
            record["untraced_share"] = max(0.0, 1.0 - covered / root.duration_s)
        self.records.append(record)
        if service.config.shards and len(self.records) % 14 == 0:
            for gauge in service.snapshot_stats().shard_workers:
                self.queue_depth_max = max(self.queue_depth_max, gauge.queue_depth)

    def frames_values_per_class(self) -> int:
        """How many different frame counts one query class showed (1:
        the count repeats exactly, whatever the other client was doing)."""
        seen: dict[str, set] = {}
        for record in self.records:
            if not record["coalesced"]:
                seen.setdefault(record["cls"], set()).add(record["frames"])
        return max(len(values) for values in seen.values())

    def metrics(self, service: QueryService) -> dict[str, float]:
        stats = service.snapshot_stats()
        # A coalesced op carries the leader's stage timings, not its own.
        executed = [
            r for r in self.records
            if r["served_by"] != "result-cache" and not r["coalesced"]
        ]
        traced = [r for r in self.records if "spans" in r]
        return {
            "service.overhead_us": 1e6 * mean([r["total_s"] - r["staged_s"] for r in executed]),
            "service.result_hit_rate": stats.result_hits
            / max(stats.result_hits + stats.result_misses, 1),
            "service.plan_hit_rate": stats.plan_hits
            / max(stats.plan_hits + stats.plan_misses, 1),
            "service.template_hits": stats.template_hits,
            "service.optimizer_runs": stats.optimizer_runs,
            "service.rejected": stats.rejected,
            "service.errors": stats.errors,
            "cluster.rpc.frames_per_query": class_mean(executed, "frames"),
            "cluster.rpc.bytes_per_query": class_mean(executed, "bytes"),
            "cluster.rpc.peak_inflight": max(
                (gauge.peak_inflight for gauge in stats.shard_workers), default=0
            ),
            "cluster.rpc.queue_depth_max": self.queue_depth_max,
            "cluster.rpc.shard_failures": stats.shard_failures,
            "obs.spans_per_query": mean([r["spans"] for r in traced]),
            "obs.untraced_share": mean([r["untraced_share"] for r in traced]),
        }


def traced_run(
    factory: type[Workload],
    seed: int,
    seconds: float,
    small: bool,
    log: SpanLog,
) -> tuple[dict[str, float], Checker, dict]:
    """All per-layer metrics of one workload, and what they rest on.
    *small* (the smoke test) also walks each query once."""
    checker = Checker()
    metrics: dict[str, float] = {}

    plain = factory(seed, seconds * TRACED_SHARE, small)
    plain.setup(tracing=False)
    try:
        untraced = summarize(plain.run(checker))
    finally:
        plain.close()

    workload = factory(seed, seconds * TRACED_SHARE, small)
    workload.setup(tracing=True)
    observer = PassObserver(log)
    try:
        traced = summarize(workload.run(checker, observer))
        assert workload.service is not None
        metrics.update(observer.metrics(workload.service))
    finally:
        workload.close()
    triples = workload.triples()
    checker.verify(RDFGraph(triples), workload.writes)
    base_qps = untraced["throughput_qps"]["median"]
    metrics["obs.tracing_overhead_pct"] = 100.0 * (
        base_qps / traced["throughput_qps"]["median"] - 1.0
    )
    metrics["workloads.generate_s"] = workload.generate_s

    queries = workload.queries()
    walk = HandWalk(triples, queries, log)
    walk.walk(reps=1 if small else 3 if len(queries) <= 20 else 2)
    metrics.update(walk.metrics())
    walked = walk.op_seconds(workload.op_kind)
    # The untraced pass's class medians against the hand-walked ops of the
    # same queries: what submit adds around the layers.
    walked_classes = class_medians((cls, s) for (cls, _text), s in zip(queries, walked))
    submitted = untraced["latency_classsum_ms"]["raw_median"] / 1e3
    metrics["service.handwalk_ratio"] = sum(walked_classes.values()) / submitted

    metrics.update(probe_wire(walk, checker))
    metrics.update(probe_kernels(walk.graph))
    cells, serial = probe_backends(walk, workload.backend_passes)
    metrics.update(cells)
    cells, deployment_s = probe_cluster(
        walk, triples, serial, workload.cluster_passes, workload.cluster_queries
    )
    metrics.update(cells)
    metrics.update(probe_mutation(triples, queries[:8]))
    detail = {
        "untraced_pass": untraced,
        "traced_pass": traced,
        "handwalk_op_ms": [1e3 * s for s in walked],
        "handwalk_classes": [cls for cls, _text in queries],
        "deployment_s": deployment_s,
        "ops_traced": len(observer.records),
        "frames_values_per_class": observer.frames_values_per_class(),
    }
    return metrics, checker, detail
