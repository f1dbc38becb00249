"""The metric names, units and bounds of the ledger — the one list
``BENCHMARK.json``, the runs and the smoke test all answer to."""

from __future__ import annotations

from repro.mapreduce.backends import BACKEND_NAMES

from benchmarks.ledger.workloads import WORKLOADS

#: ``["python3", "benchmarks/ledger/run.py"]`` measures for this long.
RUN_SECONDS = 16

#: (name, unit, better, bound) — what a user of the service sees.  The
#: bound is the share of the parent's median a metric may worsen by; the
#: timing bounds are three times the widest seed-to-seed spread measured
#: on the 2-CPU sandbox (see the README), not the 0.10 first hoped for.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("latency_geomean_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

RPC_MODES = ("serial_conn", "default", "coalesced")

#: (name, unit, better) — single layers, from the traced run.
PER_LAYER = (
    ("sparql.parse_us", "us", "lower"),
    ("sparql.canonicalize_us", "us", "lower"),
    ("sparql.budget_exceeded", "count", "lower"),
    ("core.optimize_ms", "ms", "lower"),
    ("core.optimize_p95_ms", "ms", "lower"),
    ("core.plans_enumerated", "count", "lower"),
    ("core.plan_height", "count", "lower"),
    ("cost.select_ms", "ms", "lower"),
    ("cost.plans_costed", "count", "lower"),
    ("physical.prepare_ms", "ms", "lower"),
    ("physical.jobs", "count", "lower"),
    ("physical.levels", "count", "lower"),
    ("mapreduce.map_ms", "ms", "lower"),
    ("mapreduce.reduce_ms", "ms", "lower"),
    ("mapreduce.driver_ms", "ms", "lower"),
    ("mapreduce.map_tasks", "count", "lower"),
    ("mapreduce.reduce_tasks", "count", "lower"),
    ("mapreduce.tuples_read", "count", "lower"),
    ("mapreduce.tuples_shuffled", "count", "lower"),
    *((f"mapreduce.backend.{name}.pass_ms", "ms", "lower") for name in BACKEND_NAMES),
    ("relational.join_tuples", "count", "lower"),
    ("columnar.wire.encode_us_per_krow", "us", "lower"),
    ("columnar.wire.decode_us_per_krow", "us", "lower"),
    ("columnar.wire.bytes_per_row", "B", "lower"),
    ("columnar.wire.pickle_bytes_per_row", "B", "lower"),
    ("columnar.kernels.star_join_ms", "ms", "lower"),
    ("columnar.kernels.shuffle_ms", "ms", "lower"),
    ("columnar.kernels.select_bind_ms", "ms", "lower"),
    ("cluster.rpc.frames_per_query", "count", "lower"),
    ("cluster.rpc.bytes_per_query", "B", "lower"),
    ("cluster.shard.overhead_ms", "ms", "lower"),
    ("cluster.rpc.overhead_ms", "ms", "lower"),
    ("cluster.rpc.spawn_s", "s", "lower"),
    ("cluster.rpc.peak_inflight", "count", "higher"),
    ("cluster.rpc.queue_depth_max", "count", "lower"),
    ("cluster.rpc.shard_failures", "count", "lower"),
    *((f"cluster.rpc.mode.{mode}.qps", "1/s", "higher") for mode in RPC_MODES),
    ("cluster.rpc.wire.pickle.bytes_per_query", "B", "lower"),
    ("partitioning.partition_s", "s", "lower"),
    ("partitioning.triples_per_s", "1/s", "higher"),
    ("partitioning.replication", "ratio", "lower"),
    ("partitioning.store_add_us", "us", "lower"),
    ("rdf.graph_triples", "count", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("service.overhead_us", "us", "lower"),
    ("service.handwalk_ratio", "ratio", "higher"),
    ("service.bind_us", "us", "lower"),
    ("service.result_hit_us", "us", "lower"),
    ("service.result_hit_rate", "ratio", "higher"),
    ("service.plan_hit_rate", "ratio", "higher"),
    ("service.template_hits", "count", "higher"),
    ("service.optimizer_runs", "count", "lower"),
    ("service.add_triples_ms", "ms", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.errors", "count", "lower"),
    ("obs.tracing_overhead_pct", "%", "lower"),
    ("obs.spans_per_query", "count", "lower"),
    ("obs.untraced_share", "ratio", "lower"),
)

E2E_UNITS = {name: unit for name, unit, _better, _bound in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _better in PER_LAYER}


def benchmark_json() -> dict:
    """The contents of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
