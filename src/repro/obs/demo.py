"""Produce sample observability artifacts from a traced LUBM workload.

``python -m repro.obs.demo --out DIR`` spins up a sharded service with
tracing on, serves a few LUBM queries, and writes:

* ``trace.json`` — Chrome trace-event export of every recorded trace
  (load via chrome://tracing or https://ui.perfetto.dev);
* ``metrics.prom`` — the Prometheus text exposition of the service
  registry, transport gauges included;
* ``explain_analyze.txt`` — the rendered plan + span tree of one
  sharded query.

The workload includes a live rebalance (grow to 3 shards, shrink back
to 2) between query batches, so ``trace.json`` carries the migration
timeline — ``rebalance:drain`` / ``rebalance:migrate`` with the
per-shard ``rebalance:prime`` / ``rebalance:delta`` / ``rebalance:flip``
phases nested under it — next to the queries running before and after
the topology moved.

CI's obs-smoke job uploads the directory as a build artifact; the
module doubles as a quick local look at what the tracing layer emits.
The rpc transport is used when the environment can spawn shard worker
processes, falling back to in-process shards otherwise (sandboxes).
"""

from __future__ import annotations

import argparse
from pathlib import Path


def _rpc_available() -> bool:
    try:
        from repro.cluster.rpc import ShardWorkerClient, StatsReply

        client = ShardWorkerClient(shard=0, num_nodes=2, spawn_timeout=30)
        try:
            # The spawn handshake is itself a Stats round trip.
            return isinstance(client.start(), StatsReply)
        finally:
            client.close()
    except Exception:
        return False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="obs-artifacts", help="output directory"
    )
    parser.add_argument(
        "--queries",
        default="Q1,Q2,Q4,Q8",
        help="comma-separated LUBM query names to serve",
    )
    args = parser.parse_args(argv)

    from repro.service import QueryService, ServiceConfig
    from repro.workloads import lubm, lubm_queries

    transport = "rpc" if _rpc_available() else "inproc"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    graph = lubm.generate(lubm.LUBMConfig(universities=4))
    names = [n for n in args.queries.split(",") if n]
    # Default topology (7 nodes): every move of the rebalance below
    # names a node, so it ships data — survivor deltas included.
    config = ServiceConfig(
        shards=2,
        shard_transport=transport,
        tracing=True,
        slow_query_s=0.0,
        result_cache_size=0,
    )
    with QueryService(graph, config) as service:
        for name in names:
            outcome = service.submit(lubm_queries.query(name))
            print(
                f"{name}: {outcome.cardinality} rows, "
                f"{1e3 * outcome.timings.total_s:.2f} ms, "
                f"trace {outcome.trace_id}"
            )
        # A live migration between batches: the traced grow/shrink puts
        # the rebalance timeline (drain, prime, delta, flip spans) into
        # trace.json, and re-serving the workload afterwards shows
        # queries running against the flipped table.
        for target in (3, 2):
            report = service.rebalance(target_shards=target)
            print(
                f"rebalance -> {report.new_shards} shards: "
                f"epoch {report.old_epoch}->{report.new_epoch}, "
                f"nodes {report.moved_nodes}, "
                f"{1e3 * report.duration_s:.2f} ms"
            )
        for name in names:
            service.submit(lubm_queries.query(name))
        analyzed = service.explain_analyze(
            lubm_queries.query(names[-1]), name=names[-1]
        )
        events = service.export_chrome_trace(str(out / "trace.json"))
        (out / "metrics.prom").write_text(service.render_prometheus())
        (out / "explain_analyze.txt").write_text(analyzed + "\n")
    print(
        f"wrote {out}/trace.json ({events} events), metrics.prom, "
        f"explain_analyze.txt [transport={transport}]"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
