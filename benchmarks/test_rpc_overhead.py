"""RPC transport overhead: per-query cost of the process boundary.

Not a paper figure — this benchmark characterizes what the
``shard_transport="rpc"`` boundary costs over ``"inproc"``: the same
sharded deployment (shards=2, serial execution), the same 14 LUBM
queries, identical answers (always asserted, per query), and the
per-query wall-clock side by side.  Because a registered template
crosses the wire once and each query afterwards ships only its bound
constant vector, level metadata and exchange rows, the expected
overhead is a few socket round-trips per job level plus the row
payloads — the table records exactly that, together with the request
bytes shipped per query under both wire formats: ``pickle`` (tuple
lists) and ``columnar`` (dictionary-encoded id buffers plus a
terms-the-peer-lacks delta, the default).

There is no unconditional wall-clock gate: RPC cannot be faster than a
function call in a single-machine simulation; the point of the table is
to keep the overhead *visible* so a regression (e.g. a spec
accidentally re-shipped per task) shows up as a bytes/latency jump.
Answer equality is the hard assertion, plus a bytes gate: the columnar
wire must encode smaller than pickle on every row-heavy query (the ones
where wire tax actually matters).  On machines with real parallelism
(>= 4 CPUs) two wall-clock gates arm: worst-case per-query rpc/inproc
<= 2.0x, and — in the concurrent companion test — multiplexed+coalesced
throughput >= 2x the serial-connection baseline under an 8-thread mixed
workload.  Set RPC_BENCH_STRICT=0 to skip both on noisy runners.

Results land in ``benchmarks/results/rpc_overhead.txt`` (per-query) and
``benchmarks/results/rpc_overhead_concurrent.txt`` (8-thread mix:
serial-connection vs multiplexed vs coalesced, bytes + frames per
query).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.service import QueryService, ServiceConfig
from repro.workloads import lubm, lubm_queries
from tests.conformance import rpc_workers_work

UNIVERSITIES = 8
SHARDS = 2
ROUNDS = 3

#: queries that ship enough exchange rows for encoding to matter; the
#: columnar wire must beat pickled tuples on every one of them
ROW_HEAVY = ("Q5", "Q8", "Q10", "Q11", "Q14")

#: wall-clock gates (worst-case per-query ratio, concurrent speedup)
#: apply only where parallelism is physically possible
MAX_RPC_RATIO = 2.0
REQUIRED_CONCURRENT_SPEEDUP = 2.0
DRIVER_THREADS = 8

STRICT = os.environ.get("RPC_BENCH_STRICT", "1") != "0"


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def test_rpc_overhead(record_table):
    if not rpc_workers_work():
        pytest.skip("RPC shard workers unavailable in this environment")
    graph = lubm.generate(lubm.LUBMConfig(universities=UNIVERSITIES))
    queries = lubm_queries.all_queries()

    def service(transport: str, wire: str = "columnar") -> QueryService:
        return QueryService(
            graph,
            ServiceConfig(
                shards=SHARDS,
                shard_transport=transport,
                backend="serial",
                wire_format=wire,
                result_cache_size=0,
            ),
        )

    def measure(svc: QueryService, query):
        svc.submit(query)  # warm: optimize, register, bind
        best, outcome = float("inf"), None
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            outcome = svc.submit(query)
            best = min(best, time.perf_counter() - t0)
        return best, outcome

    inproc = service("inproc")
    rpc = service("rpc", wire="columnar")
    rpc_pickle = service("rpc", wire="pickle")
    rows = []
    try:
        for query in queries:
            inproc_s, inproc_out = measure(inproc, query)
            rpc_s, rpc_out = measure(rpc, query)
            _, pickle_out = measure(rpc_pickle, query)
            # The hard gate: answers are identical over both transports
            # and both wire formats.
            assert rpc_out.rows == inproc_out.rows, query.name
            assert rpc_out.attrs == inproc_out.attrs, query.name
            assert pickle_out.rows == inproc_out.rows, query.name
            assert rpc_out.report.transport == "rpc"
            columnar_bytes = sum(rpc_out.report.shard_bytes or ())
            pickle_bytes = sum(pickle_out.report.shard_bytes or ())
            if query.name in ROW_HEAVY:
                # The bytes gate: dictionary-encoded frames must be
                # smaller wherever enough rows cross the wire.
                assert columnar_bytes < pickle_bytes, (
                    f"{query.name}: columnar {columnar_bytes} B >= "
                    f"pickle {pickle_bytes} B"
                )
            rows.append(
                (
                    query.name,
                    len(rpc_out.rows),
                    1e3 * inproc_s,
                    1e3 * rpc_s,
                    rpc_s / inproc_s if inproc_s > 0 else float("inf"),
                    pickle_bytes,
                    columnar_bytes,
                    columnar_bytes / pickle_bytes if pickle_bytes else 1.0,
                )
            )
    finally:
        inproc.close()
        rpc.close()
        rpc_pickle.close()

    lines = [
        f"RPC transport overhead — LUBM({UNIVERSITIES} universities), "
        f"shards={SHARDS}, serial execution, best of {ROUNDS}",
        f"{'query':>6} {'rows':>6} {'inproc ms':>10} {'rpc ms':>10} "
        f"{'rpc/inproc':>11} {'pickle B':>10} {'columnar B':>11} "
        f"{'col/pkl':>8}",
    ]
    for name, count, inproc_ms, rpc_ms, ratio, pkl, col, frac in rows:
        lines.append(
            f"{name:>6} {count:>6} {inproc_ms:>10.2f} {rpc_ms:>10.2f} "
            f"{ratio:>10.1f}x {pkl:>10} {col:>11} {frac:>8.2f}"
        )
    lines.append(
        "answers identical over both transports and wire formats "
        "for all queries: yes"
    )
    lines.append(
        "columnar wire smaller than pickle on all row-heavy queries "
        f"({', '.join(ROW_HEAVY)}): yes"
    )
    worst = max(ratio for _, _, _, _, ratio, _, _, _ in rows)
    cpus = _cpus()
    lines.append(
        f"worst-case per-query rpc/inproc: {worst:.1f}x "
        f"(gate <= {MAX_RPC_RATIO}x on >= 4 CPUs; {cpus} CPU(s) here)"
    )
    lines.append(
        "concurrent throughput: see rpc_overhead_concurrent.txt"
    )
    record_table("rpc_overhead", "\n".join(lines))
    if STRICT and cpus >= 4:
        assert worst <= MAX_RPC_RATIO, (
            f"worst-case rpc/inproc {worst:.2f}x > {MAX_RPC_RATIO}x "
            f"on {cpus} CPUs"
        )


def test_lone_query_coalescing_untaxed(record_table):
    """A lone query must not pay the coalescing window.

    The coalescer's leader only holds the window open when the router
    observes more than one active query; with serial traffic every
    level flushes immediately.  Demonstrated with a deliberately fat
    window: pre-gate, each of a lone query's levels would sleep the
    full window as pure latency tax (>= levels x window per query);
    post-gate, per-query latency matches the window-less multiplexed
    config.  A traced pass also compares worker-side queue_wait spans:
    the gate removes driver-side sleeping, it must not push wait into
    the worker's queue instead.
    """
    if not rpc_workers_work():
        pytest.skip("RPC shard workers unavailable in this environment")
    graph = lubm.generate(lubm.LUBMConfig(universities=UNIVERSITIES))
    queries = lubm_queries.all_queries()
    window_ms = 40.0

    configs = (
        ("multiplexed", {"rpc_pipeline": DRIVER_THREADS}),
        (
            "coalesced",
            {
                "rpc_pipeline": DRIVER_THREADS,
                "coalesce_window_ms": window_ms,
                "coalesce_max_batch": DRIVER_THREADS,
            },
        ),
    )

    latency: dict[str, dict[str, float]] = {}
    levels_per_query: dict[str, float] = {}
    queue_wait: dict[str, float] = {}
    for label, overrides in configs:
        service = QueryService(
            graph,
            ServiceConfig(
                shards=SHARDS,
                shard_transport="rpc",
                backend="serial",
                result_cache_size=0,
                **overrides,
            ),
        )
        per_query: dict[str, float] = {}
        try:
            for query in queries:
                service.submit(query)  # warm
            router = service.executor.router
            for query in queries:
                base = router.level_requests
                best = float("inf")
                for _ in range(ROUNDS):
                    t0 = time.perf_counter()
                    service.submit(query)
                    best = min(best, time.perf_counter() - t0)
                per_query[query.name] = best
                levels_per_query[query.name] = (
                    (router.level_requests - base) / ROUNDS
                )
        finally:
            service.close()
        latency[label] = per_query

        # Traced pass: worker-side queue_wait must stay flat — the gate
        # removes the driver-side sleep without queueing on the worker.
        service = QueryService(
            graph,
            ServiceConfig(
                shards=SHARDS,
                shard_transport="rpc",
                backend="serial",
                result_cache_size=0,
                tracing=True,
                **overrides,
            ),
        )
        try:
            for query in queries:
                service.submit(query)
            service.trace_sink.clear()
            for query in queries:
                service.submit(query)
            waits = 0.0
            for trace_id in service.trace_sink.trace_ids():
                trace = service.trace_sink.get(trace_id)
                waits += sum(
                    s.duration_s
                    for s in trace.spans
                    if s.name == "queue_wait"
                )
            queue_wait[label] = waits
        finally:
            service.close()

    window_s = window_ms / 1000.0
    overheads = sorted(
        latency["coalesced"][q.name] - latency["multiplexed"][q.name]
        for q in queries
    )
    median_overhead = overheads[len(overheads) // 2]
    would_be_tax = sum(
        levels_per_query[q.name] * window_s for q in queries
    )
    total_overhead = sum(overheads)

    lines = [
        f"Lone-query coalescing tax — LUBM({UNIVERSITIES} universities), "
        f"shards={SHARDS}, serial submissions, best of {ROUNDS}, "
        f"coalesce window {window_ms:.0f} ms",
        f"{'query':>6} {'levels':>7} {'multiplexed ms':>15} "
        f"{'coalesced ms':>13} {'overhead ms':>12}",
    ]
    for query in queries:
        multiplexed_ms = 1e3 * latency["multiplexed"][query.name]
        coalesced_ms = 1e3 * latency["coalesced"][query.name]
        lines.append(
            f"{query.name:>6} {levels_per_query[query.name]:>7.0f} "
            f"{multiplexed_ms:>15.2f} {coalesced_ms:>13.2f} "
            f"{coalesced_ms - multiplexed_ms:>12.2f}"
        )
    lines.append(
        f"median per-query overhead: {1e3 * median_overhead:.2f} ms "
        f"(gate < {window_ms / 2:.0f} ms: an ungated lone query pays "
        f">= one full window per level)"
    )
    lines.append(
        f"workload overhead {1e3 * total_overhead:.1f} ms vs "
        f"{1e3 * would_be_tax:.0f} ms the ungated windows would cost"
    )
    lines.append(
        "worker queue_wait (traced pass): "
        f"multiplexed {1e3 * queue_wait['multiplexed']:.2f} ms, "
        f"coalesced {1e3 * queue_wait['coalesced']:.2f} ms"
    )
    record_table("rpc_lone_query_coalescing", "\n".join(lines))

    # Physically about not sleeping: a 40 ms sleep per level cannot
    # hide in best-of-N scheduling noise, so this gate is unconditional.
    assert median_overhead < window_s / 2, (
        f"lone queries pay {1e3 * median_overhead:.1f} ms median overhead "
        f"under a {window_ms:.0f} ms coalescing window: the lone-query "
        "gate is not working"
    )
    assert total_overhead < would_be_tax / 2
    # The saved window must not reappear as worker-side queueing.
    assert queue_wait["coalesced"] < queue_wait["multiplexed"] + (
        window_s * len(queries) / 2
    )


def test_rpc_concurrent_throughput(record_table):
    """The concurrency axis: 8 driver threads submit a rotated mixed
    LUBM workload against the same rpc deployment under three transport
    configurations — serial-connection (rpc_pipeline=0: one outstanding
    request per socket, the pre-multiplexing baseline), multiplexed
    (rpc_pipeline=8), and coalesced (multiplexed + cross-query level
    batching).  Answers are always asserted; the frames column proves
    coalescing actually merges concurrent levels (fewer frames shipped
    than levels requested)."""
    if not rpc_workers_work():
        pytest.skip("RPC shard workers unavailable in this environment")
    graph = lubm.generate(lubm.LUBMConfig(universities=UNIVERSITIES))
    queries = lubm_queries.all_queries()
    rotations = [
        queries[i % len(queries):] + queries[: i % len(queries)]
        for i in range(DRIVER_THREADS)
    ]
    total_queries = DRIVER_THREADS * len(queries)

    configs = (
        ("serial-conn", {"rpc_pipeline": 0}),
        ("multiplexed", {"rpc_pipeline": DRIVER_THREADS}),
        (
            "coalesced",
            {
                "rpc_pipeline": DRIVER_THREADS,
                "coalesce_window_ms": 2.0,
                "coalesce_max_batch": DRIVER_THREADS,
            },
        ),
    )

    expected: dict[str, frozenset] = {}
    measured = {}
    for label, overrides in configs:
        service = QueryService(
            graph,
            ServiceConfig(
                shards=SHARDS,
                shard_transport="rpc",
                backend="serial",
                result_cache_size=0,
                **overrides,
            ),
        )
        try:
            # Warm: optimize + register every template, fill the bound
            # plan caches and the columnar dictionaries.
            for query in queries:
                outcome = service.submit(query)
                expected.setdefault(query.name, frozenset(outcome.rows))
                assert frozenset(outcome.rows) == expected[query.name]
            router = service.executor.router
            base_requests = router.level_requests
            base_frames = router.level_frames
            base_bytes = sum(
                s.bytes_received for s in router.worker_stats()
            )
            results: list[object] = [None] * DRIVER_THREADS

            def run(i: int) -> None:
                try:
                    results[i] = [
                        (q.name, frozenset(service.submit(q).rows))
                        for q in rotations[i]
                    ]
                except BaseException as exc:
                    results[i] = exc

            threads = [
                threading.Thread(target=run, args=(i,))
                for i in range(DRIVER_THREADS)
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - t0
            for i, result in enumerate(results):
                assert not isinstance(result, BaseException), (label, i, result)
                for name, rows_ in result:
                    assert rows_ == expected[name], (label, name)
            requests = router.level_requests - base_requests
            frames = router.level_frames - base_frames
            bytes_total = (
                sum(s.bytes_received for s in router.worker_stats())
                - base_bytes
            )
            measured[label] = {
                "wall": wall,
                "qps": total_queries / wall,
                "requests": requests,
                "frames": frames,
                "frames_per_query": frames / total_queries,
                "bytes": bytes_total,
            }
        finally:
            service.close()

    serial = measured["serial-conn"]
    cpus = _cpus()
    lines = [
        f"RPC concurrent throughput — LUBM({UNIVERSITIES} universities), "
        f"shards={SHARDS}, serial execution, {DRIVER_THREADS} driver "
        f"threads x {len(queries)} queries (rotated mix), "
        f"{cpus} CPU(s) available",
        f"{'config':<12} {'wall s':>8} {'q/s':>8} {'speedup':>8} "
        f"{'level reqs':>11} {'frames':>8} {'frames/q':>9} {'recv MB':>8}",
    ]
    for label, _ in configs:
        m = measured[label]
        lines.append(
            f"{label:<12} {m['wall']:>8.2f} {m['qps']:>8.1f} "
            f"{serial['wall'] / m['wall']:>7.2f}x {m['requests']:>11} "
            f"{m['frames']:>8} {m['frames_per_query']:>9.2f} "
            f"{m['bytes'] / 1e6:>8.2f}"
        )
    lines.append(
        "answers identical to the single-connection warm reference "
        "under all three configurations: yes"
    )
    coalesced, multiplexed = measured["coalesced"], measured["multiplexed"]
    lines.append(
        "coalescing merged concurrent levels: "
        f"{coalesced['frames']} frames for {coalesced['requests']} level "
        "requests"
    )
    if cpus < 4:
        lines.append(
            f"note: {cpus} CPU(s) available — concurrent speedup is not "
            f"achievable here; the >= {REQUIRED_CONCURRENT_SPEEDUP}x gate "
            "applies on >= 4 CPUs (see CI rpc-concurrency)"
        )
    record_table("rpc_overhead_concurrent", "\n".join(lines))

    # The structural gates hold on any machine.  (Level-request totals
    # legitimately differ across configs: concurrent identical
    # submissions single-flight at the service layer, and how many
    # coincide is timing-dependent.)  Without coalescing, frames ==
    # level requests exactly; with it, strictly fewer frames went out
    # than levels were requested — the merge provably happened.
    assert serial["frames"] == serial["requests"]
    assert multiplexed["frames"] == multiplexed["requests"]
    assert 0 < coalesced["frames"] < coalesced["requests"]
    if STRICT and cpus >= 4:
        speedup = serial["wall"] / coalesced["wall"]
        assert speedup >= REQUIRED_CONCURRENT_SPEEDUP, (
            f"multiplexed+coalesced speedup {speedup:.2f}x < "
            f"{REQUIRED_CONCURRENT_SPEEDUP}x over the serial-connection "
            f"baseline on {cpus} CPUs"
        )
