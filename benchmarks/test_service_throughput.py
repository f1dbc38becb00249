"""Service throughput: warm vs cold latency, batch vs serial submission.

Not a paper figure — this benchmark characterizes the serving layer
(``repro.service``) added on top of the reproduction:

* **warm vs cold**: the first submission of each LUBM query pays the
  full CliqueSquare optimization (clique decomposition + cost model over
  up to 20k plans); repeats hit the plan cache and only execute.  The
  optimizer's work depends on query *structure* only, so the smaller the
  store, the more serving latency is dominated by planning — we measure
  at LUBM scale ``universities=4`` where the warm path must be ≥ 2×
  faster across the mix (it was ≥ 5× while the exhaustive enumeration
  ran; with the cost-bounded search the ratio measures 2.7-3.6× in
  seven runs on the 2-CPU reference host and 3.3-4.1× in five with both
  CPUs contended, so the floor sits at 0.6 of the median).  The result cache is disabled here so the warm
  figures isolate the plan cache (a result hit would skip execution too
  and trivially win).
* **batch vs serial**: a repeated workload mix submitted as one batch
  coalesces duplicate shapes into a single flight (each distinct query
  optimizes and executes once, answers fan out); the test asserts those
  counts and records both wall-clocks without gating on them.

Results land in ``benchmarks/results/service_throughput.txt``.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.service.service import QueryService, ServiceConfig
from repro.workloads import lubm, lubm_queries

ALL_NAMES = [f"Q{i}" for i in range(1, 15)]
WARM_ROUNDS = 3
MIX_REPEATS = 6
BATCH_TRIALS = 3
WARM_SPEEDUP_FLOOR = 2.0  # see the module docstring for its measured basis
#: Wall-clock thresholds hold comfortably on a quiet machine but can
#: flake on noisy shared CI runners; SERVICE_BENCH_STRICT=0 keeps the
#: runs + recorded tables as a smoke test without gating on timings.
STRICT = os.environ.get("SERVICE_BENCH_STRICT", "1") != "0"


@pytest.fixture(scope="module")
def graph():
    return lubm.generate(lubm.LUBMConfig(universities=4))


def _no_result_cache() -> ServiceConfig:
    return ServiceConfig(result_cache_size=0)


def test_warm_plan_cache_speedup(graph, record_table):
    """Plan-cache hits cut the repeated-mix latency by >= 2x."""
    with QueryService(graph, _no_result_cache()) as service:
        cold: dict[str, float] = {}
        warm: dict[str, float] = {}
        answers: dict[str, int] = {}
        for name in ALL_NAMES:
            query = lubm_queries.query(name)
            outcome = service.submit(query)
            assert not outcome.plan_cache_hit
            cold[name] = outcome.timings.total_s
            answers[name] = outcome.cardinality
            repeats = []
            for _ in range(WARM_ROUNDS):
                again = service.submit(query)
                assert again.plan_cache_hit and not again.result_cache_hit
                assert again.cardinality == answers[name]
                repeats.append(again.timings.total_s)
            warm[name] = statistics.median(repeats)

        total_cold = sum(cold.values())
        total_warm = sum(warm.values())
        speedup = total_cold / total_warm

        lines = [
            "service_throughput: warm (plan-cache hit) vs cold submission",
            f"(LUBM universities=4, |G|={len(graph)}, result cache off, "
            f"median of {WARM_ROUNDS} warm rounds)",
            "",
            f"{'query':>6} {'cold_ms':>10} {'warm_ms':>10} {'speedup':>9} {'|Q|':>7}",
        ]
        for name in ALL_NAMES:
            lines.append(
                f"{name:>6} {1e3 * cold[name]:>10.2f} {1e3 * warm[name]:>10.2f} "
                f"{cold[name] / warm[name]:>8.1f}x {answers[name]:>7}"
            )
        lines.append(
            f"{'TOTAL':>6} {1e3 * total_cold:>10.2f} {1e3 * total_warm:>10.2f} "
            f"{speedup:>8.1f}x"
        )
        snap = service.snapshot_stats()
        lines += ["", snap.format()]
        record_table("service_throughput", "\n".join(lines))

        assert snap.plan_misses == len(ALL_NAMES)
        assert snap.plan_hits == WARM_ROUNDS * len(ALL_NAMES)
        if STRICT:
            assert speedup >= WARM_SPEEDUP_FLOOR, (
                f"warm mix should be >={WARM_SPEEDUP_FLOOR}x faster than cold, "
                f"got {speedup:.1f}x"
            )


def test_batch_beats_serial_submission(graph, record_table):
    """One batch of a repeated mix executes each distinct query once;
    the wall-clock of both sides is recorded, not gated."""
    mix = [lubm_queries.query(n) for n in ALL_NAMES] * MIX_REPEATS

    def timed(submit_all):
        # A fresh service per trial: both sides pay the cold optimizations.
        with QueryService(graph, _no_result_cache()) as service:
            t0 = time.perf_counter()
            outcomes = submit_all(service)
            seconds = time.perf_counter() - t0
            return seconds, outcomes, service.snapshot_stats()

    # Best of BATCH_TRIALS alternating trials per side: the saving is
    # the 70 coalesced executions, a few ms each on the id-space
    # default, and one slow phase of a shared host is larger than that.
    serial_s = batch_s = float("inf")
    for _ in range(BATCH_TRIALS):
        seconds, serial, serial_stats = timed(
            lambda svc: [svc.submit(q) for q in mix]
        )
        serial_s = min(serial_s, seconds)
        seconds, batched, batch_stats = timed(lambda svc: svc.submit_batch(mix))
        batch_s = min(batch_s, seconds)

    # Identical answers, in submission order.
    assert [o.rows for o in batched] == [o.rows for o in serial]
    coalesced = sum(o.coalesced for o in batched)
    assert coalesced == len(mix) - len(ALL_NAMES)
    # What the batch saves: every duplicate's execution.
    assert batch_stats.coalesced == coalesced
    assert serial_stats.execute.count == len(mix)
    assert batch_stats.execute.count == len(ALL_NAMES)
    assert serial_stats.optimizer_runs == batch_stats.optimizer_runs == len(ALL_NAMES)

    qps_serial = len(mix) / serial_s
    qps_batch = len(mix) / batch_s
    table = "\n".join(
        [
            "service_throughput: batch vs serial submission of a repeated mix",
            f"(14 LUBM queries x{MIX_REPEATS} = {len(mix)} submissions, "
            f"result cache off in both services, best of {BATCH_TRIALS})",
            "",
            f"serial: {serial_s:8.3f}s  ({qps_serial:6.1f} q/s)",
            f"batch:  {batch_s:8.3f}s  ({qps_batch:6.1f} q/s, "
            f"{coalesced} duplicates coalesced)",
            f"batch speedup: {serial_s / batch_s:.2f}x",
        ]
    )
    record_table("service_batch_vs_serial", table)


def test_result_cache_serves_repeats_instantly(graph, record_table):
    """With the result cache on, steady-state repeats skip execution too."""
    with QueryService(graph) as service:
        for name in ALL_NAMES:
            service.submit(lubm_queries.query(name))
        t0 = time.perf_counter()
        rounds = 5
        for _ in range(rounds):
            for name in ALL_NAMES:
                outcome = service.submit(lubm_queries.query(name))
                assert outcome.result_cache_hit
        steady_s = time.perf_counter() - t0
        qps = rounds * len(ALL_NAMES) / steady_s
        snap = service.snapshot_stats()
        table = "\n".join(
            [
                "service_throughput: steady-state result-cache throughput",
                "",
                f"{rounds * len(ALL_NAMES)} repeat submissions in "
                f"{steady_s:.3f}s = {qps:.0f} q/s",
                f"result-cache hit rate: {100 * snap.result_hit_rate:.1f}%",
            ]
        )
        record_table("service_result_cache", table)
        if STRICT:
            assert qps > 100, (
                f"result-cache throughput suspiciously low: {qps:.0f} q/s"
            )
