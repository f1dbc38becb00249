"""Ablation — which CliqueSquare variant should drive the optimizer?

§6.2 concludes MSC is the sweet spot: it explores more plans than MSC+
(strictly larger space, Thm 4.1), always contains an HO plan (Thm 4.3),
and stays fast.  This ablation runs CSQ end-to-end with each viable
variant on LUBM queries and compares optimizer time, plan-space size and
the executed response time of the cost-selected plan.
"""

import statistics
import time

from repro.bench.harness import PLAN_CAP, format_table, lubm_csq
from repro.core.algorithm import cliquesquare
from repro.core.decomposition import MSC, MSC_PLUS, MXC, SC_PLUS
from repro.cost.model import select_best_plan
from repro.workloads.lubm_queries import query

from benchmarks.conftest import once

VARIANTS = (MSC_PLUS, SC_PLUS, MXC, MSC)
QUERIES = ("Q4", "Q7", "Q9", "Q11", "Q12", "Q14")


def run_variants():
    csq = lubm_csq()
    rows = []
    for option in VARIANTS:
        opt_times, plan_counts, exec_times = [], [], []
        for name in QUERIES:
            q = query(name)
            start = time.perf_counter()
            result = cliquesquare(q, option, max_plans=PLAN_CAP, timeout_s=None)
            opt_times.append(time.perf_counter() - start)
            plan_counts.append(result.plan_count)
            best, _ = select_best_plan(result.unique_plans(), csq.coster)
            exec_times.append(csq.execute_plan(best).response_time)
        rows.append(
            {
                "option": option.name,
                "avg_plans": statistics.fmean(plan_counts),
                "avg_opt_ms": 1000 * statistics.fmean(opt_times),
                "total_exec": sum(exec_times),
            }
        )
    return rows


def test_ablation_variants(benchmark, record_table):
    rows = once(benchmark, run_variants)
    title = "Ablation — CSQ end-to-end under the four viable variants"
    record_table(
        "ablation_variants",
        format_table(
            ["option", "avg #plans", "total exec time"],
            [
                [r["option"], f"{r['avg_plans']:.1f}", f"{r['total_exec']:,.0f}"]
                for r in rows
            ],
            title=title,
        ),
    )
    record_table(
        "ablation_variants_optimize_ms",
        format_table(
            ["option", "avg optimize (ms)"],
            [[r["option"], f"{r['avg_opt_ms']:.2f}"] for r in rows],
            title=title,
        ),
        host_time=True,
    )
    by_name = {r["option"]: r for r in rows}
    # MSC explores at least as many plans as MSC+ (strictly larger space).
    assert by_name["MSC"]["avg_plans"] >= by_name["MSC+"]["avg_plans"]
    # All variants optimize fast on this workload (paper: < 1 s).
    for r in rows:
        assert r["avg_opt_ms"] < 2_000, r["option"]
    # MSC's selected plans are never beaten by MSC+'s by more than noise
    # (its space is a superset, so with the same coster it can only tie
    # or win).
    assert by_name["MSC"]["total_exec"] <= by_name["MSC+"]["total_exec"] * 1.001
