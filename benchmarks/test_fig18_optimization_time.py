"""Fig. 18 — average optimization time (ms) per variant and shape.

Expected shape (paper): MSC+, MXC, MSC answer fast (sub-second; MSC the
slowest of the three); SC/XC are orders of magnitude slower on their
explosive shapes; stars are cheap for the minimum variants.
"""

from repro.bench.harness import paper_vs_measured_table, plan_space_sweep
from repro.bench.paper_data import (
    FIG18_OPTIMIZATION_TIME_MS,
    OPTION_ORDER,
    SHAPE_ORDER,
)

from benchmarks.conftest import once


def test_fig18_optimization_time(benchmark, record_table):
    sweep = once(benchmark, plan_space_sweep)
    measured = sweep.table(lambda s: 1000.0 * s.elapsed_s)

    record_table(
        "fig18_optimization_time",
        paper_vs_measured_table(
            "Fig. 18 — average optimization time (ms) per algorithm and query shape",
            OPTION_ORDER,
            SHAPE_ORDER,
            FIG18_OPTIMIZATION_TIME_MS,
            measured,
            fmt="{:.2f}",
        ),
        host_time=True,
    )

    # The recommended variants stay fast on every shape (well under the
    # cost of a MapReduce job; the paper's bar is "less than 1 s").
    for name in ("MSC+", "MXC", "MSC"):
        for shape in SHAPE_ORDER:
            assert measured[name][shape] < 1500.0, (name, shape)
    # The exhaustive variants are at least 10x slower than MSC on chains.
    assert measured["SC"]["chain"] > 10 * measured["MSC"]["chain"]
    assert measured["XC"]["chain"] > 10 * measured["MXC"]["chain"]
    # Stars are trivial for minimum variants (single decomposition).
    assert measured["MSC"]["star"] < measured["MSC"]["chain"]
