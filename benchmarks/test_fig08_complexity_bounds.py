"""Fig. 8 — worst-case decomposition-count bounds per variant.

Regenerates the closed-form D(n) table and validates that measured
decomposition counts on the worst-case query shapes (chains for cover
size, stars for clique count) respect the bounds.
"""

from repro.bench.harness import format_table
from repro.core.complexity import DECOMPOSITION_BOUNDS, decomposition_bound
from repro.core.decomposition import ALL_OPTIONS, CliquePool, graph_structure
from repro.core.variable_graph import VariableGraph
from repro.workloads.synthetic import chain_query, star_query

from benchmarks.conftest import once

NS = (2, 3, 4, 5, 6, 7, 8)


def bound_table():
    return {
        name: {n: decomposition_bound(name, n) for n in NS}
        for name in DECOMPOSITION_BOUNDS
    }


def test_fig08_bound_table(benchmark, record_table):
    table = once(benchmark, bound_table)
    rows = [
        [name] + [f"{table[name][n]:,}" for n in NS] for name in DECOMPOSITION_BOUNDS
    ]
    record_table(
        "fig08_complexity_bounds",
        format_table(
            ["option"] + [f"n={n}" for n in NS],
            rows,
            title="Fig. 8 — upper bounds on the number of decompositions D(n)",
        ),
    )
    # Bound shape: SC dominates everything, partial >= maximal.  Only
    # meaningful once 2^n - 1 >= 2n + 1 (n >= 4): the paper notes the
    # worst cases behind each bound are mutually exclusive, so the
    # columns are not pointwise comparable at tiny n.
    for n in NS:
        if n >= 4:
            assert table["SC"][n] >= table["MSC"][n] >= table["MSC+"][n]
            assert table["SC"][n] >= table["XC"][n] >= table["MXC"][n]
            assert table["SC+"][n] >= table["MSC+"][n] >= table["MXC+"][n]


def measured_vs_bound():
    rows = []
    for n in (2, 3, 4, 5, 6):
        for make, shape in ((chain_query, "chain"), (star_query, "star")):
            structure = graph_structure(VariableGraph.from_query(make(n)))
            for option in ALL_OPTIONS:
                # each cover is exactly one decomposition: count, do not list
                measured = sum(1 for _ in CliquePool.of(structure, option).covers())
                rows.append(
                    (shape, n, option.name, measured,
                     decomposition_bound(option.name, n))
                )
    return rows


def test_fig08_measured_counts_respect_bounds(benchmark, record_table):
    rows = once(benchmark, measured_vs_bound)
    record_table(
        "fig08_measured_vs_bound",
        format_table(
            ["shape", "n", "option", "measured D(n)", "bound"],
            [[s, n, o, f"{m:,}", f"{b:,}"] for s, n, o, m, b in rows],
            title="Fig. 8 — measured decomposition counts vs. worst-case bounds",
        ),
    )
    for shape, n, option, measured, bound in rows:
        assert measured <= bound, (shape, n, option)
