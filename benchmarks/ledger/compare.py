"""Compare two ``result.json`` documents, one row per (workload,
end-to-end metric)."""

from __future__ import annotations

import statistics

from benchmarks.ledger.metrics import END_TO_END


def _round_spread(cell: dict, name: str) -> float:
    """Quartile distance of a metric's per-round (or per-cycle) values as
    a share of their median; 0 for a metric taken once per run."""
    if name == "setup_s":
        values = cell["setup_cycles_s"]
    elif name in cell["summary"]:
        values = cell["summary"][name]["segments"]
    else:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def report(first: dict, second: dict, strict: bool = False) -> int:
    """Print the comparison; the exit code is 1 if a pair regressed (or,
    with *strict*, could not be resolved)."""
    print(
        f"{'workload':12s} {'metric':20s} {'A':>12s} {'B':>12s} {'B/A':>8s} "
        f"{'bound':>6s} {'spread':>7s}  verdict"
    )
    worst = 0
    for workload, cells in first["workloads"].items():
        a = cells["end_to_end"]
        b = second["workloads"][workload]["end_to_end"]
        for name, unit, better, bound in END_TO_END:
            base = a["metrics"][name]["value"]
            other = b["metrics"][name]["value"]
            ratio = other / base
            worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
            spread = max(_round_spread(a, name), _round_spread(b, name))
            if worse <= bound:
                verdict = "ok"
            elif spread > bound:
                verdict = "unresolved"
                worst = max(worst, int(strict))
            else:
                verdict = "regressed"
                worst = 1
            print(
                f"{workload:12s} {name:20s} {base:12.4f} {other:12.4f} "
                f"{ratio:7.3f}x {bound:6.2f} {spread:7.3f}  {verdict} "
                f"(B/A of {base:.4f} {unit})"
            )
        for side, cell in (("A", a), ("B", b)):
            if cell["failed"]:
                print(f"{workload:12s} {side}: {cell['failed']} of {cell['attempted']} ops failed")
                worst = 1
    return worst
