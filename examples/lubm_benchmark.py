"""LUBM workload benchmark: the paper's §6.3-§6.4 evaluation in miniature.

Generates a scaled LUBM dataset, deploys the three systems of Fig. 21 —
CSQ (this paper), SHAPE-2f and H2RDF+ (simulated comparators) — and runs
the 14-query workload of Appendix A on each, printing a Fig. 20/21-style
table: job counts, simulated response times, and answer cardinalities.

Run:  python examples/lubm_benchmark.py [universities]
"""

import sys
import time

from repro import CSQ, CostParams, ServiceConfig
from repro.systems.h2rdf import H2RDFPlus
from repro.systems.shape import ShapeSystem
from repro.workloads import lubm
from repro.workloads.lubm_queries import SELECTIVE, all_queries


def main() -> None:
    universities = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    print(f"generating LUBM ({universities} universities)...")
    graph = lubm.generate(lubm.LUBMConfig(universities=universities))
    print(f"  {len(graph):,} triples, {len(graph.properties)} properties\n")

    start = time.time()
    systems = [
        CSQ(graph, ServiceConfig(params=CostParams(job_overhead=400.0))),
        ShapeSystem(graph),
        H2RDFPlus(graph),
    ]
    print(f"deployed CSQ / SHAPE-2f / H2RDF+ in {time.time() - start:.1f}s\n")

    header = (
        f"{'query':<10} {'class':<13} {'|Q|':>8}  "
        f"{'CSQ':>12} {'SHAPE-2f':>12} {'H2RDF+':>12}   jobs"
    )
    print(header)
    print("-" * len(header))
    totals = {s.name: 0.0 for s in systems}
    for query in all_queries():
        reports = {s.name: s.run(query) for s in systems}
        answers = {frozenset(r.answers) for r in reports.values()}
        assert len(answers) == 1, f"{query.name}: systems disagree!"
        for name, report in reports.items():
            totals[name] += report.response_time
        klass = "selective" if query.name in SELECTIVE else "non-selective"
        sig = "".join(
            reports[s.name].job_signature for s in systems
        )
        print(
            f"{query.name:<10} {klass:<13} "
            f"{len(reports['CSQ'].answers):>8,}  "
            f"{reports['CSQ'].response_time:>12,.0f} "
            f"{reports['SHAPE-2f'].response_time:>12,.0f} "
            f"{reports['H2RDF+'].response_time:>12,.0f}   {sig}"
        )

    print("-" * len(header))
    print(f"{'TOTAL':<10} {'':<13} {'':>8}  "
          + " ".join(f"{totals[s.name]:>12,.0f}" for s in systems))
    winner = min(totals, key=totals.get)
    print(f"\nworkload winner: {winner} "
          f"(paper: CSQ 44 min vs SHAPE 77 min vs H2RDF+ 23 h)")


if __name__ == "__main__":
    main()
