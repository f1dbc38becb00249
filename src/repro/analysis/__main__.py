"""CLI driver: ``python -m repro.analysis [paths...] [--plans]``.

Modes:

* ``python -m repro.analysis src/`` — lint every ``*.py`` under the
  given paths; print findings, exit non-zero iff any survive.
* ``python -m repro.analysis --plans [--synthetic N]`` — run the
  plan-invariant corpus sweep (all 14 LUBM queries + N randomized
  synthetic BGPs, default 120) and exit non-zero on any violation.

Both modes run in CI's ``static-analysis`` job.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repro static analysis: concurrency/protocol lint "
        "and CliqueSquare plan-invariant checks",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path, help="files or directories to lint"
    )
    parser.add_argument(
        "--plans",
        action="store_true",
        help="run the plan-invariant corpus sweep instead of the lint",
    )
    parser.add_argument(
        "--synthetic",
        type=int,
        default=120,
        help="number of randomized synthetic BGPs in the sweep",
    )
    parser.add_argument(
        "--seed", type=int, default=8612, help="synthetic workload seed"
    )
    parser.add_argument(
        "--max-patterns",
        type=int,
        default=8,
        help="largest synthetic BGP size",
    )
    args = parser.parse_args(argv)

    if args.plans:
        from repro.analysis.plan_check import PlanInvariantError, sweep_corpus

        def progress(query: object, opt: int, counters: dict) -> None:
            print(
                f"  {query.name or '<anon>'}: optimal height {opt} "
                f"({counters['plans']} plans so far)"
            )

        try:
            counters = sweep_corpus(
                synthetic=args.synthetic,
                seed=args.seed,
                max_patterns=args.max_patterns,
                progress=progress,
            )
        except PlanInvariantError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(
            f"plan corpus clean: {counters['queries']} queries, "
            f"{counters['plans']} plans ({counters['retained']} retained by "
            f"the cost-bounded search), {counters['physical']} physical, "
            f"{counters['compiled']} compiled"
        )
        return 0

    if not args.paths:
        parser.error("give at least one path to lint (or --plans)")
    from repro.analysis.lint import lint_paths

    findings = lint_paths(args.paths)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
