"""Shared helpers for the figure-regeneration benchmarks.

Every ``test_figNN_*`` benchmark regenerates one table/figure of the
paper (see DESIGN.md's per-experiment index), prints a paper-vs-measured
table, writes it to ``benchmarks/results/``, and asserts the qualitative
shape that the paper's conclusion rests on.  The tracked tables hold
only what repeats bit for bit; a table of host times goes to the
git-ignored ``benchmarks/results/out/`` (its qualitative assertions stay
in its test).
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record_table(results_dir):
    """Print a table and persist it under benchmarks/results/<name>.txt
    (``host_time=True``: under the untracked benchmarks/results/out/)."""

    def _record(name: str, table: str, host_time: bool = False) -> None:
        print()
        print(table)
        target = results_dir / "out" if host_time else results_dir
        target.mkdir(exist_ok=True)
        (target / f"{name}.txt").write_text(table + "\n")

    return _record


def once(benchmark, fn):
    """Run a heavyweight figure computation exactly once under timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
