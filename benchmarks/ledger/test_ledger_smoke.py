"""Tier-1 smoke of the perf ledger: every workload and its traced run at
a tiny size, so a ``src/`` change that breaks a public call the
benchmark relies on fails here and not in the perf gate."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from benchmarks.ledger import metrics
from benchmarks.ledger.run import ROOT, measure
from benchmarks.ledger.workloads import WORKLOADS

#: The smallest data (LUBM at its minimum scale) and 3 rounds.
SMALL = {"seed": 12, "seconds": 0.6, "small": True}

#: Counters that must repeat exactly at a fixed seed.  lubm_warm and
#: rpc_shards serve the same 14 queries, so their two traced runs are
#: two runs of one seed for these.
EXACT = ("core.plans_enumerated", "mapreduce.tuples_shuffled", "service.optimizer_runs")
_traced: dict[str, dict] = {}


def test_benchmark_json_lists_what_the_ledger_measures():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == metrics.benchmark_json()
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_end_to_end(name):
    result, _detail = measure(name, trace=False, **SMALL)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 1
    emitted = {key: cell["unit"] for key, cell in result["metrics"].items()}
    assert emitted == metrics.E2E_UNITS
    assert all(cell["value"] > 0 for cell in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_traced(name):
    result, detail = measure(name, trace=True, **SMALL)
    assert result["failed"] == 0 and result["correct"]
    emitted = {key: cell["unit"] for key, cell in result["metrics"].items()}
    assert emitted == metrics.LAYER_UNITS
    if name == "rpc_shards":
        # Two concurrent clients, yet every op of a query class ships the
        # same number of frames: the count repeats exactly.
        assert result["metrics"]["cluster.rpc.frames_per_query"]["value"] > 0
        assert detail["frames_values_per_class"] == 1
    _traced[name] = result["metrics"]
    if {"lubm_warm", "rpc_shards"} <= set(_traced):
        for key in EXACT:
            assert _traced["lubm_warm"][key] == _traced["rpc_shards"][key], key
