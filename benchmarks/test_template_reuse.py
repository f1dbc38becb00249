"""Template reuse: bound-template submission vs cold optimization.

Characterizes the prepared-query layer (this repo's parameterized plan
templates): a *constant-varying* workload — the same query shapes probed
with many distinct constants — is the one repetition pattern the
classical plan cache cannot exploit, because every constant combination
has its own constant-inclusive canonical signature.  Template extraction
lifts the constants out, so the CliqueSquare optimizer runs **once per
shape** and every further query only binds constants into the compiled
plan and executes.

The benchmark submits the same mix to two services:

* **cold** — ``enable_templates=False`` (the legacy behaviour): every
  distinct constant combination pays full optimization;
* **template** — the default: one optimizer run per shape, then
  bind + execute per query.

Answers must be identical, the optimizer must run once per shape
instead of once per constant, and the template service must run the mix
>= 2.5x faster.  The ratio is 1 + planning / (bind + execute) of a cold
query; the floor was 5x while planning was ~20x the rest, and the
cost-bounded search cut planning to ~3.3x the rest: 4.2-4.4x in five
runs on the 2-CPU reference host, 3.7-5.3x over sixteen (five of them
with both CPUs contended), so the floor sits at 0.6 of the median.  Results land in
``benchmarks/results/template_reuse.txt``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.service.service import QueryService, ServiceConfig
from repro.workloads import lubm

#: Wall-clock thresholds hold comfortably on a quiet machine but can
#: flake on noisy shared CI runners; SERVICE_BENCH_STRICT=0 keeps the
#: runs + recorded tables as a smoke test without gating on timings.
STRICT = os.environ.get("SERVICE_BENCH_STRICT", "1") != "0"

#: Two heavy LUBM shapes with one constant varied (Q13- and Q14-like;
#: their 9-10 patterns make optimization the dominant per-query cost,
#: exactly the regime where plan reuse pays).  Q13var varies an IRI
#: (university), Q14var a literal (university name).
SHAPES = {
    "Q13var": (
        "SELECT ?X ?Y ?Z WHERE {{ ?X rdf:type ub:FullProfessor . "
        "?X ub:teacherOf ?Y . ?Y rdf:type ub:GraduateCourse . "
        "?X ub:worksFor ?Z . ?W ub:advisor ?X . "
        "?W rdf:type ub:GraduateStudent . ?W ub:emailAddress ?E . "
        "?Z rdf:type ub:Department . ?Z ub:subOrganizationOf {c} }}"
    ),
    "Q14var": (
        "SELECT ?X ?Y ?Z WHERE {{ ?X rdf:type ub:FullProfessor . "
        "?X ub:teacherOf ?Y . ?Y rdf:type ub:GraduateCourse . "
        "?X ub:worksFor ?Z . ?W ub:advisor ?X . "
        "?W rdf:type ub:GraduateStudent . ?W ub:emailAddress ?E . "
        "?Z rdf:type ub:Department . ?Z ub:subOrganizationOf ?U . "
        "?U ub:name {c} }}"
    ),
}
CONSTANTS = 25  # distinct constants per shape
SPEEDUP_FLOOR = 2.5  # see the module docstring for its measured basis


@pytest.fixture(scope="module")
def graph():
    return lubm.generate(lubm.LUBMConfig(universities=8))


def _mix() -> list[str]:
    mix = [
        SHAPES["Q13var"].format(c=lubm.university_iri(i))
        for i in range(CONSTANTS)
    ]
    mix += [
        SHAPES["Q14var"].format(c=f'"University{i}"')
        for i in range(CONSTANTS)
    ]
    return mix


def test_template_reuse_speedup(graph, record_table):
    mix = _mix()

    cold_cfg = ServiceConfig(enable_templates=False, result_cache_size=0)
    with QueryService(graph, cold_cfg) as cold_svc:
        t0 = time.perf_counter()
        cold = [cold_svc.submit(q) for q in mix]
        cold_s = time.perf_counter() - t0
        cold_snap = cold_svc.snapshot_stats()

    with QueryService(graph, ServiceConfig(result_cache_size=0)) as tmpl_svc:
        t0 = time.perf_counter()
        warm = [tmpl_svc.submit(q) for q in mix]
        tmpl_s = time.perf_counter() - t0
        tmpl_snap = tmpl_svc.snapshot_stats()

    # Identical answers, submission by submission.
    assert [o.rows for o in warm] == [o.rows for o in cold]
    # One optimizer invocation per *shape*, not per constant.
    assert tmpl_snap.optimizer_runs == len(SHAPES)
    assert tmpl_snap.template_hits == len(mix) - len(SHAPES)
    assert cold_snap.optimizer_runs == len(mix)

    speedup = cold_s / tmpl_s
    qps_cold = len(mix) / cold_s
    qps_tmpl = len(mix) / tmpl_s
    lines = [
        "template_reuse: bound-template submission vs cold optimization",
        f"(LUBM universities=8, |G|={len(graph)}, {len(SHAPES)} shapes x "
        f"{CONSTANTS} distinct constants = {len(mix)} submissions, "
        "result cache off in both services)",
        "",
        f"{'mode':>10} {'total_s':>9} {'q/s':>8} {'optimizer runs':>15}",
        f"{'cold':>10} {cold_s:>9.3f} {qps_cold:>8.1f} "
        f"{cold_snap.optimizer_runs:>15}",
        f"{'template':>10} {tmpl_s:>9.3f} {qps_tmpl:>8.1f} "
        f"{tmpl_snap.optimizer_runs:>15}",
        f"speedup: {speedup:.1f}x",
        "",
        tmpl_snap.format(),
    ]
    record_table("template_reuse", "\n".join(lines))

    if STRICT:
        assert speedup >= SPEEDUP_FLOOR, (
            f"template reuse should be >={SPEEDUP_FLOOR}x faster than cold "
            f"optimization, got {speedup:.1f}x"
        )
