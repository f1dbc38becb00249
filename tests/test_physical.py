"""Tests for physical translation (§5.2) and job compilation (§5.3)."""

import pytest

from repro.core.algorithm import cliquesquare
from repro.core.binary import best_linear_plan
from repro.core.decomposition import MSC
from repro.core.properties import height
from repro.physical.job_compiler import compile_plan
from repro.physical.operators import (
    Filter,
    MapJoin,
    MapScan,
    MapShuffler,
    PhysProject,
    ReduceJoin,
    needs_filter,
)
from repro.physical.translate import bind_triple, scan_placement, translate
from repro.sparql.ast import TriplePattern
from repro.sparql.parser import parse_query


def msc_plan(text, **kw):
    q = parse_query(text, **kw)
    return cliquesquare(q, MSC).plans[0]


class TestScanPlacement:
    def test_follows_join_variable_position(self):
        tp = TriplePattern("?p", "ub:worksFor", "?d")
        assert scan_placement(tp, ("?d",)) == "o"
        assert scan_placement(tp, ("?p",)) == "s"

    def test_property_position(self):
        tp = TriplePattern("?s", "?p", "?o")
        assert scan_placement(tp, ("?p",)) == "p"

    def test_defaults_to_subject(self):
        tp = TriplePattern("?p", "ub:worksFor", "?d")
        assert scan_placement(tp, None) == "s"
        assert scan_placement(tp, ("?zz",)) == "s"


class TestNeedsFilter:
    def test_no_constants(self):
        tp = TriplePattern("?s", "ub:p", "?o")
        assert not needs_filter(tp, MapScan(tp, "s"))

    def test_object_constant(self):
        tp = TriplePattern("?s", "ub:p", '"C1"')
        assert needs_filter(tp, MapScan(tp, "s"))

    def test_rdf_type_object_handled_by_file(self):
        tp = TriplePattern("?s", "rdf:type", "ub:Dept")
        scan = MapScan(tp, "s")
        assert scan.type_object == "ub:Dept"
        assert not needs_filter(tp, scan)

    def test_repeated_variable(self):
        tp = TriplePattern("?x", "ub:p", "?x")
        assert needs_filter(tp, MapScan(tp, "s"))


class TestTranslate:
    def test_first_level_join_becomes_map_join(self):
        plan = msc_plan("SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }")
        phys = translate(plan)
        assert isinstance(phys.root, PhysProject)
        body = phys.root.child
        assert isinstance(body, MapJoin)
        assert body.on == ("?d",)
        # both scans placed on the object replica (d is the object)
        scans = [op for op in phys.operators() if isinstance(op, MapScan)]
        assert all(s.placement == "o" for s in scans)

    def test_higher_join_becomes_reduce_join(self):
        plan = msc_plan(
            "SELECT ?x WHERE { ?x p1 ?y . ?y p2 ?z . ?z p3 ?w . ?w p4 ?u }"
        )
        phys = translate(plan)
        assert len(phys.reduce_joins) >= 1

    def test_mf_between_reduce_joins(self):
        q = parse_query(
            "SELECT ?x WHERE { ?a p1 ?x . ?x p2 ?y . ?y p3 ?z . ?z p4 ?w . "
            "?w p5 ?v . ?v p6 ?u . ?u p7 ?t . ?t p8 ?s }"
        )
        plan, _ = best_linear_plan(
            q, lambda op: float(len(list(op.iter_operators())))
        )
        phys = translate(plan)
        shufflers = [op for op in phys.operators() if isinstance(op, MapShuffler)]
        assert shufflers  # RJ over RJ requires a map shuffler
        for mf in shufflers:
            assert any(rj.output_name == mf.source for rj in phys.reduce_joins)

    def test_filter_inserted_for_constants(self):
        plan = msc_plan('SELECT ?j WHERE { ?i p10 ?j . ?j p11 "C1" }')
        phys = translate(plan)
        filters = [op for op in phys.operators() if isinstance(op, Filter)]
        assert len(filters) == 1

    def test_scan_file_descriptions(self):
        tp = TriplePattern("?i", "p10", "?j")
        scan = MapScan(tp, "o")
        assert scan.file_description() == "p10-O"  # like Fig. 15's *p10-O


class TestBindTriple:
    def test_binds_variables(self):
        tp = TriplePattern("?s", "p", "?o")
        assert bind_triple(tp, ("<a>", "p", "<b>")) == ("<a>", "<b>")

    def test_constant_mismatch(self):
        tp = TriplePattern("?s", "p", '"C1"')
        assert bind_triple(tp, ("<a>", "p", '"C2"')) is None
        assert bind_triple(tp, ("<a>", "p", '"C1"')) == ("<a>",)

    def test_repeated_variable_consistency(self):
        tp = TriplePattern("?x", "p", "?x")
        assert bind_triple(tp, ("<a>", "p", "<a>")) == ("<a>",)
        assert bind_triple(tp, ("<a>", "p", "<b>")) is None


class TestJobCompilation:
    def test_map_only_plan(self):
        plan = msc_plan("SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }")
        compiled = compile_plan(translate(plan))
        assert compiled.num_jobs == 1
        assert compiled.jobs[0].map_only
        assert compiled.job_signature() == "M"

    def test_single_pattern_plan(self):
        plan = msc_plan("SELECT ?s WHERE { ?s ub:worksFor ?d }")
        compiled = compile_plan(translate(plan))
        assert compiled.job_signature() == "M"

    def test_one_job_per_reduce_join(self):
        q = parse_query(
            "SELECT ?x WHERE { ?a p1 ?x . ?x p2 ?y . ?y p3 ?z . ?z p4 ?w . "
            "?w p5 ?v . ?v p6 ?u }"
        )
        plan, _ = best_linear_plan(
            q, lambda op: float(len(list(op.iter_operators())))
        )
        phys = translate(plan)
        compiled = compile_plan(phys)
        assert compiled.num_jobs == len(phys.reduce_joins)

    def test_terminal_job_projects(self):
        plan = msc_plan(
            "SELECT ?x WHERE { ?x p1 ?y . ?y p2 ?z . ?z p3 ?w . ?w p4 ?u }"
        )
        compiled = compile_plan(translate(plan))
        terminal = [j for j in compiled.jobs if j.output_name == "result"]
        assert len(terminal) == 1
        assert terminal[0].project == ("?x",)

    def test_dependencies_follow_shufflers(self):
        q = parse_query(
            "SELECT ?x WHERE { ?a p1 ?x . ?x p2 ?y . ?y p3 ?z . ?z p4 ?w . "
            "?w p5 ?v . ?v p6 ?u . ?u p7 ?t . ?t p8 ?s }"
        )
        plan, _ = best_linear_plan(
            q, lambda op: float(len(list(op.iter_operators())))
        )
        compiled = compile_plan(translate(plan))
        by_name = {j.name: j for j in compiled.jobs}
        for job in compiled.jobs:
            for dep in job.depends:
                assert dep in by_name

    def test_job_signature_counts(self):
        plan = msc_plan(
            "SELECT ?x WHERE { ?x p1 ?y . ?y p2 ?z . ?z p3 ?w . ?w p4 ?u }"
        )
        compiled = compile_plan(translate(plan))
        assert compiled.job_signature() == str(compiled.num_jobs)
        assert compiled.num_jobs >= 1


class TestExplain:
    def test_explain_layers(self):
        from repro.physical.explain import explain

        plan = cliquesquare(
            parse_query(
                "SELECT ?p WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
                "?p rdf:type ub:FullProfessor . ?s rdf:type ub:Student }"
            ),
            MSC,
        ).plans[0]
        text = explain(plan)
        assert "== logical plan" in text
        assert "== physical plan ==" in text
        assert "== MapReduce jobs" in text
        assert compile_plan(translate(plan)).num_jobs >= 1
        assert f"== logical plan (height {height(plan)}" in text

    def test_map_only_summary(self):
        plan = cliquesquare(
            parse_query("SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }"),
            MSC,
        ).plans[0]
        compiled = compile_plan(translate(plan))
        assert all(job.map_only for job in compiled.jobs)
        assert compiled.job_signature() == "M"
