"""Plan-invariant checker: hand-built violations must be rejected, the
real optimizer pipeline must pass, and the runtime hook must obey its
environment flag."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.plan_check import (
    PlanInvariantError,
    check_compiled_plan,
    check_level_program,
    check_logical_plan,
    check_physical_plan,
    check_plan_space,
    maybe_check,
    plans_checked,
    sweep_corpus,
)
from repro.core.algorithm import cliquesquare
from repro.core.decomposition import MSC
from repro.core.logical import Join, LogicalPlan, Match, Project
from repro.core.properties import height, optimal_height
from repro.mapreduce.backends import TaskBatch
from repro.physical.executor import level_program
from repro.physical.job_compiler import compile_plan
from repro.physical.translate import translate
from repro.sparql.parser import parse_query

CHAIN_QUERY = (
    "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . "
    "?z ub:subOrganizationOf ?w }"
)

STAR_QUERY = (
    "SELECT ?p WHERE { ?p ub:worksFor ?d . ?p rdf:type ub:FullProfessor }"
)


@pytest.fixture(scope="module")
def chain_query():
    return parse_query(CHAIN_QUERY)


@pytest.fixture(scope="module")
def chain_result(chain_query):
    return cliquesquare(chain_query, MSC)


def _leaves(query):
    return [Match(pattern) for pattern in query.patterns]


class TestLogicalNegatives:
    def test_optimizer_plans_pass(self, chain_result, chain_query):
        for plan in chain_result.plans:
            check_logical_plan(plan, chain_query)

    def test_too_tall_plan_rejected(self, chain_query):
        # Three join levels over 3 patterns: one above the n-1 bound
        # (the redundant top join re-joins m3, keeping leaves covered).
        m1, m2, m3 = _leaves(chain_query)
        j1 = Join(on=("?y",), inputs=(m1, m2))
        j2 = Join(on=("?z",), inputs=(j1, m3))
        j3 = Join(on=("?z",), inputs=(j2, m3))
        with pytest.raises(PlanInvariantError):
            check_logical_plan(
                LogicalPlan(root=Project(on=("?x", "?z"), child=j3),
                            query=chain_query),
                chain_query,
            )

    def test_double_covered_leaf_rejected(self, chain_query):
        # The same triple pattern joined in twice at one level.
        m1, m2, m3 = _leaves(chain_query)
        j1 = Join(on=("?y",), inputs=(m1, m2))
        j2 = Join(on=("?y",), inputs=(m1, m2))
        root = Join(on=("?z",), inputs=(j1, j2, m3))
        with pytest.raises(PlanInvariantError):
            check_logical_plan(
                LogicalPlan(root=Project(on=("?x", "?z"), child=root),
                            query=chain_query),
                chain_query,
            )

    def test_missing_leaf_rejected(self, chain_query):
        m1, m2, _ = _leaves(chain_query)
        root = Join(on=("?y",), inputs=(m1, m2))
        with pytest.raises(PlanInvariantError, match="cover"):
            check_logical_plan(
                LogicalPlan(root=Project(on=("?x",), child=root),
                            query=chain_query),
                chain_query,
            )

    def test_projection_dropping_live_variable_rejected(self, chain_query):
        m1, m2, m3 = _leaves(chain_query)
        # The inner projection drops distinguished ?x mid-plan; every
        # join stays locally valid, only the liveness walk catches it.
        j1 = Join(on=("?y",), inputs=(m1, m2))
        pruned = Project(on=("?y", "?z"), child=j1)
        root = Join(on=("?z",), inputs=(pruned, m3))
        with pytest.raises(PlanInvariantError, match="live"):
            check_logical_plan(
                LogicalPlan(root=Project(on=("?z",), child=root),
                            query=chain_query),
                chain_query,
            )


class TestPlanSpace:
    def test_space_is_ho_partial(self, chain_query, chain_result):
        check_plan_space(chain_query, chain_result)

    def test_truncated_space_without_ho_plan_rejected(self):
        # LUBM Q5's MSC space mixes heights 2 and 3: dropping every
        # height-optimal plan must trip the HO-partiality check.
        from repro.workloads.lubm_queries import all_queries

        query = next(q for q in all_queries() if q.name == "Q5")
        result = cliquesquare(query, MSC)
        optimal = optimal_height(query)
        taller = [p for p in result.plans if height(p) > optimal]
        assert taller, "Q5's space no longer mixes heights?"
        pruned = type(result)(
            query=query,
            option=result.option,
            plans=taller,
            truncated=True,
        )
        with pytest.raises(PlanInvariantError, match="height"):
            check_plan_space(query, pruned)


class TestPhysicalAndCompiled:
    def test_translated_and_compiled_pass(self, chain_result, chain_query):
        plan = chain_result.plans[0]
        physical = translate(plan)
        check_physical_plan(physical, chain_query)
        compiled = compile_plan(physical)
        check_compiled_plan(compiled, physical, plan)


class TestLevelProgram:
    """A level program must place every job of its DAG once, at its
    topological level, with the task groups ``task_groups`` makes."""

    NODES = 3

    @pytest.fixture(scope="class")
    def two_levels(self):
        from repro.workloads import lubm_queries

        plan = cliquesquare(lubm_queries.query("Q8"), MSC).plans[0]
        compiled = compile_plan(translate(plan))
        program = level_program(compiled, self.NODES)
        assert len(program.levels) == 2
        return compiled, program

    def test_programs_of_optimizer_plans_pass(self, chain_result, two_levels):
        compiled, program = two_levels
        check_level_program(program, compiled)
        for plan in chain_result.plans:
            compiled = compile_plan(translate(plan))
            check_level_program(level_program(compiled, self.NODES), compiled)

    def test_dropped_job_rejected(self, two_levels):
        compiled, program = two_levels
        dropped = replace(program, levels=program.levels[:1])
        with pytest.raises(PlanInvariantError, match="places jobs"):
            check_level_program(dropped, compiled)

    def test_swapped_levels_rejected(self, two_levels):
        compiled, program = two_levels
        swapped = replace(program, levels=program.levels[::-1])
        with pytest.raises(PlanInvariantError, match="topological level"):
            check_level_program(swapped, compiled)

    def test_split_group_rejected(self, two_levels):
        compiled, program = two_levels
        first = program.levels[0]
        groups = first.maps.groups
        at = next(i for i, group in enumerate(groups) if len(group) > 1)
        split = groups[:at] + (groups[at][:1], groups[at][1:]) + groups[at + 1 :]
        level = replace(first, maps=TaskBatch(first.maps.invocations, split))
        broken = replace(program, levels=(level,) + program.levels[1:])
        with pytest.raises(PlanInvariantError, match="map groups"):
            check_level_program(broken, compiled)

    def test_execution_checks_the_program_it_builds(self, monkeypatch):
        """Under ``REPRO_CHECK_PLANS=1`` a prepared plan checks its level
        program as it builds it, so a ``level_program`` that swaps two
        levels fails the first execution."""
        import repro.physical.executor as executor_module
        from repro.partitioning.triple_partitioner import partition_graph
        from repro.workloads import lubm, lubm_queries

        real = executor_module.level_program

        def swapping(compiled, num_nodes):
            program = real(compiled, num_nodes)
            return replace(program, levels=program.levels[::-1])

        monkeypatch.setattr(executor_module, "level_program", swapping)
        monkeypatch.setenv("REPRO_CHECK_PLANS", "1")
        graph = lubm.generate(lubm.LUBMConfig(universities=4))
        executor = executor_module.PlanExecutor(partition_graph(graph, self.NODES))
        prepared = executor.prepare(cliquesquare(lubm_queries.query("Q8"), MSC).plans[0])
        with pytest.raises(PlanInvariantError, match="topological level"):
            executor.execute_prepared(prepared)


class TestRuntimeHook:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_PLANS", raising=False)
        assert not plans_checked()

    def test_enabled_by_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_PLANS", "1")
        assert plans_checked()

    def test_maybe_check_runs_when_enabled(self, monkeypatch, chain_query):
        monkeypatch.setenv("REPRO_CHECK_PLANS", "1")
        m1, m2, _ = _leaves(chain_query)
        bad = LogicalPlan(
            root=Project(on=("?x",), child=Join(on=("?y",), inputs=(m1, m2))),
            query=chain_query,
        )
        with pytest.raises(PlanInvariantError):
            maybe_check(bad, query=chain_query)
        monkeypatch.delenv("REPRO_CHECK_PLANS")
        maybe_check(bad, query=chain_query)  # no-op when disabled


class TestCorpus:
    def test_small_sweep(self):
        summary = sweep_corpus(synthetic=6, seed=42, max_patterns=5)
        assert summary["queries"] >= 14  # LUBM alone contributes 14
        assert summary["plans"] > 0
        assert summary["compiled"] > 0
