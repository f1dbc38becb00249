"""End-to-end executor tests: distributed answers == reference evaluator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import cliquesquare
from repro.core.binary import best_bushy_plan, best_linear_plan
from repro.core.decomposition import MSC, MSC_PLUS
from repro.cost.params import CostParams
from repro.mapreduce.engine import ClusterConfig
from repro.partitioning.triple_partitioner import partition_graph
from repro.physical.executor import PlanExecutor
from repro.rdf.graph import RDFGraph
from repro.sparql.evaluator import evaluate
from repro.sparql.parser import parse_query
from tests.conftest import random_connected_query


@pytest.fixture(scope="module")
def executor(university_graph=None):
    from tests.conftest import make_university_graph

    graph = make_university_graph()
    store = partition_graph(graph, 7)
    return graph, PlanExecutor(store)


def run_and_compare(graph, executor, query_text, option=MSC):
    query = parse_query(query_text)
    expected = evaluate(query, graph)
    plans = cliquesquare(query, option, timeout_s=30).unique_plans()
    results = []
    for plan in plans[:6]:
        result = executor.execute(plan)
        assert result.rows == expected, f"plan {plan} wrong"
        results.append(result)
    return results


class TestCorrectness:
    def test_single_pattern(self, executor):
        graph, ex = executor
        run_and_compare(graph, ex, "SELECT ?p ?d WHERE { ?p ub:worksFor ?d }")

    def test_pattern_with_constant_object(self, executor):
        graph, ex = executor
        run_and_compare(
            graph, ex, "SELECT ?d WHERE { ?d ub:subOrganizationOf <univ0> }"
        )

    def test_rdf_type_pattern(self, executor):
        graph, ex = executor
        run_and_compare(graph, ex, "SELECT ?x WHERE { ?x rdf:type ub:FullProfessor }")

    def test_map_only_star_join(self, executor):
        graph, ex = executor
        results = run_and_compare(
            graph,
            ex,
            "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
            "?d ub:subOrganizationOf <univ0> }",
        )
        assert any(r.job_signature() == "M" for r in results)

    def test_two_level_plan(self, executor):
        graph, ex = executor
        results = run_and_compare(
            graph,
            ex,
            "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
            "?p rdf:type ub:FullProfessor . ?s rdf:type ub:Student }",
        )
        assert any(r.num_jobs >= 1 for r in results)

    def test_empty_answer(self, executor):
        graph, ex = executor
        run_and_compare(
            graph, ex, "SELECT ?p WHERE { ?p ub:worksFor <no-such-dept> }"
        )

    def test_binary_plans_agree(self, executor, university_coster):
        graph, ex = executor
        text = (
            "SELECT ?p WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
            "?d ub:subOrganizationOf <univ0> . ?p rdf:type ub:FullProfessor }"
        )
        query = parse_query(text)
        expected = evaluate(query, graph)
        for plan_fn in (best_bushy_plan, best_linear_plan):
            plan, _ = plan_fn(query, university_coster.cost)
            assert ex.execute(plan).rows == expected

    def test_msc_plus_plans_agree(self, executor):
        graph, ex = executor
        run_and_compare(
            graph,
            ex,
            "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
            "?s ub:emailAddress ?e }",
            option=MSC_PLUS,
        )


class TestReports:
    def test_map_only_report(self, executor):
        graph, ex = executor
        q = parse_query("SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }")
        plan = cliquesquare(q, MSC).plans[0]
        result = ex.execute(plan)
        assert result.num_jobs == 1
        assert result.report.jobs[0].map_only
        assert result.report.response_time > 0
        assert result.report.total_work >= result.report.response_time

    def test_job_overhead_increases_response(self):
        from tests.conftest import make_university_graph

        graph = make_university_graph()
        store = partition_graph(graph, 7)
        q = parse_query(
            "SELECT ?x WHERE { ?x p1 ?y . ?y p2 ?z }"
        )
        free = PlanExecutor(store, params=CostParams(job_overhead=0.0))
        paid = PlanExecutor(store, params=CostParams(job_overhead=500.0))
        plan = cliquesquare(q, MSC).plans[0]
        assert (
            paid.execute(plan).response_time
            >= free.execute(plan).response_time + 500.0 - 1e-9
        )

    def test_deeper_plans_need_more_jobs(self, executor, university_coster):
        graph, ex = executor
        text = (
            "SELECT ?p WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
            "?d ub:subOrganizationOf <univ0> . ?p rdf:type ub:FullProfessor }"
        )
        query = parse_query(text)
        msc_best = min(
            cliquesquare(query, MSC).unique_plans(),
            key=university_coster.cost,
        )
        linear, _ = best_linear_plan(query, university_coster.cost)
        assert ex.execute(msc_best).num_jobs <= ex.execute(linear).num_jobs


class TestRandomizedAgainstReference:
    @given(st.integers(0, 10_000), st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_random_queries_random_data(self, seed, n):
        rng = random.Random(seed)
        query = random_connected_query(rng, n)
        g = RDFGraph(validate=False)
        values = [f"<e{i}>" for i in range(5)]
        data_rng = random.Random(seed * 31 + n)
        for i in range(70):
            g.add(
                data_rng.choice(values),
                f"p{data_rng.randrange(n)}",
                data_rng.choice(values),
            )
        expected = evaluate(query, g)
        store = partition_graph(g, 4)
        ex = PlanExecutor(store, ClusterConfig(num_nodes=4))
        for plan in cliquesquare(query, MSC, timeout_s=20).unique_plans()[:4]:
            assert ex.execute(plan).rows == expected


class TestAnswerBlock:
    """A plan's answer is an id-space block (``ExecutionResult.block``),
    each distinct row once, decoded only when ``rows`` is read — on the
    tuple engine and the id-space engine alike."""

    #: reduce-joined on ?C / ?P and projected onto neither, so a
    #: department recurs across the reduce partitions
    DROPS_THE_KEY = (
        "SELECT ?D WHERE { ?S ub:takesCourse ?C . ?P ub:teacherOf ?C . "
        "?P ub:worksFor ?D }"
    )

    @pytest.fixture(scope="class")
    def lubm_store(self):
        from repro.workloads import lubm

        graph = lubm.generate(lubm.LUBMConfig(universities=4))
        return graph, partition_graph(graph, 7)

    @pytest.mark.parametrize("backend", ["serial", "columnar"])
    def test_duplicates_across_partitions_collapse_in_id_space(
        self, lubm_store, backend, monkeypatch
    ):
        import repro.physical.executor as executor_module

        graph, store = lubm_store
        real = executor_module.answer_block
        seen = []

        def counting(attrs, chunks, dictionary):
            chunks = list(chunks)
            seen.append(sum(len(chunk) for chunk in chunks))
            return real(attrs, chunks, dictionary)

        monkeypatch.setattr(executor_module, "answer_block", counting)
        query = parse_query(self.DROPS_THE_KEY)
        plan = cliquesquare(query, MSC).unique_plans()[0]
        with PlanExecutor(store, backend=backend) as ex:
            result = ex.execute(plan)
        assert not result.compiled.jobs[-1].map_only
        assert result.block.dictionary is store.dictionary
        assert len(result.attrs) == 1
        assert result.rows == evaluate(query, graph)
        assert seen[0] > len(result.block) == len(result.rows) > 0

    @pytest.mark.parametrize("backend", ["serial", "columnar"])
    def test_zero_column_answers(self, lubm_store, backend):
        from tests.conformance import ground_queries

        graph, store = lubm_store
        present, absent = ground_queries(graph)
        with PlanExecutor(store, backend=backend) as ex:
            for query, rows in ((present, {()}), (absent, set())):
                plan = cliquesquare(query, MSC).unique_plans()[0]
                result = ex.execute(plan)
                assert result.block.attrs == ()
                assert result.rows == rows == evaluate(query, graph)

    def test_rows_decode_once_on_first_read(self, lubm_store, monkeypatch):
        from repro.rdf.dictionary import Dictionary
        from repro.workloads import lubm_queries

        graph, store = lubm_store
        query = lubm_queries.query("Q1")
        calls = []
        real = Dictionary.decode_column
        monkeypatch.setattr(
            Dictionary,
            "decode_column",
            lambda self, ids: calls.append(len(ids)) or real(self, ids),
        )
        with PlanExecutor(store, backend="columnar") as ex:
            result = ex.execute(cliquesquare(query, MSC).unique_plans()[0])
            assert calls == []
            assert result.rows == evaluate(query, graph)
            assert result.rows is result.rows
        assert len(calls) == len(result.attrs)


class TestLevelProgram:
    """A prepared plan builds its level program on its first execution
    and every later execution reuses it."""

    #: a plan of two levels
    QUERY = "Q8"

    @pytest.fixture(scope="class")
    def lubm_store(self):
        from repro.workloads import lubm

        graph = lubm.generate(lubm.LUBMConfig(universities=4))
        return graph, partition_graph(graph, 7)

    @pytest.fixture(scope="class")
    def plan(self):
        from repro.workloads import lubm_queries

        return cliquesquare(lubm_queries.query(self.QUERY), MSC).plans[0]

    def test_a_cached_plan_builds_one_program(self, lubm_store, plan, program_builds):
        from dataclasses import asdict

        from repro.workloads import lubm_queries

        graph, store = lubm_store
        with PlanExecutor(store, backend="columnar") as ex:
            prepared = ex.prepare(plan)
            assert program_builds == []  # prepare builds none
            first = ex.execute_prepared(prepared)
            second = ex.execute_prepared(prepared)
        assert len(program_builds) == 1 and program_builds[0] is prepared.compiled
        assert len(prepared.program(7).levels) == len(first.report.levels) > 1
        assert asdict(first.report) == asdict(second.report)
        assert first.rows == second.rows == evaluate(
            lubm_queries.query(self.QUERY), graph
        )

    def test_another_cluster_size_gets_its_own_program(self, lubm_store, plan):
        graph, store = lubm_store
        with PlanExecutor(store) as ex:
            prepared = ex.prepare(plan)
            want = ex.execute_prepared(prepared).rows
        small = PlanExecutor(partition_graph(graph, 3))
        assert small.execute_prepared(prepared).rows == want
        jobs = [job for level in prepared.program(3).levels for job in level.jobs]
        assert {len(job.maps) % 3 for job in jobs} == {0}
        assert all(job.num_reducers in (0, 3) for job in jobs)

    @pytest.mark.parametrize("built", [False, True], ids=["fresh", "built"])
    def test_a_pickled_plan_runs_to_the_same_answer_and_report(
        self, lubm_store, plan, built
    ):
        import pickle

        _graph, store = lubm_store
        with PlanExecutor(store, backend="columnar") as ex:
            prepared = ex.prepare(plan)
            if built:
                ex.execute_prepared(prepared)
            clone = pickle.loads(pickle.dumps(prepared))
            got = ex.execute_prepared(clone)
            want = ex.execute_prepared(prepared)
        assert got.rows == want.rows
        assert got.report == want.report

    def test_threads_racing_on_a_fresh_plan_agree(self, lubm_store, plan, monkeypatch):
        """Four threads run one never-executed plan at once, with the
        lock-order witness armed: no lock guards the program, and every
        thread gets the same answer and report."""
        import threading

        monkeypatch.setenv("REPRO_LOCK_CHECK", "1")
        _graph, store = lubm_store
        with PlanExecutor(store, backend="columnar") as ex:
            prepared = ex.prepare(plan)
            barrier = threading.Barrier(4)
            results: list = [None] * 4
            errors: list = []

            def run(index: int) -> None:
                try:
                    barrier.wait()
                    results[index] = ex.execute_prepared(prepared)
                except BaseException as exc:  # pragma: no cover - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert all(r.rows == results[0].rows for r in results)
        assert all(r.report == results[0].report for r in results)
        assert results[0].rows
