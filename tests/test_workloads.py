"""Tests for the LUBM generator, the 14-query workload, and the
synthetic query generator."""

import pytest

from repro.rdf.terms import RDF_TYPE
from repro.sparql.evaluator import evaluate
from repro.workloads import lubm
from repro.workloads.lubm_queries import (
    FIG22_CHARACTERISTICS,
    NON_SELECTIVE,
    ORIGINAL,
    QUERY_NAMES,
    SELECTIVE,
    all_queries,
    query,
)
from repro.workloads.synthetic import (
    SHAPES,
    SyntheticWorkload,
    chain_query,
    random_query,
    star_query,
)


@pytest.fixture(scope="module")
def small_lubm():
    return lubm.generate(lubm.LUBMConfig(universities=4, undergraduates_per_department=6))


class TestLUBMGenerator:
    def test_deterministic(self):
        cfg = lubm.LUBMConfig(universities=4)
        assert set(lubm.generate(cfg)) == set(lubm.generate(cfg))

    def test_seed_changes_data(self):
        a = lubm.generate(lubm.LUBMConfig(universities=4, seed=1))
        b = lubm.generate(lubm.LUBMConfig(universities=4, seed=2))
        assert set(a) != set(b)

    def test_scales_with_universities(self):
        small = lubm.generate(lubm.LUBMConfig(universities=4))
        large = lubm.generate(lubm.LUBMConfig(universities=8))
        assert len(large) > 1.8 * len(small) * 0.9

    def test_minimum_universities_enforced(self):
        with pytest.raises(ValueError):
            lubm.LUBMConfig(universities=3)

    def test_schema_properties_present(self, small_lubm):
        expected = {
            RDF_TYPE,
            "ub:worksFor",
            "ub:memberOf",
            "ub:subOrganizationOf",
            "ub:teacherOf",
            "ub:takesCourse",
            "ub:advisor",
            "ub:emailAddress",
            "ub:doctoralDegreeFrom",
            "ub:undergraduateDegreeFrom",
            "ub:name",
        }
        assert expected <= small_lubm.properties

    def test_university0_exists(self, small_lubm):
        assert (lubm.UNIVERSITY0, RDF_TYPE, "ub:University") in small_lubm

    def test_university3_named(self, small_lubm):
        assert small_lubm.count_match("?u", "ub:name", '"University3"') == 1


class TestWorkloadQueries:
    def test_all_fourteen_parse(self):
        queries = all_queries()
        assert [q.name for q in queries] == list(QUERY_NAMES)

    def test_fig22_triple_pattern_counts(self):
        for name, (tps, _) in FIG22_CHARACTERISTICS.items():
            assert len(query(name).patterns) == tps, name

    def test_fig22_join_variable_counts(self):
        for name, (_, jv) in FIG22_CHARACTERISTICS.items():
            assert len(query(name).join_variables()) == jv, name

    def test_all_queries_connected(self):
        for q in all_queries():
            assert q.is_connected(), q.name

    def test_selectivity_classes_partition_workload(self):
        assert SELECTIVE | NON_SELECTIVE == set(QUERY_NAMES)
        assert not SELECTIVE & NON_SELECTIVE

    def test_original_queries_subset(self):
        assert ORIGINAL <= set(QUERY_NAMES)

    def test_unknown_query_rejected(self):
        with pytest.raises(KeyError):
            query("Q99")

    def test_all_queries_nonempty_on_generated_data(self, small_lubm):
        """Every workload query must return answers (the paper modified
        LUBM queries so that none is empty without reasoning)."""
        for q in all_queries():
            assert evaluate(q, small_lubm), f"{q.name} is empty"

    def test_selective_vs_nonselective_ordering(self, small_lubm):
        """Selective queries return far fewer answers than non-selective
        ones, matching the paper's two classes.  At laptop scale the
        classes can overlap at the boundary (Q3 vs Q12: their cardinality
        ratio is scale-dependent), so the medians are compared."""
        import statistics

        cards = {q.name: len(evaluate(q, small_lubm)) for q in all_queries()}
        median_selective = statistics.median(cards[n] for n in SELECTIVE)
        median_nonselective = statistics.median(cards[n] for n in NON_SELECTIVE)
        assert median_selective * 3 < median_nonselective


class TestSyntheticGenerator:
    def test_chain_shape(self):
        q = chain_query(5)
        assert len(q) == 5
        assert len(q.join_variables()) == 4
        assert q.is_connected()

    def test_star_shape(self):
        q = star_query(5)
        assert len(q.join_variables()) == 1
        assert q.is_connected()

    def test_random_thin_connected(self):
        import random

        rng = random.Random(1)
        for n in (1, 3, 6, 10):
            q = random_query(n, dense=False, rng=rng)
            assert len(q) == n
            assert q.is_connected()

    def test_random_dense_has_many_shared_variables(self):
        import random

        rng = random.Random(2)
        thin = random_query(8, dense=False, rng=rng)
        dense = random_query(8, dense=True, rng=rng)
        assert len(set(dense.variables())) <= len(set(thin.variables()))

    def test_workload_batch(self):
        wl = SyntheticWorkload(queries_per_shape=10)
        batch = wl.generate()
        assert set(batch) == set(SHAPES)
        for shape, queries in batch.items():
            assert len(queries) == 10
            sizes = [len(q) for q in queries]
            assert min(sizes) == 1 and max(sizes) == 10
            assert all(q.is_connected() for q in queries)

    def test_workload_deterministic(self):
        a = SyntheticWorkload(seed=5).generate(["thin"])
        b = SyntheticWorkload(seed=5).generate(["thin"])
        assert [q.patterns for q in a["thin"]] == [q.patterns for q in b["thin"]]

    def test_dense_projects_a_variable_that_occurs(self):
        # Regression: dense queries projected pool[0] whether or not any
        # pattern drew it, so this call raised "distinguished variable
        # '?v0' not in query body".
        batch = SyntheticWorkload(
            queries_per_shape=300, min_patterns=2, max_patterns=10, seed=7
        ).generate(("thin", "dense"))
        for queries in batch.values():
            assert len(queries) == 300
            for q in queries:
                assert set(q.distinguished) <= set(q.variables())

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            SyntheticWorkload().generate(["triangle"])

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            chain_query(0)
        with pytest.raises(ValueError):
            star_query(0)
