"""Tests for the MapReduce simulator substrate (jobs, engine, HDFS)."""

import pytest

from repro.cost.params import CostParams
from repro.mapreduce.counters import TaskMetrics
from repro.mapreduce.engine import (
    ClusterConfig,
    MapReduceEngine,
    graph_program,
    run_jobs,
)
from repro.mapreduce.hdfs import HDFS, DistributedRelation
from repro.mapreduce.jobs import (
    JobGraph,
    MapReduceJob,
    MapTask,
    TaskContext,
    stable_hash,
)


def metrics(**kw) -> TaskMetrics:
    m = TaskMetrics()
    for k, v in kw.items():
        setattr(m, k, v)
    return m


class TestTaskMetrics:
    def test_time_formula(self):
        p = CostParams(c_read=1, c_write=2, c_shuffle=3, c_check=4, c_join=5)
        m = metrics(
            tuples_read=1, tuples_written=1, tuples_shuffled=1, checks=1, join_tuples=1
        )
        assert m.time(p) == 1 + 2 + 3 + 4 + 5

    def test_merge(self):
        a = metrics(tuples_read=2)
        a.merge(metrics(tuples_read=3, checks=1))
        assert a.tuples_read == 5 and a.checks == 1


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(("a", "b")) == stable_hash(("a", "b"))

    def test_discriminates(self):
        values = {stable_hash((f"v{i}",)) for i in range(100)}
        assert len(values) > 90

    def test_order_sensitive(self):
        assert stable_hash(("a", "b")) != stable_hash(("b", "a"))


class TestHDFS:
    def test_write_read(self):
        fs = HDFS(num_nodes=3)
        rel = DistributedRelation(("?a",), [[(1,)], [], [(2,)]])
        fs.write("f", rel)
        assert fs.read("f") is rel
        assert len(rel) == 2
        assert set(rel.all_rows()) == {(1,), (2,)}

    def test_duplicate_write_rejected(self):
        fs = HDFS(num_nodes=1)
        fs.write("f", DistributedRelation.empty(("?a",), 1))
        with pytest.raises(FileExistsError):
            fs.write("f", DistributedRelation.empty(("?a",), 1))

    def test_missing_read(self):
        with pytest.raises(FileNotFoundError):
            HDFS(num_nodes=1).read("nope")

    def test_write_partitioned(self):
        fs = HDFS(num_nodes=2)
        rel = fs.write_partitioned("f", ("?a",), [(0, [(1,)]), (1, [(2,), (3,)])])
        assert rel.partitions[1] == [(2,), (3,)]


class TestJobGraph:
    def j(self, name, deps=()):
        return MapReduceJob(name=name, map_tasks=[], depends_on=tuple(deps))

    def test_levels_simple_chain(self):
        g = JobGraph()
        g.add(self.j("a"))
        g.add(self.j("b", ["a"]))
        g.add(self.j("c", ["b"]))
        levels = g.levels()
        assert [sorted(j.name for j in lv) for lv in levels] == [["a"], ["b"], ["c"]]

    def test_independent_jobs_share_level(self):
        g = JobGraph()
        g.add(self.j("a"))
        g.add(self.j("b"))
        g.add(self.j("c", ["a", "b"]))
        levels = g.levels()
        assert sorted(j.name for j in levels[0]) == ["a", "b"]
        assert [j.name for j in levels[1]] == ["c"]

    def test_duplicate_names_rejected(self):
        g = JobGraph()
        g.add(self.j("a"))
        with pytest.raises(ValueError):
            g.add(self.j("a"))

    def test_unknown_dependency(self):
        g = JobGraph()
        g.add(self.j("a", ["zzz"]))
        with pytest.raises(ValueError):
            g.levels()

    def test_cycle_detected(self):
        g = JobGraph()
        g.add(self.j("a", ["b"]))
        g.add(self.j("b", ["a"]))
        with pytest.raises(ValueError):
            g.levels()

    def test_reduce_fn_consistency(self):
        with pytest.raises(ValueError):
            MapReduceJob(name="x", map_tasks=[], num_reducers=2)
        with pytest.raises(ValueError):
            MapReduceJob(
                name="x", map_tasks=[], num_reducers=0, reducer=lambda p, g: ([], None)
            )


class TestEngine:
    def word_count_job(self, docs_per_node):
        """A classic word count as a sanity check of the MR semantics."""

        def make_mapper(node, words):
            def run():
                m = TaskMetrics()
                m.tuples_read = len(words)
                emits = [(stable_hash((w,)) % 3, 0, (w, 1)) for w in words]
                return emits, [], m

            return run

        tasks = [
            MapTask(node=node, run=make_mapper(node, words))
            for node, words in enumerate(docs_per_node)
        ]

        def reducer(partition, grouped):
            m = TaskMetrics()
            counts = {}
            for w, c in grouped.get(0, []):
                m.tuples_shuffled += 1
                counts[w] = counts.get(w, 0) + c
            rows = sorted(counts.items())
            m.tuples_written = len(rows)
            return rows, m

        return MapReduceJob(
            name="wc", map_tasks=tasks, num_reducers=3, reducer=reducer
        )

    def test_word_count(self):
        job = self.word_count_job([["a", "b"], ["a"], ["c", "a"]])
        ctx = TaskContext(num_nodes=3, hdfs=HDFS(num_nodes=3))
        report = run_jobs([job], ClusterConfig(num_nodes=3), ctx=ctx)
        collected = dict(ctx.hdfs.read("wc").all_rows())
        assert collected == {"a": 3, "b": 1, "c": 1}
        assert report.num_jobs == 1
        assert not report.jobs[0].map_only
        assert report.jobs[0].tuples_shuffled == 5

    def test_map_only_job(self):
        def mapper():
            m = TaskMetrics()
            m.tuples_read = 2
            return [], [(1,), (2,)], m

        job = MapReduceJob(name="scan", map_tasks=[MapTask(node=0, run=mapper)])
        ctx = TaskContext(num_nodes=2, hdfs=HDFS(num_nodes=2))
        report = run_jobs([job], ClusterConfig(num_nodes=2), ctx=ctx)
        assert list(ctx.hdfs.read("scan").partitions[0]) == [(1,), (2,)]
        assert report.jobs[0].map_only

    def test_response_time_levels_are_barriers(self):
        """Two independent jobs overlap; a dependent job adds its time."""

        def mapper(cost):
            def run():
                m = TaskMetrics()
                m.tuples_read = cost
                return [], [], m

            return run

        params = CostParams(c_read=1.0, job_overhead=0.0)

        def mk(name, cost, deps=()):
            return MapReduceJob(
                name=name,
                map_tasks=[MapTask(node=0, run=mapper(cost))],
                depends_on=tuple(deps),
            )

        report = run_jobs(
            [mk("a", 10), mk("b", 6), mk("c", 4, ["a", "b"])],
            ClusterConfig(num_nodes=2),
            params,
        )
        # level 0: max(10, 6) = 10; level 1: 4
        assert report.response_time == pytest.approx(14.0)
        assert report.total_work == pytest.approx(20.0)

    def test_job_overhead_charged(self):
        params = CostParams(job_overhead=100.0)

        def mapper():
            return [], [], TaskMetrics()

        job = MapReduceJob(name="a", map_tasks=[MapTask(node=0, run=mapper)])
        report = run_jobs([job], ClusterConfig(num_nodes=1), params)
        assert report.response_time == pytest.approx(100.0)

    def test_map_phase_time_is_max_over_nodes(self):
        params = CostParams(c_read=1.0)

        def mapper(cost):
            def run():
                m = TaskMetrics()
                m.tuples_read = cost
                return [], [], m

            return run

        job = MapReduceJob(
            name="a",
            map_tasks=[
                MapTask(node=0, run=mapper(5)),
                MapTask(node=1, run=mapper(9)),
                MapTask(node=0, run=mapper(2)),  # same node: serial
            ],
        )
        report = MapReduceEngine(ClusterConfig(num_nodes=2), params).execute(
            graph_program(_graph_of([job]))
        )
        assert report.jobs[0].map_time == pytest.approx(9.0)


def _graph_of(jobs):
    g = JobGraph()
    for j in jobs:
        g.add(j)
    return g
