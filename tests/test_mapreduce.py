"""Tests for the MapReduce simulator substrate (jobs, engine, HDFS)."""

from dataclasses import dataclass

import pytest

from repro.cost.params import CostParams
from repro.mapreduce.backends import TaskInvocation
from repro.mapreduce.counters import TaskMetrics
from repro.mapreduce.engine import (
    ClusterConfig,
    LevelProgram,
    MapReduceEngine,
    ProgramJob,
    program_level,
)
from repro.mapreduce.hdfs import HDFS, DistributedRelation
from repro.mapreduce.jobs import (
    MapTaskSpec,
    ReduceTaskSpec,
    TaskContext,
    flatten,
    stable_hash,
    topological_levels,
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
        assert {row for part in rel.partitions for row in part} == {(1,), (2,)}

    def test_duplicate_write_rejected(self):
        fs = HDFS(num_nodes=1)
        fs.write("f", DistributedRelation.empty(("?a",), 1))
        with pytest.raises(FileExistsError):
            fs.write("f", DistributedRelation.empty(("?a",), 1))

    def test_missing_read(self):
        with pytest.raises(FileNotFoundError):
            HDFS(num_nodes=1).read("nope")


class TestJobGraph:
    """Scheduling levels of a job DAG (:func:`topological_levels`)."""

    def test_levels_simple_chain(self):
        levels = topological_levels([("a", ()), ("b", ["a"]), ("c", ["b"])])
        assert levels == [[0], [1], [2]]

    def test_independent_jobs_share_level(self):
        levels = topological_levels([("a", ()), ("b", ()), ("c", ["a", "b"])])
        assert levels == [[0, 1], [2]]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            topological_levels([("a", ()), ("a", ())])

    def test_unknown_dependency(self):
        with pytest.raises(ValueError, match="unknown"):
            topological_levels([("a", ["zzz"])])

    def test_cycle_detected(self):
        with pytest.raises(ValueError, match="cycle"):
            topological_levels([("a", ["b"]), ("b", ["a"])])

    def test_reduce_fn_consistency(self):
        with pytest.raises(ValueError):
            job("x", num_reducers=2)
        with pytest.raises(ValueError):
            job("x", reduce_spec=_WordCount())


@dataclass(frozen=True)
class _Emit(MapTaskSpec):
    """A map task reading *read* tuples: it emits each word as a
    ``(word, 1)`` row to partition ``stable_hash % 3`` (tag 0) and
    returns *direct* as its direct output."""

    node: int = 0
    words: tuple = ()
    direct: tuple = ()
    read: int = 0

    def run(self, ctx):
        m = TaskMetrics()
        m.tuples_read = self.read or len(self.words)
        shuffle: dict[int, list] = {}
        for word in self.words:
            shuffle.setdefault(stable_hash((word,)) % 3, []).append((word, 1))
        return [(p, 0, rows) for p, rows in shuffle.items()], list(self.direct), m


@dataclass(frozen=True)
class _WordCount(ReduceTaskSpec):
    """Sums the counts of the ``(word, count)`` rows tagged 0."""

    def run(self, ctx, partition, grouped):
        m = TaskMetrics()
        counts: dict = {}
        for word, count in flatten(grouped.get(0, [])):
            m.tuples_shuffled += 1
            counts[word] = counts.get(word, 0) + count
        rows = sorted(counts.items())
        m.tuples_written = len(rows)
        return rows, m


def job(name, *maps, reduce_spec=None, num_reducers=0):
    """A program job publishing under its name, with no schema."""
    invocations = tuple(TaskInvocation(spec, (), spec.node) for spec in maps)
    return ProgramJob(name, name, (), invocations, reduce_spec, num_reducers)


def run(*levels, num_nodes, params=CostParams()):
    """Run *levels* (lists of jobs) on the serial engine; the report and
    the HDFS namespace the jobs published into."""
    ctx = TaskContext(num_nodes=num_nodes, hdfs=HDFS(num_nodes=num_nodes))
    program = LevelProgram(tuple(program_level(jobs) for jobs in levels))
    engine = MapReduceEngine(ClusterConfig(num_nodes=num_nodes), params)
    return engine.execute(program, ctx), ctx.hdfs


class TestEngine:
    def test_word_count(self):
        """A classic word count as a sanity check of the MR semantics."""
        docs = [("a", "b"), ("a",), ("c", "a")]
        maps = [_Emit(node=node, words=words) for node, words in enumerate(docs)]
        wc = job("wc", *maps, reduce_spec=_WordCount(), num_reducers=3)
        report, hdfs = run([wc], num_nodes=3)
        counts = dict(row for part in hdfs.read("wc").partitions for row in part)
        assert counts == {"a": 3, "b": 1, "c": 1}
        assert report.num_jobs == 1
        assert not report.jobs[0].map_only
        assert report.jobs[0].tuples_shuffled == 5

    def test_map_only_job(self):
        scan = job("scan", _Emit(direct=((1,), (2,)), read=2))
        report, hdfs = run([scan], num_nodes=2)
        assert list(hdfs.read("scan").partitions[0]) == [(1,), (2,)]
        assert report.jobs[0].map_only

    def test_response_time_levels_are_barriers(self):
        """Two independent jobs overlap; a dependent job adds its time."""
        params = CostParams(c_read=1.0, job_overhead=0.0)
        a, b, c = (job(n, _Emit(read=cost)) for n, cost in zip("abc", (10, 6, 4)))
        report, _ = run([a, b], [c], num_nodes=2, params=params)
        # level 0: max(10, 6) = 10; level 1: 4
        assert report.response_time == pytest.approx(14.0)
        assert report.total_work == pytest.approx(20.0)

    def test_job_overhead_charged(self):
        params = CostParams(job_overhead=100.0)
        report, _ = run([job("a", _Emit())], num_nodes=1, params=params)
        assert report.response_time == pytest.approx(100.0)

    def test_map_phase_time_is_max_over_nodes(self):
        maps = [_Emit(node=0, read=5), _Emit(node=1, read=9), _Emit(node=0, read=2)]
        report, _ = run([job("a", *maps)], num_nodes=2, params=CostParams(c_read=1.0))
        # node 0 runs its two tasks serially: 5 + 2 < 9
        assert report.jobs[0].map_time == pytest.approx(9.0)
