"""RPC shard workers (repro.cluster.worker, over repro.cluster.client).

Covers: protocol frame round-trips and typed error paths (oversized
frames, unknown messages, specs that do not pickle, missing snapshots),
worker lifecycle idempotency (Stats/Shutdown), fault injection (a
killed worker respawns transparently exactly once; sustained failure
raises typed ShardUnavailable and counts in snapshot_stats), mutation
over the RPC transport (only touched shards re-primed, token change
observed worker-side, delta catalog == recompute), the transport
surface (config validation, explain, per-shard bytes-shipped), and the
block wire end to end (a warm pass touches no term but the answer's;
block and row endpoints mix).
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import pickle
import signal
import threading
import time
import weakref
from concurrent.futures import Future
from dataclasses import replace as dataclass_replace

import pytest

from repro.cluster import RpcShardRouter, ShardedPlanExecutor, shard_graph
from repro.cluster.client import ShardWorkerClient
from repro.cluster.frames import (
    BatchReply,
    ErrorReply,
    ExecuteBatch,
    ExecuteLevel,
    FrameTooLarge,
    OkReply,
    Reply,
    Request,
    ResultsReply,
    RpcProtocolError,
    ShardUnavailable,
    Shutdown,
    Stats,
    StatsReply,
    Sync,
    sync_frame,
    WorkerStateError,
)
from repro.columnar.block import ColumnBlock
from repro.columnar.wire import WireCodec
from repro.core.algorithm import cliquesquare
from repro.core.decomposition import MSC
from repro.cost.cardinality import CatalogStatistics
from repro.mapreduce.backends import (
    DEFAULT_RPC_PIPELINE,
    ExecutionBackend,
    TaskInvocation,
)
from repro.mapreduce.counters import ExecutionReport, TaskMetrics
from repro.mapreduce.hdfs import HDFS, DistributedRelation
from repro.mapreduce.jobs import MapTaskSpec, ReduceTaskSpec, TaskContext, flatten
from repro.partitioning.triple_partitioner import partition_graph
from repro.physical.executor import PlanExecutor
from repro.rdf.dictionary import Dictionary
from repro.service import QueryService, ServiceConfig
from repro.sparql.evaluator import evaluate
from repro.sparql.parser import parse_query
from tests.conformance import (
    assert_replicas_equal_the_store,
    chunks_received,
    failing_carrier,
    kill_worker,
    needs_rpc,
    one_shard_triples,
    prepare_text,
    rpc_executor,
    shard_client,
    worker_stats,
)
from tests.conftest import make_university_graph

NUM_NODES = 7

STAR_QUERY = (
    "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . "
    "?p rdf:type ub:FullProfessor . ?s rdf:type ub:Student }"
)

TEMPLATE_A = (
    "SELECT ?p WHERE { ?p ub:worksFor <dept0> . "
    "?p rdf:type ub:FullProfessor }"
)
TEMPLATE_B = (
    "SELECT ?p WHERE { ?p ub:worksFor <dept1> . "
    "?p rdf:type ub:FullProfessor }"
)


@pytest.fixture(scope="module")
def university():
    return make_university_graph()


@pytest.fixture(scope="module")
def prepared_star(university):
    store = partition_graph(university, NUM_NODES)
    executor = PlanExecutor(store)
    query = parse_query(STAR_QUERY)
    plan = cliquesquare(query, MSC).plans[0]
    return executor.prepare(plan)


def rpc_service(graph, **overrides) -> QueryService:
    config = ServiceConfig(
        shards=overrides.pop("shards", 2),
        shard_transport="rpc",
        result_cache_size=0,
        **overrides,
    )
    return QueryService(graph, config)


class _JunkMessage:
    """A picklable object no worker dispatch clause recognizes."""

    def __eq__(self, other):
        return isinstance(other, _JunkMessage)


# -- protocol frames -----------------------------------------------------------


class TestProtocolFrames:
    def sample_frames(self, university, prepared_star):
        snapshot = partition_graph(university, NUM_NODES).snapshot()
        relation = DistributedRelation(
            attrs=("?a",), partitions=[[("x",)], [], [("y",)]]
        )
        job = prepared_star.program(NUM_NODES).levels[-1].jobs[-1]
        return [
            sync_frame(None, snapshot, 0),
            ExecuteLevel(
                level=0,
                phase="map",
                tasks=tuple(task.spec for task in job.maps[:2]),
                inputs={"rj0": relation},
            ),
            ExecuteLevel(
                level=1,
                phase="reduce",
                tasks=((job.reduce_spec, 4, {0: [("x",)], 1: [("y",)]}),),
            ),
            Stats(),
            StatsReply(
                shard=0, pid=9, snapshot_token=None,
                tasks_run=17, levels_run=4, primes=1,
                bytes_received=1024,
                pipeline=4, inflight=2, queue_depth=1, peak_inflight=3,
                batches=5,
            ),
            Shutdown(),
            OkReply(value=("k1", ())),
            ResultsReply(results=[([], [("r",)], None)]),
            ExecuteBatch(
                items=(
                    (11, ExecuteLevel(level=0, phase="reduce", tasks=())),
                )
            ),
            BatchReply(
                replies=(
                    (11, ResultsReply(results=[([], [("r",)], None)])),
                    (12, ResultsReply(results=[])),
                )
            ),
            Request(id=7, msg=Stats()),
            Reply(id=7, payload=OkReply(value="bye")),
        ]

    def test_every_frame_pickles_to_equality(self, university, prepared_star):
        frames = self.sample_frames(university, prepared_star)
        for frame in frames:
            clone = pickle.loads(pickle.dumps(frame))
            assert type(clone) is type(frame)
            if isinstance(frame, Sync):
                # A full sync's dictionary compares by identity;
                # spot-check the heavy payload.
                assert pickle.dumps(clone) == pickle.dumps(frame)
            else:
                assert clone == frame, type(frame).__name__

    def test_error_reply_round_trips_typed(self):
        reply = ErrorReply(
            error=WorkerStateError("shard 0 has no snapshot primed"),
            kind="WorkerStateError",
        )
        clone = pickle.loads(pickle.dumps(reply))
        assert isinstance(clone.error, WorkerStateError)
        assert clone.kind == "WorkerStateError"
        assert str(clone.error) == str(reply.error)

    def test_shard_unavailable_survives_pickling(self):
        error = ShardUnavailable(3, "boom")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, ShardUnavailable)
        assert clone.shard == 3
        assert str(clone) == str(error)


class _PlacementRecorder(ExecutionBackend):
    """Runs batches on *inner*, keeping each task's (node, phase, level)."""

    def __init__(self, inner: ExecutionBackend) -> None:
        self.inner, self.name, self.seen = inner, inner.name, []

    def run(self, invocations, ctx):
        self.seen.extend((inv.node, inv.phase, inv.level) for inv in invocations)
        return self.inner.run(invocations, ctx)


class _LevelFrames(ExecutionBackend):
    """Ships every batch to a worker's state as one ``ExecuteLevel``,
    framed as the rpc router frames it."""

    name = "serial"

    def __init__(self, worker) -> None:
        self.worker = worker

    def run(self, invocations, ctx):
        first = invocations[0]
        if first.phase == "map":
            names = {name for inv in invocations for name in inv.spec.hdfs_inputs()}
            tasks = tuple(inv.spec for inv in invocations)
            inputs = {name: ctx.hdfs.read(name) for name in sorted(names)}
        else:
            tasks = tuple((inv.spec, *inv.args) for inv in invocations)
            inputs = {}
        level = ExecuteLevel(first.level, first.phase, tasks, inputs)
        return self.worker.execute_level(level).results


def test_worker_tasks_keep_their_node_phase_and_level():
    """A backend behind a shard worker sees every task where the engine
    placed it — the (node, phase, level) multiset the serial backend of
    an unsharded executor sees for the same LUBM query."""
    from repro.cluster.worker import _WorkerState
    from repro.mapreduce.backends import SerialBackend
    from repro.workloads import lubm, lubm_queries

    graph = lubm.generate(lubm.LUBMConfig(universities=4))
    plan = cliquesquare(lubm_queries.query("Q8"), MSC).plans[0]  # two levels
    store = partition_graph(graph, NUM_NODES)
    local = _PlacementRecorder(SerialBackend())
    executor = PlanExecutor(store, backend=local)
    want = executor.execute_prepared(executor.prepare(plan))
    executor.close()

    worker = _WorkerState(0, NUM_NODES)
    worker.handle(sync_frame(None, store.snapshot(), 0))
    remote = worker.backend = _PlacementRecorder(worker.backend)
    try:
        executor = PlanExecutor(store, backend=_LevelFrames(worker))
        got = executor.execute_prepared(executor.prepare(plan))
    finally:
        worker.close()
    assert got.rows == want.rows and got.rows
    assert sorted(remote.seen) == sorted(local.seen)
    assert {phase for _node, phase, _level in remote.seen} == {"map", "reduce"}
    assert len({level for _node, _phase, level in remote.seen}) > 1


# -- worker lifecycle ----------------------------------------------------------


@needs_rpc
class TestWorkerLifecycle:
    @pytest.fixture()
    def client(self, university):
        client = ShardWorkerClient(shard=0, num_nodes=NUM_NODES)
        # The spawn handshake is a Stats round trip.
        handshake = client.start()
        assert isinstance(handshake, StatsReply)
        assert (handshake.shard, handshake.snapshot_token) == (0, None)
        assert handshake.pid == client.process.pid
        yield client
        client.close()

    def test_stats_is_idempotent(self, client, university):
        snapshot = partition_graph(university, NUM_NODES).snapshot()
        client.request(sync_frame(None, snapshot, 0))
        first = client.request(Stats())
        second = client.request(Stats())
        assert isinstance(first, StatsReply)
        # Reading the counters moves none of them but the bytes read.
        assert dataclass_replace(first, bytes_received=0) == dataclass_replace(
            second, bytes_received=0
        )
        assert (first.primes, first.snapshot_token) == (1, snapshot.token)

    def test_shutdown_and_close_are_idempotent(self, university):
        client = ShardWorkerClient(shard=0, num_nodes=3)
        client.start()
        process = client.process
        client.close()
        assert not process.is_alive()
        client.close()  # second close is a no-op
        with pytest.raises(ConnectionError):
            client.request(Stats())

    def test_unknown_message_type_is_typed(self, client):
        with pytest.raises(RpcProtocolError, match="unknown message type"):
            client.request(_JunkMessage())
        # The worker survives a protocol error and keeps serving.
        assert isinstance(client.request(Stats()), StatsReply)

    def test_oversized_request_rejected_driver_side(self, university):
        client = ShardWorkerClient(
            shard=0, num_nodes=NUM_NODES, max_frame_bytes=2048
        )
        client.start()
        try:
            snapshot = partition_graph(university, NUM_NODES).snapshot()
            with pytest.raises(FrameTooLarge, match="exceeds"):
                client.request(sync_frame(None, snapshot, 0))
            # Nothing was sent; the worker still serves.
            assert isinstance(client.request(Stats()), StatsReply)
        finally:
            client.close()

    def test_oversized_frame_rejected_worker_side(self, university):
        """A frame that slips past the driver cap still fails typed at
        the worker's recv (which then stops serving that connection):
        the worker broadcasts the error on request id -1, failing every
        in-flight waiter on the connection."""
        client = ShardWorkerClient(
            shard=0, num_nodes=NUM_NODES, max_frame_bytes=4096
        )
        client.start()
        try:
            client.max_frame_bytes = 1 << 30  # disarm the driver-side cap
            snapshot = partition_graph(university, NUM_NODES).snapshot()
            assert len(pickle.dumps(sync_frame(None, snapshot, 0))) > 4096
            with pytest.raises(FrameTooLarge, match="exceeded"):
                client.request(sync_frame(None, snapshot, 0))
        finally:
            client.close(kill=True)

    def test_columnar_frames_are_capped_both_ways(self, university):
        """On the columnar wire the cap holds for the framed bytes: a
        level whose exchange block would exceed it fails driver-side
        before a byte is sent, and a result block past it comes back
        as a typed ``FrameTooLarge`` reply; the connection serves on."""
        client = ShardWorkerClient(
            shard=0, num_nodes=NUM_NODES, max_frame_bytes=16 * 1024
        )
        client.start()
        try:
            snapshot = partition_graph(university, NUM_NODES).snapshot()
            client.request(sync_frame(None, snapshot, 0))
            rows = [(term,) for term in snapshot.dictionary] * 200
            block = ColumnBlock.from_rows(("?x",), rows, snapshot.dictionary, mint=False)
            sent = client.link.frames_sent
            with pytest.raises(FrameTooLarge, match="exceeds"):
                client.request(
                    ExecuteLevel(
                        level=0, phase="reduce",
                        tasks=((_Reduce(_echo), 0, {0: [block]}),),
                    )
                )
            assert client.link.frames_sent == sent
            with pytest.raises(FrameTooLarge, match="reply frame"):
                client.request(ExecuteLevel(level=0, phase="map", tasks=(_Flood(len(rows)),)))
            assert isinstance(client.request(Stats()), StatsReply)
        finally:
            client.close()

    def test_bad_phase_is_typed(self, client):
        with pytest.raises(RpcProtocolError, match="phase"):
            client.request(ExecuteLevel(level=0, phase="sideways", tasks=()))

    def test_map_without_snapshot_is_typed(self, client, prepared_star):
        job = prepared_star.program(NUM_NODES).levels[0].jobs[0]
        with pytest.raises(WorkerStateError, match="no snapshot"):
            client.request(
                ExecuteLevel(
                    level=0, phase="map", tasks=(job.maps[0].spec,)
                )
            )

    def test_duplicate_request_id_is_idempotent(self, client):
        """A duplicated execute frame (same request id) is harmless by
        construction: workers are stateless between levels, so it runs
        twice, the waiter is resolved exactly once (the reader drops the
        reply no waiter owns), and the connection serves on."""

        class CountingWaiter(Future):
            resolved = 0

            def set_result(self, value):
                self.resolved += 1
                super().set_result(value)

        base = client.request(Stats())
        waiter = CountingWaiter()
        with client.link._waiters_lock:
            client.link._waiters[777] = waiter
        frame = pickle.dumps(
            Request(777, ExecuteLevel(level=0, phase="reduce", tasks=()))
        )
        client.conn.send_bytes(frame)
        client.conn.send_bytes(frame)
        reply, _encode_s, _received = waiter.result()
        assert reply.results == []
        stats = self._poll_stats(
            client, lambda s: s.levels_run == base.levels_run + 2
        )
        assert stats.levels_run == base.levels_run + 2
        # Stats answered after both replies: the second found no waiter.
        assert waiter.resolved == 1
        level = ExecuteLevel(level=0, phase="reduce", tasks=())
        assert client.request(level).results == []

    def test_dead_reader_leaves_no_cycle(self, university):
        """A client whose reader died on a transport error is freed by
        refcount at close + last reference: the terminal error is kept
        as text, not as an exception whose traceback frames hold the
        client (client -> exception -> traceback -> frame -> client)."""
        client = ShardWorkerClient(shard=0, num_nodes=NUM_NODES)
        client.start()
        reader = client._reader
        gc.collect()
        gc.disable()
        try:
            client.process.kill()
            reader.join(timeout=10)
            assert not reader.is_alive()
            with pytest.raises(ConnectionError, match="connection lost"):
                client.request(Stats())
            client.close(kill=True)
            ref = weakref.ref(client)
            del client, reader
            assert ref() is None
        finally:
            gc.enable()

    @staticmethod
    def _poll_stats(client, done, timeout=10.0):
        deadline = time.monotonic() + timeout
        while True:
            stats = client.request(Stats())
            if done(stats) or time.monotonic() >= deadline:
                return stats
            time.sleep(0.01)

    def test_serial_mode_client_still_round_trips(self):
        """pipeline=0 keeps the strict request-response discipline (the
        benchmark baseline) on the same protocol."""
        client = ShardWorkerClient(
            shard=0, num_nodes=NUM_NODES, pipeline=0
        )
        client.start()
        try:
            reply = client.request(ExecuteLevel(level=0, phase="reduce", tasks=()))
            assert reply == ResultsReply(results=[])
            stats = client.request(Stats())
            assert stats.levels_run == 1
            assert stats.pipeline == 1  # worker-side floor
        finally:
            client.close()

    def test_concurrent_requests_interleave_on_one_socket(self, client):
        """Multiplexing: many driver threads share the connection, every
        reply lands with its own waiter."""
        errors: list[BaseException] = []

        def probe() -> None:
            try:
                for _ in range(20):
                    assert isinstance(client.request(Stats()), StatsReply)
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert all(not t.is_alive() for t in threads)


# -- fault injection -----------------------------------------------------------


@needs_rpc
class TestFaultInjection:
    def test_killed_worker_respawns_transparently_once(self, university):
        service = rpc_service(make_university_graph())
        try:
            expected = service.submit(STAR_QUERY).rows
            router = service.executor.router
            assert isinstance(router, RpcShardRouter)
            victim = shard_client(router, 0)
            old_pid = victim.process.pid
            victim.process.kill()
            victim.process.join(timeout=10)
            # The next query hits the dead worker mid-execution; the
            # router respawns it and retries the request transparently.
            outcome = service.submit(STAR_QUERY)
            assert outcome.rows == expected
            assert shard_client(router, 0).process.pid != old_pid
            snapshot = service.snapshot_stats()
            assert snapshot.shard_failures == 1
            assert any("shard 0" in w for w in snapshot.warnings)
            assert "shard failures: 1" in snapshot.format()
        finally:
            service.close()

    def test_double_failure_raises_shard_unavailable(self, university):
        service = rpc_service(make_university_graph())
        try:
            expected = service.submit(STAR_QUERY).rows
            router = service.executor.router
            with failing_carrier(router):
                shard_client(router, 1).process.kill()
                shard_client(router, 1).process.join(timeout=10)
                with pytest.raises(ShardUnavailable, match="shard 1"):
                    service.submit(STAR_QUERY)
            assert service.snapshot_stats().shard_failures >= 2
            # Not deadlocked: once spawning works again the shard
            # recovers and the service serves correct answers.
            assert service.submit(STAR_QUERY).rows == expected
        finally:
            service.close()

    def test_a_failed_respawn_leaves_no_worker_running(self, university):
        """A respawned shard server whose sync fails is retired by the
        respawn path itself: after ``close()`` no worker process is
        left for interpreter exit to wait on."""
        service = rpc_service(make_university_graph())
        try:
            service.submit(STAR_QUERY)
            router = service.executor.router
            kill_worker(shard_client(router, 0))
            with failing_carrier(router, at="sync") as started:
                with pytest.raises(ShardUnavailable, match="shard 0"):
                    service.submit(STAR_QUERY)
            assert len(started) == 1 and started[0].process is None
        finally:
            service.close()
        assert multiprocessing.active_children() == []

    def test_killing_close_kills_a_live_worker_first(self, university):
        """``close(kill=True)`` on a live worker SIGKILLs it before it
        waits for anything: it never sends a Shutdown the worker could
        answer, so a terminate after the joins would come too late."""
        service = rpc_service(make_university_graph())
        try:
            service.submit(STAR_QUERY)
            client = shard_client(service.executor.router, 0)
            process = client.process
            assert process.is_alive()
            client.close(kill=True)
            assert process.exitcode == -signal.SIGKILL
            assert client.process is None and client.conn is None
        finally:
            service.close()
        assert multiprocessing.active_children() == []

    def test_spawn_failure_at_init_is_typed(self, university, monkeypatch):
        monkeypatch.setattr(
            ShardWorkerClient, "start", _start_bomb
        )
        with pytest.raises(ShardUnavailable):
            rpc_service(make_university_graph())


    def test_unpicklable_spec_fails_typed_before_a_byte_is_sent(self, university):
        """A spec holding a closure (SPEC001 keeps them out of the
        package) cannot cross to a shard server: the router says so, typed and naming the
        spec, without writing to the socket or leaking the waiter — and
        the connection serves the next batch."""
        router = RpcShardRouter(
            num_nodes=NUM_NODES, num_shards=1, wire_format="columnar"
        )
        try:
            snapshot = shard_graph(university, NUM_NODES, 1).snapshot()
            ctx = TaskContext(
                num_nodes=NUM_NODES, store=snapshot, hdfs=HDFS(num_nodes=NUM_NODES)
            )
            rows = [("<dept3>",)]

            def batch(reducer):
                return [
                    TaskInvocation(
                        _Reduce(reducer), (0, {0: [rows]}), phase="reduce"
                    )
                ]

            with router.execution(ctx, ExecutionReport()) as running:
                client = shard_client(router, 0)
                sent = client.link.frames_sent
                with pytest.raises(RpcProtocolError, match="_Reduce"):
                    router.run(batch(lambda p, grouped: _echo(p, grouped)), running)
                assert client.link.frames_sent == sent
                assert not client.link._waiters
                [(out, _metrics)] = router.run(batch(_echo), running)
                assert list(out) == rows
                assert shard_client(router, 0) is client
                assert client.link.frames_sent == sent + 1
        finally:
            router.close()


class _Reduce(ReduceTaskSpec):
    """A reduce spec running ``fn(partition, grouped)``: it pickles when
    *fn* does."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def run(self, ctx, partition, grouped):
        return self.fn(partition, grouped)


def _echo(partition, grouped):
    """A reducer that pickles (by reference): its input's rows."""
    return flatten(grouped[0]), TaskMetrics()


class _Flood(MapTaskSpec):
    """A picklable map spec whose direct output is *rows* rows of one
    stored term: a block over the worker's replica, as plan tasks
    return."""

    node = 0

    def __init__(self, rows: int) -> None:
        self.rows = rows

    def run(self, ctx):
        dictionary = ctx.store.dictionary
        rows = [(dictionary.decode(0),)] * self.rows
        return [], ColumnBlock.from_rows(("?x",), rows, dictionary, mint=False), TaskMetrics()


class _Stranger(MapTaskSpec):
    """A picklable map spec whose direct output holds a term the store
    never held — as a row list, or as a block it numbers itself in the
    worker's replica (``mint``)."""

    node = 0

    def __init__(self, mint: bool) -> None:
        self.mint = mint

    def run(self, ctx):
        rows = [("<dept0>",), ("<never-loaded>",)]
        if self.mint:
            rows = ColumnBlock.from_rows(("?x",), rows, ctx.store.dictionary)
        return [], rows, TaskMetrics()


@needs_rpc
@pytest.mark.parametrize("mint", [False, True], ids=["emits", "mints"])
def test_a_worker_never_ships_an_id_the_store_did_not_number(mint):
    """A worker has no ids of its own to give: a term the store never
    held fails its reply typed — looked up and missing, or numbered by
    the task past what the driver synced — instead of crossing as an id
    the driver would read as another term; the connection serves the
    next query.  A minted term leaves the worker's replica conflicting
    with the store's numbering: the next suffix sync fails on it and
    the router answers with a full sync, so a write landing on the other
    shard only does not take the minting shard down."""
    # A graph of its own: the mints case writes to it.
    service = rpc_service(make_university_graph())
    try:
        expected = service.submit(STAR_QUERY).rows
        router = service.executor.router
        clients = [shard_client(router, shard) for shard in range(2)]
        failures = router.shard_failures
        ctx = TaskContext(
            num_nodes=NUM_NODES,
            store=service.store.snapshot(),
            hdfs=HDFS(num_nodes=NUM_NODES),
        )
        with router.execution(ctx, ExecutionReport()) as running:
            with pytest.raises((RpcProtocolError, WorkerStateError), match="never"):
                router.run([TaskInvocation(_Stranger(mint), node=0)], running)
        assert "<never-loaded>" not in service.store.dictionary
        assert service.submit(STAR_QUERY).rows == expected
        assert [shard_client(router, shard) for shard in range(2)] == clients
        assert router.shard_failures == failures
        if mint:
            minting = service.store.shard_of_node(0)
            other = 1 - minting
            primes = [reply.primes for reply in worker_stats(router)]
            added = one_shard_triples(service.store, other)
            service.add_triples(added)
            assert service.submit(STAR_QUERY).rows == evaluate(
                parse_query(STAR_QUERY), service.graph
            )
            stats = assert_replicas_equal_the_store(service, "mints")
            # both re-primed: the written shard for its data, the
            # minting one for its conflicting replica
            assert [reply.primes for reply in stats] == [p + 1 for p in primes]
            assert [shard_client(router, shard) for shard in range(2)] == clients
            assert router.shard_failures == failures
    finally:
        service.close()


def _start_bomb(self):
    raise OSError("fork denied")


# -- multiplexing and coalescing -----------------------------------------------


MEMBER_QUERY = (
    "SELECT ?s WHERE { ?s ub:memberOf <dept0> . ?s rdf:type ub:Student }"
)

MIXED_QUERIES = (TEMPLATE_A, TEMPLATE_B, STAR_QUERY, MEMBER_QUERY)


def prepare_mixed(executor) -> dict:
    """``MIXED_QUERIES`` -> a plan of each, prepared on *executor*."""
    return {query: prepare_text(executor, query) for query in MIXED_QUERIES}


def unsharded_rows(graph, plans: dict) -> dict:
    """Each prepared plan's rows on the unsharded serial executor."""
    with PlanExecutor(partition_graph(graph, NUM_NODES)) as reference:
        return {
            query: reference.execute_prepared(plan).rows
            for query, plan in plans.items()
        }


def run_concurrently(run, items) -> list:
    """``run(item)`` for every item at once, one thread each; results in
    item order (an exception fails the test)."""
    items = list(items)
    results: list = [None] * len(items)

    def one(i: int) -> None:
        try:
            results[i] = run(items[i])
        except BaseException as exc:  # surfaced below
            results[i] = exc

    threads = [threading.Thread(target=one, args=(i,)) for i in range(len(items))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert all(not t.is_alive() for t in threads), "hung executions"
    for result in results:
        assert not isinstance(result, BaseException), result
    return results


@needs_rpc
class TestMultiplexing:
    """The concurrent transport surface: per-query byte attribution,
    worker load gauges, and cross-query level coalescing."""

    def test_concurrent_submissions_attribute_bytes_per_query(self):
        service = rpc_service(make_university_graph())
        try:
            # Warm the columnar dictionaries: afterwards repeat
            # submissions ship byte-identical frames.
            for query in MIXED_QUERIES:
                service.submit(query)
                service.submit(query)
            serial = {
                query: service.submit(query).report.shard_bytes
                for query in MIXED_QUERIES
            }
            assert all(
                b is not None and all(x > 0 for x in b)
                for b in serial.values()
            )
            concurrent: dict[str, tuple] = {}

            def run(query: str) -> None:
                concurrent[query] = service.submit(query).report.shard_bytes

            threads = [
                threading.Thread(target=run, args=(query,))
                for query in MIXED_QUERIES
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert all(not t.is_alive() for t in threads)
            # No racing router-global counter: every query sees exactly
            # its own bytes, concurrency notwithstanding.
            assert concurrent == serial
        finally:
            service.close()

    def test_snapshot_stats_surfaces_worker_gauges(self):
        service = rpc_service(make_university_graph())
        try:
            service.submit(STAR_QUERY)
            snapshot = service.snapshot_stats()
            assert [g.shard for g in snapshot.shard_workers] == [0, 1]
            for gauge in snapshot.shard_workers:
                assert gauge.max_concurrency == DEFAULT_RPC_PIPELINE
                assert gauge.tasks_run > 0
                assert gauge.inflight == 0
                assert gauge.queue_depth == 0
                assert gauge.peak_inflight >= 1
            assert "shard 0 worker:" in snapshot.format()
        finally:
            service.close()

    # The executor-level options the service does not set: cross-query
    # coalescing and the serial connection.

    def test_coalescing_merges_concurrent_levels(self, university):
        with rpc_executor(
            university,
            rpc_pipeline=8,
            coalesce_window_ms=150.0,
            coalesce_max_batch=8,
        ) as executor:
            plans = prepare_mixed(executor)
            expected = unsharded_rows(university, plans)
            router = executor.router
            base_requests = router.level_requests
            base_frames = router.level_frames
            results = run_concurrently(executor.execute_prepared, plans.values())
            for query, result in zip(plans, results):
                assert result.rows == expected[query]
                assert result.report.shard_frames is not None
            requests = router.level_requests - base_requests
            frames = router.level_frames - base_frames
            # Four concurrent queries inside a generous window: at least
            # one ExecuteBatch merged levels across queries, so strictly
            # fewer frames went out than levels were requested.
            assert requests > len(MIXED_QUERIES)
            assert 0 < frames < requests
            assert any(s.batches > 0 for s in worker_stats(router))

    def test_lone_query_does_not_pay_the_coalescing_window(self, university):
        """The window only opens when the router sees more than one
        active query: serial executions flush every level at once."""
        window_ms = 150.0
        with rpc_executor(
            university,
            rpc_pipeline=8,
            coalesce_window_ms=window_ms,
            coalesce_max_batch=8,
        ) as executor:
            plans = prepare_mixed(executor)
            for plan in plans.values():
                executor.execute_prepared(plan)  # workers up and primed
            router = executor.router
            base_requests = router.level_requests
            base_frames = router.level_frames
            for plan in plans.values():
                t0 = time.perf_counter()
                executor.execute_prepared(plan)
                # One held level would sleep the whole window.
                assert time.perf_counter() - t0 < window_ms / 1e3
            requests = router.level_requests - base_requests
            assert requests >= len(MIXED_QUERIES)
            assert router.level_frames - base_frames == requests
            assert all(s.batches == 0 for s in worker_stats(router))

    def test_worker_kill_mid_batch_recovers_or_fails_typed(self, university):
        """Killing a worker while coalesced batches are in flight never
        hangs a query: every execution either recovers transparently
        (respawn + idempotent retry) or fails with ShardUnavailable."""
        with rpc_executor(
            university,
            rpc_pipeline=8,
            coalesce_window_ms=50.0,
            coalesce_max_batch=8,
        ) as executor:
            plans = prepare_mixed(executor)
            expected = unsharded_rows(university, plans)
            router = executor.router
            workload = list(MIXED_QUERIES) * 2
            results: dict[int, object] = {}

            def run(i: int, query: str) -> None:
                try:
                    results[i] = executor.execute_prepared(plans[query]).rows
                except BaseException as exc:
                    results[i] = exc

            threads = [
                threading.Thread(target=run, args=(i, q))
                for i, q in enumerate(workload)
            ]
            for t in threads:
                t.start()
            time.sleep(0.05)
            victim = shard_client(router, 0)
            if victim is not None and victim.process is not None:
                victim.process.kill()
            for t in threads:
                t.join(timeout=60)
            assert all(not t.is_alive() for t in threads), "hung queries"
            assert len(results) == len(workload)
            for i, query in enumerate(workload):
                outcome = results[i]
                if isinstance(outcome, BaseException):
                    assert isinstance(outcome, ShardUnavailable), outcome
                else:
                    assert outcome == expected[query]
            # The transport recovered: fresh executions are correct.
            for query, plan in plans.items():
                assert executor.execute_prepared(plan).rows == expected[query]

    def test_serial_connection_mode_still_serves(self, university):
        """rpc_pipeline=0 (the ledger's serial-connection baseline) keeps
        full semantics on the enveloped protocol."""
        with rpc_executor(university, rpc_pipeline=0) as executor:
            plans = prepare_mixed(executor)
            expected = unsharded_rows(university, plans)
            results = run_concurrently(executor.execute_prepared, plans.values())
            assert [r.rows for r in results] == [expected[q] for q in plans]


# -- mutation over RPC ---------------------------------------------------------


@needs_rpc
class TestMutationUnderRpc:
    def test_mutation_reprimes_only_touched_shards(self):
        service = rpc_service(make_university_graph(), shards=4)
        try:
            service.submit(STAR_QUERY)
            router = service.executor.router
            before = {s.shard: s for s in worker_stats(router)}
            triple = ("<mut-subj>", "<mut-prop>", "<mut-obj>")
            store = service.store
            touched = {store.shard_of_node(store.node_of(value)) for value in triple}
            assert touched and touched != set(range(4)), (
                "pick a triple that leaves at least one shard untouched"
            )
            service.add_triples([triple])
            after = {s.shard: s for s in worker_stats(router)}
            for shard in range(4):
                if shard in touched:
                    # Token change observed worker-side, exactly one
                    # sync delivered that changed its files.
                    assert (
                        after[shard].snapshot_token
                        != before[shard].snapshot_token
                    ), shard
                    assert after[shard].primes == before[shard].primes + 1
                else:
                    assert (
                        after[shard].snapshot_token
                        == before[shard].snapshot_token
                    ), shard
                    assert after[shard].primes == before[shard].primes
        finally:
            service.close()

    def test_a_write_ships_only_the_nodes_it_wrote(self):
        """A write confined to one node reaches the shard owning it as
        one ``Sync`` carrying that node's file map and the dictionary
        suffix — not the shard's whole view — and the other shard as a
        ``Sync`` carrying the suffix alone."""
        service = rpc_service(make_university_graph())
        try:
            expected = service.submit(STAR_QUERY).rows
            store, router = service.store, service.executor.router
            node = store.nodes_of_shard(0)[0]
            fresh = (f"<on-node-{i}>" for i in itertools.count())
            triple = tuple(
                itertools.islice((t for t in fresh if store.node_of(t) == node), 3)
            )
            frames: dict[int, list] = {0: [], 1: []}
            for shard in range(2):
                client = shard_client(router, shard)
                real = client.request

                def spy(msg, on_bytes=None, on_wire=None, real=real, shard=shard):
                    if isinstance(msg, Sync):
                        frames[shard].append(msg)
                    return real(msg, on_bytes, on_wire)

                client.request = spy
            before = worker_stats(router)
            start = len(store.dictionary)
            service.add_triples([triple])
            suffix = store.dictionary.entries_from(start)
            assert suffix == triple
            [written], [other] = frames[0], frames[1]
            view = store.snapshot().shards[0]
            assert set(written.files) == {node} and written.drops == ()
            assert written.files[node] == view.files[node]
            assert written.terms == other.terms == suffix
            assert other.files == {} and other.drops == ()
            whole = len(pickle.dumps(view))
            node_map = len(pickle.dumps(view.files[node]))
            assert len(pickle.dumps(written)) < node_map + 1024 < whole
            assert len(pickle.dumps(other)) < 1024
            after = worker_stats(router)
            assert after[0].primes == before[0].primes + 1
            assert after[1].primes == before[1].primes
            assert [s.terms for s in after] == [len(store.dictionary)] * 2
            assert service.submit(STAR_QUERY).rows == expected
        finally:
            service.close()

    def test_queries_see_new_triples_and_catalog_stays_exact(self):
        service = rpc_service(make_university_graph(), shards=3)
        reference = QueryService(make_university_graph())
        try:
            before = service.submit(STAR_QUERY)
            new_triples = [
                ("<pNew>", "ub:worksFor", "<dept0>"),
                ("<pNew>", "rdf:type", "ub:FullProfessor"),
                ("<sNew>", "ub:memberOf", "<dept0>"),
                ("<sNew>", "rdf:type", "ub:Student"),
            ]
            service.add_triples(new_triples)
            reference.add_triples(new_triples)
            after = service.submit(STAR_QUERY)
            assert len(after.rows) > len(before.rows)
            assert after.rows == reference.submit(STAR_QUERY).rows
            # Incremental delta catalog == full recompute, over RPC too.
            assert service.catalog == CatalogStatistics.from_graph(
                service.graph
            )
        finally:
            service.close()
            reference.close()


# -- transport surface ---------------------------------------------------------


@needs_rpc
class TestRpcSurface:
    def test_report_carries_transport_and_bytes(self):
        service = rpc_service(make_university_graph())
        try:
            outcome = service.submit(STAR_QUERY)
            assert outcome.report.transport == "rpc"
            assert outcome.report.shards == 2
            assert outcome.report.shard_bytes is not None
            assert len(outcome.report.shard_bytes) == 2
            assert all(b > 0 for b in outcome.report.shard_bytes)
        finally:
            service.close()

    def test_executor_result_carries_bytes(self, university, prepared_star):
        executor = ShardedPlanExecutor(
            shard_graph(university, NUM_NODES, 2), transport="rpc"
        )
        try:
            executor.prime()
            result = executor.execute(prepared_star.plan)
            assert result.shard_bytes is not None and len(result.shard_bytes) == 2
            reference = PlanExecutor(
                partition_graph(university, NUM_NODES)
            ).execute(prepared_star.plan)
            assert result.rows == reference.rows
            assert reference.report.transport == "local"
        finally:
            executor.close()

    def test_explain_names_the_transport(self):
        service = rpc_service(make_university_graph())
        try:
            assert "transport rpc" in service.explain(STAR_QUERY)
        finally:
            service.close()


@needs_rpc
class TestBlockWire:
    """Id columns cross the frame as buffers: the driver computes in the
    store's dictionary, a worker in its replica of it."""

    def test_warm_pass_touches_no_term_but_the_answers(self, monkeypatch):
        """After two passes of the 14 LUBM queries over 2 rpc shards, a
        third ships no term to either worker, both replicas hold the
        store's numbering, and the driver decodes only the answer
        columns, in the store's dictionary."""
        from repro.workloads import lubm, lubm_queries

        queries = lubm_queries.all_queries()
        service = rpc_service(lubm.generate(lubm.LUBMConfig(universities=4)))
        try:
            router = service.executor.router

            def wire_counts():
                shipped = [stats["terms_shipped"] for _s, stats in router.wire_stats()]
                return shipped, [reply.terms for reply in worker_stats(router)]

            for _ in range(2):
                answers = [service.submit(query) for query in queries]
            before = wire_counts()
            assert before == ([0, 0], [len(service.store.dictionary)] * 2)
            decodes = []
            real = Dictionary.decode_column
            monkeypatch.setattr(
                Dictionary,
                "decode_column",
                lambda self, ids: decodes.append(self) or real(self, ids),
            )
            for query, warm in zip(queries, answers):
                del decodes[:]
                outcome = service.submit(query)
                assert not outcome.result_cache_hit
                assert outcome.rows == warm.rows
                assert len(decodes) == (len(outcome.attrs) if outcome.rows else 0)
                assert all(d is service.store.dictionary for d in decodes)
            assert any(answer.rows for answer in answers)
            assert wire_counts() == before
            assert (
                'repro_shard_wire{shard="0",field="terms_shipped"} 0'
                in service.render_prometheus()
            )
        finally:
            service.close()

    def test_shape_corpus_reports_equal_the_unsharded_reference(self):
        """Beyond LUBM's stars: the ledger's 64 thin/dense shapes over 2
        rpc shards — rows equal the evaluator's, and every job's metrics
        the unsharded serial run's of the same plan."""
        generators = pytest.importorskip("benchmarks.ledger.generators")
        from itertools import islice

        from repro.rdf.graph import RDFGraph

        graph = RDFGraph(generators.random_graph(12))
        texts = dict.fromkeys(
            text for _cls, text in islice(generators.shape_stream(), 64)
        )
        with PlanExecutor(
            partition_graph(graph, NUM_NODES), backend="serial"
        ) as reference, rpc_service(graph) as service:
            nonempty = 0
            for text in texts:
                outcome = service.submit(text)
                assert outcome.rows == evaluate(parse_query(text), graph), text
                expected = reference.execute(outcome.plan).report
                assert outcome.report.jobs == expected.jobs, text
                nonempty += bool(outcome.rows)
            assert nonempty
            assert outcome.report.backend == "rpc:columnar"

    def test_both_endpoints_compute_on_blocks(self, university):
        """Both ends of every connection unpack to blocks over one
        numbering — the driver's codec over the store's dictionary, each
        worker's over its replica — and answer like the evaluator, with
        reports equal to the unsharded serial run's."""
        service = rpc_service(university)
        try:
            router = service.executor.router
            codecs = [shard_client(router, shard).link.codec for shard in range(2)]
            assert all(isinstance(c, WireCodec) for c in codecs)
            assert all(c.dictionary is service.store.dictionary for c in codecs)
            with PlanExecutor(
                partition_graph(university, NUM_NODES), backend="serial"
            ) as reference:
                for query in MIXED_QUERIES * 2:
                    with chunks_received() as chunks:
                        outcome = service.submit(query)
                    assert outcome.rows == evaluate(parse_query(query), university)
                    expected = reference.execute(outcome.plan).report
                    assert outcome.report.jobs == expected.jobs
                    assert all(
                        isinstance(chunk, ColumnBlock) for chunk in chunks if len(chunk)
                    )
            assert [reply.terms for reply in worker_stats(router)] == [
                len(service.store.dictionary)
            ] * 2
        finally:
            service.close()


class TestRpcConfigValidation:
    def test_rpc_requires_shards(self, university):
        with pytest.raises(ValueError, match="requires shards"):
            QueryService(
                university, ServiceConfig(shard_transport="rpc", shards=0)
            )

    def test_unknown_transport_rejected(self, university):
        with pytest.raises(ValueError, match="shard_transport"):
            QueryService(
                university,
                ServiceConfig(shard_transport="carrier-pigeon", shards=2),
            )

    def test_executor_rejects_backend_instance_over_rpc(self, university):
        from repro.mapreduce.backends import SerialBackend

        store = shard_graph(university, NUM_NODES, 2)
        with pytest.raises(TypeError, match="backend"):
            ShardedPlanExecutor(
                store, transport="rpc", backend=SerialBackend()
            )

    def test_router_takes_no_engine_and_names_bad_wire_formats(self):
        """Below the service nothing takes an engine — each shard worker
        builds the id-space one — and the router names a wire format it
        does not speak."""
        import inspect

        from repro.cluster.client import LocalShardClient

        for built in (
            RpcShardRouter, ShardedPlanExecutor, ShardWorkerClient, LocalShardClient
        ):
            params = inspect.signature(built).parameters
            assert not [name for name in params if "backend" in name], built
        with pytest.raises(ValueError, match="wire format"):
            RpcShardRouter(num_nodes=4, num_shards=2, wire_format="quantum")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_nodes": 0, "shards": 0, "shard_transport": "inproc"},
            {"max_workers": 0},
            {"num_nodes": 0},
            {"max_inflight": -1},
            {"plan_cache_size": -1},
            {"result_cache_size": -1},
            {"template_cache_size": -1},
            {"shards": -1},
            {"shard_transport": "carrier-pigeon"},
            {"shard_transport": "rpc", "shards": 0},
        ],
    )
    def test_service_rejects_bad_concurrency_knobs(self, university, overrides):
        """A field that sizes the service is refused at construction,
        named (the first key of *overrides*), on any deployment
        (unsharded, ``num_nodes=0`` used to divide by zero in placement;
        ``max_workers=0`` waited for the first ``submit_batch``; a
        negative cache size or ``max_inflight`` failed inside the LRU or
        the semaphore without naming the field)."""
        field = next(iter(overrides))
        config = {"shards": 2, "shard_transport": "rpc", **overrides}
        with pytest.raises(ValueError, match=field):
            QueryService(university, ServiceConfig(**config))

    def test_router_rejects_bad_concurrency_knobs(self):
        with pytest.raises(ValueError, match="pipeline"):
            RpcShardRouter(num_nodes=4, num_shards=2, pipeline=-1)
        with pytest.raises(ValueError, match="coalesce_window_ms"):
            RpcShardRouter(num_nodes=4, num_shards=2, coalesce_window_ms=-1)
        with pytest.raises(ValueError, match="coalesce_max_batch"):
            RpcShardRouter(num_nodes=4, num_shards=2, coalesce_max_batch=0)
