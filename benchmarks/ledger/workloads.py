"""The four ledger workloads.

Each is a closed loop of *rounds* that all do the same work.  The round
count is fixed by ``--seconds`` (30 s gives the sizes the README
states) and a loop never stops early, so two commits do identical work
and program counters repeat.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable

from repro import (
    QueryOutcome,
    QueryService,
    RDFGraph,
    ServiceConfig,
    ServiceOverloaded,
    ShardUnavailable,
    SparqlSyntaxError,
    evaluate,
    parse_query,
    structure_signature,
)
from repro.workloads import lubm, lubm_queries

from benchmarks.ledger import generators
from benchmarks.ledger.measure import Segment, timed_rounds

#: Failures the service signals by type; counted, never swallowed.
REJECTIONS = (ServiceOverloaded, ShardUnavailable, SparqlSyntaxError)

Observer = Callable[[QueryService, str, QueryOutcome, float, float], None]


class Checker:
    """Answer verification and failure accounting for one run.

    In the loop an answer is only compared with the first answer seen
    for the same (query text, graph version); the oracle runs after the
    timed phase, once per distinct key, on the benchmark's mirror graph.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()  # rpc_shards counts from 2 client threads
        self.first: dict[tuple[str, int], set] = {}
        self.messages: list[str] = []

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def note(self, text: str, outcome: QueryOutcome, keep: bool = True) -> None:
        key = (text, outcome.graph_version)
        first = self.first.get(key)
        if first is None:
            if keep:
                self.first[key] = outcome.rows
        elif first != outcome.rows:
            self.fail(
                f"unstable answer at version {key[1]}: {len(first)} vs "
                f"{len(outcome.rows)} rows for {text}"
            )

    def verify(self, mirror: RDFGraph, writes: list[list[generators.Triple]]) -> None:
        """Row-set equality with ``evaluate`` on *mirror*, replaying
        *writes* so each answer meets the graph version it was served at."""
        applied = 0
        for (text, version), rows in sorted(self.first.items(), key=lambda kv: kv[0][1]):
            while applied < version:
                for triple in writes[applied]:
                    mirror.add(*triple)
                applied += 1
            query = parse_query(text)
            expected = evaluate(query, mirror)
            if expected != rows:
                self.fail(
                    f"oracle mismatch at version {version}: service {len(rows)} "
                    f"rows, oracle {len(expected)} rows for {text}"
                )


class Workload:
    """Base: set-up, timed phase and the inputs the traced run reuses."""

    name = ""
    why = ""
    #: build/close cycles behind ``setup_s``
    setup_cycles = 3
    #: rounds of the timed phase at ``--seconds 30``
    rounds_at_30s = 0
    #: scale times by the interleaved calibration loop (see
    #: ``measure.calibrate``)
    calibrated = True
    #: which stages a timed op pays, for the hand-walked sum: "warm"
    #: (parse, canonicalize, execute) or "cold" (every stage)
    op_kind = "warm"
    #: layer-probe sizes of the traced run: timed passes per execution
    #: backend, and passes / leading queries per deployment cell.  A
    #: workload gives the layer it was built for the larger sample.
    backend_passes = 1
    cluster_passes = 1
    cluster_queries = 4

    def __init__(self, seed: int, seconds: float, small: bool = False) -> None:
        self.seed = seed
        self.rounds = max(3, round(self.rounds_at_30s * seconds / 30.0))
        #: the smoke test's sizes: LUBM at its minimum scale, 16 shapes,
        #: 100-op Zipf rounds, the smallest layer probes
        self.small = small
        self.universities = 4 if small else 20
        if small:
            self.backend_passes = self.cluster_passes = 1
            self.cluster_queries = 4
        self.service: QueryService | None = None
        self.generate_s = 0.0
        self.writes: list[list[generators.Triple]] = []

    # -- overridden per workload --

    def config(self, tracing: bool) -> ServiceConfig:
        raise NotImplementedError

    def triples(self) -> list[generators.Triple]:
        """The data graph, generated afresh (deterministic per seed)."""
        return list(lubm.generate(lubm.LUBMConfig(universities=self.universities)))

    def queries(self) -> list[tuple[str, str]]:
        """Distinct ``(class, text)`` of the workload, for warm-up, the
        hand-walk and the layer probes."""
        return [
            (name, str(lubm_queries.query(name))) for name in lubm_queries.QUERY_NAMES
        ]

    def run(self, checker: Checker, observe: Observer | None = None) -> list[Segment]:
        raise NotImplementedError

    # -- shared --

    def setup(self, tracing: bool = False) -> None:
        """Data generation + service construction + warm-up."""
        started = time.perf_counter()
        graph = RDFGraph(self.triples())
        self.generate_s = time.perf_counter() - started
        self.service = QueryService(graph, self.config(tracing))
        self.warm_up()

    def warm_up(self) -> None:
        assert self.service is not None
        for _cls, text in self.queries():
            self.service.submit(text)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def read(
        self,
        cls: str,
        text: str,
        segment: Segment,
        checker: Checker,
        observe: Observer | None,
        keep: bool = True,
    ) -> None:
        service = self.service
        assert service is not None
        checker.attempt()
        started = time.perf_counter()
        try:
            outcome = service.submit(text)
        except REJECTIONS as exc:
            checker.fail(f"{type(exc).__name__}: {exc}")
            return
        ended = time.perf_counter()
        segment.reads.append((cls, ended - started))
        checker.note(text, outcome, keep)
        if observe is not None:
            observe(service, cls, outcome, started, ended)

    def passes(self, client: int = 0) -> list[list[tuple[str, str]]]:
        """Per round, one seeded-shuffled pass of the queries."""
        texts = dict(self.queries())
        orders = generators.shuffled_passes(list(texts), self.rounds, self.seed, client)
        return [[(cls, texts[cls]) for cls in order] for order in orders]


class LubmWarm(Workload):
    name = "lubm_warm"
    why = (
        "execution-dominated: 14 LUBM queries on a warm single store, result cache "
        "off, so each op is almost only physical/mapreduce work"
    )
    rounds_at_30s = 75
    backend_passes = 5

    def config(self, tracing: bool) -> ServiceConfig:
        return ServiceConfig(result_cache_size=0, tracing=tracing)

    def run(self, checker: Checker, observe: Observer | None = None) -> list[Segment]:
        plan = self.passes()

        def one_round(index: int, segment: Segment) -> None:
            for cls, text in plan[index]:
                self.read(cls, text, segment, checker, observe)

        return timed_rounds(self.rounds, one_round, calibrated=self.calibrated)


class RpcShards(Workload):
    name = "rpc_shards"
    why = (
        "communication-dominated: the lubm_warm ops through 2 rpc shard workers "
        "with 2 concurrent clients, so the difference is router + rpc + wire"
    )
    rounds_at_30s = 25
    clients = 2
    # The driver process mostly waits while the two workers compute, and a
    # loop on its core says little about theirs: over 5 interleaved runs
    # raw throughput ranged 10 %, calibrated throughput 28 %.
    calibrated = False
    cluster_passes = 2
    cluster_queries = 14

    def config(self, tracing: bool) -> ServiceConfig:
        return ServiceConfig(
            result_cache_size=0, shards=2, shard_transport="rpc", tracing=tracing
        )

    def run(self, checker: Checker, observe: Observer | None = None) -> list[Segment]:
        plans = [self.passes(client) for client in range(self.clients)]

        def one_round(index: int, segment: Segment) -> None:
            parts = [Segment() for _ in plans]

            def client_loop(client: int) -> None:
                for cls, text in plans[client][index]:
                    self.read(cls, text, parts[client], checker, observe)

            threads = [
                threading.Thread(target=client_loop, args=(client,))
                for client in range(self.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for part in parts:
                segment.reads.extend(part.reads)

        return timed_rounds(self.rounds, one_round, calibrated=self.calibrated)


class ColdShapes(Workload):
    name = "cold_shapes"
    why = (
        "planning-dominated: 64 structurally distinct thin/dense BGPs of 3-10 patterns, "
        "each a template miss on a fresh service, over a 3k-triple random graph"
    )
    setup_cycles = 15  # one cycle is about 30 ms
    rounds_at_30s = 15
    op_kind = "cold"

    def __init__(self, seed: int, seconds: float, small: bool = False) -> None:
        super().__init__(seed, seconds, small)
        self.shape_count = 16 if small else 64
        self._shapes: list[tuple[str, str]] = []

    def config(self, tracing: bool) -> ServiceConfig:
        return ServiceConfig(tracing=tracing)

    def triples(self) -> list[generators.Triple]:
        return generators.random_graph(self.seed)

    def queries(self) -> list[tuple[str, str]]:
        """The first ``shape_count`` structurally distinct candidates; the
        class is shape kind x size bucket."""
        if not self._shapes:
            seen = set()
            for cls, text in generators.shape_stream():
                signature = structure_signature(parse_query(text))
                if signature in seen:
                    continue
                seen.add(signature)
                self._shapes.append((cls, text))
                if len(self._shapes) == self.shape_count:
                    break
        return self._shapes

    def warm_up(self) -> None:
        # None: every timed op is meant to be a template miss.
        self.queries()

    def run(self, checker: Checker, observe: Observer | None = None) -> list[Segment]:
        assert self.service is not None
        tracing = self.service.config.tracing
        shapes = list(self.queries())
        random.Random(f"order:{self.seed}").shuffle(shapes)

        def fresh_service(index: int) -> None:
            if index:  # the first round runs on set-up's service
                self.check_cold(checker, index - 1)
                self.close()
                self.service = QueryService(
                    RDFGraph(self.triples()), self.config(tracing)
                )

        def one_round(index: int, segment: Segment) -> None:
            for cls, text in shapes:
                self.read(cls, text, segment, checker, observe)

        segments = timed_rounds(
            self.rounds, one_round, prepare=fresh_service, calibrated=self.calibrated
        )
        self.check_cold(checker, self.rounds - 1)
        return segments

    def check_cold(self, checker: Checker, index: int) -> None:
        assert self.service is not None
        runs = self.service.snapshot_stats().optimizer_runs
        if runs != self.shape_count:
            checker.fail(
                f"cold_shapes went warm: {runs} optimizer runs for "
                f"{self.shape_count} shapes in round {index}"
            )


class RwZipf(Workload):
    name = "rw_zipf"
    why = (
        "reads beside writes: Zipf-skewed constants on 4 templates with the result "
        "cache on, every 25th op an add_triples that invalidates it"
    )
    rounds_at_30s = 15
    write_every = 25

    def config(self, tracing: bool) -> ServiceConfig:
        return ServiceConfig(tracing=tracing)

    def queries(self) -> list[tuple[str, str]]:
        uni = lubm.university_iri(0)
        return [
            (cls, text.replace("{uni}", uni))
            for cls, text in generators.ZIPF_SHAPES.items()
        ]

    def run(self, checker: Checker, observe: Observer | None = None) -> list[Segment]:
        service = self.service
        assert service is not None
        # Every round replays one op pattern; only the students a write
        # adds are new.  A round ends on a write, so each starts with
        # every cached result invalid and hits the same reads.
        pattern = generators.zipf_ops(
            100 if self.small else 400, self.universities, self.seed, self.write_every
        )
        students = random.Random(f"students:{self.seed}")
        # Oracle sample: every first read after a write, plus a seeded 10 %.
        sample = random.Random(f"verify:{self.seed}")

        def one_round(index: int, segment: Segment) -> None:
            after_write = True
            for op in pattern:
                if op[0] == "read":
                    keep = after_write or sample.random() < 0.10
                    after_write = False
                    self.read(op[1], op[2], segment, checker, observe, keep)
                    continue
                batch = generators.student_batch(
                    len(self.writes), self.universities, students
                )
                checker.attempt()
                started = time.perf_counter()
                added = service.add_triples(batch)
                segment.writes.append(time.perf_counter() - started)
                self.writes.append(batch)
                if added != len(batch):
                    checker.fail(f"write {len(self.writes)} added {added} of {len(batch)}")
                after_write = True

        return timed_rounds(self.rounds, one_round, calibrated=self.calibrated)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (LubmWarm, ColdShapes, RpcShards, RwZipf)
}
