"""Writes patch cached answers: the delta rule against recomputation.

The store is insert-only and a BGP answer is monotone under set
semantics, so a cached answer a write staled is brought forward at its
next read from the triples written since (``QueryService._patch``).
These tests hold a patched answer to the evaluator over the written
graph and to a fresh service, on random write histories, and force the
two ways a patch gives up: the delta log no longer reaches back to the
entry's version, or the delta work passes its bound.  Either way the
answer is recomputed, as a drop.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioning.layout import read_keys, write_keys
from repro.physical.translate import bind_triple
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import RDF_TYPE
from repro.service import QueryService, ServiceConfig
from repro.service.admin import DELTA_LOG_BATCHES
from repro.service.patch import PATCH_WORK_BOUND
from repro.sparql.ast import TriplePattern
from repro.sparql.evaluator import evaluate
from repro.sparql.parser import parse_query

NODES = tuple(f"<n{i}>" for i in range(4))
#: terms the store has never numbered until a write brings them
NEW_TERMS = ("<new0>", "<new1>")
CLASSES = ("ub:C1", "ub:C2", "ub:C3")
BASE = (
    ("<n0>", "ub:p1", "<n1>"),
    ("<n1>", "ub:p2", "<n2>"),
    ("<n2>", "ub:p1", "<n3>"),
    ("<n3>", "ub:p1", "<n3>"),
    ("<n1>", RDF_TYPE, "ub:C1"),
    ("<n2>", RDF_TYPE, "ub:C2"),
    ("<n3>", "ub:p3", "<n2>"),
)
#: query text -> the file keys it reads (None: every file)
QUERIES = {
    # a chain, and its one-column projection
    "SELECT ?x ?z WHERE { ?x ub:p1 ?y . ?y ub:p2 ?z }": {
        ("ub:p1", None), ("ub:p2", None),
    },
    "SELECT ?z WHERE { ?x ub:p1 ?y . ?y ub:p2 ?z }": {
        ("ub:p1", None), ("ub:p2", None),
    },
    # a variable repeated inside one pattern, and across a cycle
    "SELECT ?x WHERE { ?x ub:p1 ?x }": {("ub:p1", None)},
    "SELECT ?x ?y WHERE { ?x ub:p1 ?y . ?y ub:p3 ?x }": {
        ("ub:p1", None), ("ub:p3", None),
    },
    # rdf:type with a bound class, and without (projected to the class)
    "SELECT ?x WHERE { ?x rdf:type ub:C1 . ?x ub:p2 ?y }": {
        (RDF_TYPE, "ub:C1"), ("ub:p2", None),
    },
    "SELECT ?x ?c WHERE { ?x rdf:type ?c . ?x ub:p1 ?y }": {
        (RDF_TYPE, None), ("ub:p1", None),
    },
    "SELECT ?c WHERE { ?x rdf:type ?c . ?x ub:p1 ?y }": {
        (RDF_TYPE, None), ("ub:p1", None),
    },
    # a variable property reads every file
    "SELECT ?x ?p WHERE { ?x ?p ?y . ?y rdf:type ub:C2 }": None,
    "SELECT ?y WHERE { <n0> ub:p1 ?y }": {("ub:p1", None)},
    # no variable: the answer is the empty row or nothing
    "SELECT * WHERE { <n0> ub:p1 <n3> }": {("ub:p1", None)},
}
#: a query whose SELECT order permutes another's -> that query: both
#: read one cached answer, each in its own column order
PERMUTED = {
    "SELECT ?z ?x WHERE { ?x ub:p1 ?y . ?y ub:p2 ?z }":
        "SELECT ?x ?z WHERE { ?x ub:p1 ?y . ?y ub:p2 ?z }",
    "SELECT ?y ?x WHERE { ?x ub:p1 ?y . ?y ub:p3 ?x }":
        "SELECT ?x ?y WHERE { ?x ub:p1 ?y . ?y ub:p3 ?x }",
    "SELECT ?c ?x WHERE { ?x rdf:type ?c . ?x ub:p1 ?y }":
        "SELECT ?x ?c WHERE { ?x rdf:type ?c . ?x ub:p1 ?y }",
    "SELECT ?p ?x WHERE { ?x ?p ?y . ?y rdf:type ub:C2 }":
        "SELECT ?x ?p WHERE { ?x ?p ?y . ?y rdf:type ub:C2 }",
}

#: REPRO_TRACE=1 runs the property with tracing on and checks each
#: patch's span against the delta it was handed
TRACING = os.environ.get("REPRO_TRACE", "") == "1"

terms = st.sampled_from(NODES + NEW_TERMS)
triples = st.one_of(
    st.tuples(terms, st.sampled_from(("ub:p1", "ub:p2", "ub:p3", "ub:p9")), terms),
    st.tuples(terms, st.just(RDF_TYPE), st.sampled_from(CLASSES)),
    st.sampled_from(BASE),  # a duplicate: no file moves
)
#: a write history: batches, each possibly empty, holding duplicates of
#: stored triples or of each other
histories = st.lists(st.lists(triples, max_size=4), min_size=1, max_size=4)


def written_keys(added) -> set:
    """The file keys the genuinely new triples *added* are written under."""
    keys = {(p, None) for _, p, _ in added}
    return keys | {(p, o) for _, p, o in added if p == RDF_TYPE}


def lifted(query) -> tuple[TriplePattern, ...]:
    """*query*'s patterns as its template's patch joins them: every
    subject and object constant a variable of its own."""
    fresh = itertools.count()

    def term(t: str) -> str:
        return t if t.startswith("?") else f"?_lifted{next(fresh)}"

    return tuple(
        TriplePattern(term(tp.s), tp.p, term(tp.o)) for tp in query.patterns
    )


def tried(query, delta) -> int:
    """How many (pattern, logged triple) pairs a patch of *query* checks
    when it joins *delta* for its template: each lifted pattern against
    the triples under the file key its scan reads (every triple for a
    variable property)."""
    count = 0
    for tp in lifted(query):
        keys = read_keys((tp,))
        count += sum(keys is None or keys[0] in write_keys(t) for t in delta)
    return count


def assert_blocks_distinct(service: QueryService) -> None:
    """Every cached answer's block holds exactly its rows, each once, as
    distinct id rows: a patch appends only rows the answer lacked."""
    for entry in service.result_cache._data.values():
        assert len(entry.block) == len(entry.rows)
        assert len(set(zip(*entry.block.columns))) == len(entry.rows)


def assert_views_carried(service: QueryService) -> None:
    """Every view a cached answer holds is its rows projected afresh."""
    for entry in service.result_cache._data.values():
        for columns, view in entry._views.items():
            index = [entry.attrs.index(c) for c in columns]
            assert view == {tuple(row[i] for i in index) for row in entry.rows}
            assert isinstance(view, frozenset)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(history=histories)
def test_patched_answers_match_the_evaluator_and_a_fresh_service(history):
    """After every write every cached query is read again, on an
    unsharded service and on two in-process shards: its answer equals
    the evaluator's over the written graph and a fresh service's, and
    it is patched exactly when the write touched a file it reads (and
    otherwise a result-cache hit).  A query whose SELECT order permutes
    another's, read after it, is a hit on the answer that read patched:
    its view was carried forward by the patch, and equals the evaluator's
    answer and a fresh projection of the cached rows.  Traced, a patch's
    span counts the triples written since the answer's version as
    ``delta``, the batches they came in as ``joined`` (every query here
    is its template's only cached key, so no batch is ``reused``), the
    (pattern, triple) pairs it checked as ``tried`` and those that
    matched as ``seeds`` — patterns with their constants read as
    variables, as the template's join reads them — and the rows they
    brought as ``added``.  After every read the cached blocks hold
    their rows once each."""
    mirror = RDFGraph(BASE)
    queries = {text: parse_query(text) for text in QUERIES}
    permuted = {text: parse_query(text) for text in PERMUTED}
    services = [
        QueryService(RDFGraph(BASE), ServiceConfig(shards=shards, tracing=TRACING))
        for shards in (0, 2)
    ]
    #: per (service, query): the triples written since its cached
    #: answer's version, the batches they came in, and that answer's size
    pending = {(i, text): [] for i in range(len(services)) for text in QUERIES}
    batches = dict.fromkeys(pending, 0)
    sizes = {}
    try:
        for i, service in enumerate(services):
            for text, query in queries.items():
                sizes[i, text] = len(service.submit(query).rows)
            for query in permuted.values():
                assert service.submit(query).result_cache_hit
        for batch in history:
            added = [t for t in dict.fromkeys(batch) if mirror.add(*t)]
            for service in services:
                assert service.add_triples(batch) == len(added)
            written = written_keys(added)
            for at, delta in pending.items():
                delta.extend(added)
                batches[at] += bool(added)
            with QueryService(
                RDFGraph(mirror), ServiceConfig(result_cache_size=0)
            ) as fresh:
                for text, query in queries.items():
                    keys = QUERIES[text]
                    touched = bool(written) and (keys is None or bool(keys & written))
                    expected = evaluate(query, mirror)
                    assert fresh.submit(query).rows == expected, text
                    for i, service in enumerate(services):
                        outcome = service.submit(query)
                        at = f"shards={service.config.shards}: {text}"
                        assert outcome.rows == expected, at
                        assert outcome.result_patched == touched, at
                        assert outcome.result_cache_hit != touched, at
                        if not touched:
                            continue
                        assert outcome.graph_version == service.graph_version
                        delta = pending[i, text]
                        if TRACING:
                            (patch,) = service.trace(outcome).find("patch")
                            assert patch.attrs == {
                                "delta": len(delta),
                                "tried": tried(query, delta),
                                "seeds": sum(
                                    bind_triple(tp, t) is not None
                                    for tp in lifted(query)
                                    for t in delta
                                ),
                                "added": len(expected) - sizes[i, text],
                                "joined": batches[i, text],
                                "reused": 0,
                            }, at
                        delta.clear()
                        batches[i, text] = 0
                        sizes[i, text] = len(expected)
                for text, query in permuted.items():
                    expected = evaluate(query, mirror)
                    for service in services:
                        at = f"shards={service.config.shards}: {text}"
                        outcome = service.submit(query)
                        assert outcome.result_cache_hit, at
                        assert outcome.rows == expected, at
                        assert outcome.rows is service.submit(query).rows, at
            for service in services:
                assert_views_carried(service)
                assert_blocks_distinct(service)
        for service in services:
            stats = service.snapshot_stats()
            assert service.result_cache.stale_drops == 0
            assert stats.result_misses == len(QUERIES) + stats.result_patches
    finally:
        for service in services:
            service.close()


CHAIN = parse_query("SELECT ?x ?z WHERE { ?x ub:p1 ?y . ?y ub:p2 ?z }")
OWN = parse_query("SELECT ?y WHERE { <n0> ub:p1 ?y }")


def assert_recomputed(service: QueryService, query, drops: int) -> None:
    """*query*'s next read recomputes its answer instead of patching it,
    counting the stale entry as the *drops*-th drop; the recomputed
    answer is cached again at the current version."""
    outcome = service.submit(query)
    assert not outcome.result_patched and not outcome.result_cache_hit
    assert outcome.provenance["served_by"] == "plan-cache"
    assert outcome.rows == evaluate(query, service.graph)
    assert service.result_cache.stale_drops == drops
    (patch,) = service.trace(outcome).find("patch")
    assert patch.attrs["recomputed"] in ("horizon", "bound")
    again = service.submit(query)
    assert again.result_cache_hit and again.rows == outcome.rows


def test_an_entry_older_than_the_log_is_recomputed():
    """The delta log holds the last DELTA_LOG_BATCHES writes: an entry
    that many batches behind is still patched, one more is not."""
    with QueryService(RDFGraph(BASE), ServiceConfig(tracing=True)) as svc:
        svc.submit(CHAIN)
        svc.submit(OWN)
        for i in range(DELTA_LOG_BATCHES):
            assert svc.add_triples([(f"<h{i}>", "ub:p1", "<n1>")]) == 1
        at_horizon = svc.submit(CHAIN)
        assert at_horizon.result_patched
        assert at_horizon.rows == evaluate(CHAIN, svc.graph)
        assert ("<h0>", "<n2>") in at_horizon.rows
        (patch,) = svc.trace(at_horizon).find("patch")
        assert patch.attrs == {
            "delta": DELTA_LOG_BATCHES,
            "tried": DELTA_LOG_BATCHES,
            "seeds": DELTA_LOG_BATCHES,
            "added": DELTA_LOG_BATCHES,
            "joined": DELTA_LOG_BATCHES,
            "reused": 0,
        }
        assert svc.add_triples([("<n0>", "ub:p1", "<n2>")]) == 1
        assert_recomputed(svc, OWN, drops=1)
        assert svc.snapshot_stats().result_patches == 1


def test_delta_work_past_the_bound_is_recomputed():
    """A write whose seeds alone pass PATCH_WORK_BOUND is recomputed;
    one within it is patched."""
    with QueryService(RDFGraph(BASE), ServiceConfig(tracing=True)) as svc:
        svc.submit(CHAIN)
        svc.submit(OWN)
        assert svc.add_triples([("<n0>", "ub:p1", "<w>")]) == 1
        patched = svc.submit(OWN)
        assert patched.result_patched
        assert patched.rows == {("<n1>",), ("<w>",)}
        big = [(f"<b{i}>", "ub:p1", "<n1>") for i in range(PATCH_WORK_BOUND + 1)]
        assert svc.add_triples(big) == len(big)
        assert_recomputed(svc, CHAIN, drops=1)
        assert svc.snapshot_stats().result_patches == 1


def test_a_write_the_query_does_not_read_seeds_nothing():
    """A pattern is checked only against the logged triples under the
    file key it reads: between two writes CHAIN reads, a write under a
    property it does not read adds to the delta but not to the seeds,
    and is never tried against a pattern, on both cells."""
    for shards in (0, 2):
        config = ServiceConfig(tracing=True, shards=shards)
        with QueryService(RDFGraph(BASE), config) as svc:
            before = svc.submit(CHAIN).rows
            assert svc.add_triples([("<n3>", "ub:p1", "<n1>")]) == 1
            assert svc.add_triples([("<n0>", "ub:p9", "<n1>")]) == 1
            assert svc.add_triples([("<n1>", "ub:p2", "<new0>")]) == 1
            outcome = svc.submit(CHAIN)
            assert outcome.result_patched
            assert outcome.rows == evaluate(CHAIN, svc.graph)
            assert ("<n3>", "<new0>") in outcome.rows
            (patch,) = svc.trace(outcome).find("patch")
            # one p1 triple for the first pattern, one p2 for the second:
            # the p9 triple is tried against neither, though its batch
            # is joined (to nothing) like the other two
            assert patch.attrs == {
                "delta": 3,
                "tried": 2,
                "seeds": 2,
                "added": len(outcome.rows) - len(before),
                "joined": 3,
                "reused": 0,
            }


def test_concurrent_readers_of_a_stale_entry_share_its_patch():
    """Readers racing to a stale entry go through its single-flight key:
    each gets the patched answer (led, waited for, or a hit on what the
    leader cached), and nothing is dropped."""
    with QueryService(RDFGraph(BASE)) as svc:
        svc.submit(CHAIN)
        assert svc.add_triples([("<c>", "ub:p1", "<n1>")]) == 1
        barrier = threading.Barrier(4)
        outcomes = []

        def read() -> None:
            barrier.wait()
            outcomes.append(svc.submit(CHAIN))

        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = evaluate(CHAIN, svc.graph)
        assert ("<c>", "<n2>") in expected
        assert len(outcomes) == 4
        for outcome in outcomes:
            assert outcome.rows == expected
            assert outcome.result_patched != outcome.result_cache_hit
        assert svc.result_cache.stale_drops == 0


def test_readers_of_both_column_orders_beside_writes():
    """More readers than cores read CHAIN in both column orders while a
    writer adds one CHAIN row per batch, under a short switch interval:
    every outcome equals the evaluator's answer at the graph version it
    reports, in its own order, whether it was computed, patched or a
    hit on a view some other reader built or a patch carried."""
    orders = (CHAIN, parse_query("SELECT ?z ?x WHERE { ?x ub:p1 ?y . ?y ub:p2 ?z }"))
    writes = [(f"<w{i}>", "ub:p1", "<n1>") for i in range(24)]
    seen: list = []
    errors: list = []
    done = threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with QueryService(RDFGraph(BASE)) as svc:

            def read(k: int) -> None:
                try:
                    while not done.is_set():
                        query = orders[k % 2]
                        seen.append((k % 2, svc.submit(query)))
                        k += 1
                except BaseException as exc:  # reported below
                    errors.append(exc)

            def write() -> None:
                try:
                    for triple in writes:
                        svc.add_triples([triple])
                        time.sleep(0.001)
                finally:
                    done.set()

            threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    mirror = RDFGraph(BASE)
    expected = {0: [evaluate(query, mirror) for query in orders]}
    for version, triple in enumerate(writes, 1):
        mirror.add(*triple)
        expected[version] = [evaluate(query, mirror) for query in orders]
    assert {outcome.result_patched for _, outcome in seen} == {True, False}
    for order, outcome in seen:
        assert outcome.rows == expected[outcome.graph_version][order]


#: one template read under several keys, as the ledger's ``rw_zipf``
#: reads its graduate shape: a class parameter, and one constant used
#: twice (two parameter slots bound to one value)
SHARED = (
    "SELECT ?x ?d WHERE {{ ?x rdf:type {cls} . ?x ub:p1 {u} . "
    "?x ub:p2 ?d . ?d ub:p3 {u} }}"
)
KEYS = tuple(
    parse_query(SHARED.format(cls=cls, u=u)) for cls in CLASSES[:2] for u in NODES[1:]
)
#: BASE plus an answer for one key: <n1> typed C1 meets <n2> both ways
SHARED_BASE = BASE + (("<n1>", "ub:p1", "<n2>"), ("<n2>", "ub:p3", "<n2>"))


def patch_attrs(service: QueryService, outcome) -> dict:
    (patch,) = service.trace(outcome).find("patch")
    return patch.attrs


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    history=st.lists(st.lists(triples, min_size=1, max_size=4), min_size=1, max_size=5),
    data=st.data(),
)
def test_keys_of_one_template_lagging_apart_match_the_evaluator(history, data):
    """Every key of one template is read at the start, then after each
    write a drawn subset of them in a drawn order, so the keys lag by
    different numbers of batches when they patch; then every key but
    the first is brought to the latest version, DELTA_LOG_BATCHES
    writes follow, and every key is read.  Every answer equals the
    evaluator's over the written graph (a hit reports the older version
    it was computed at: no file it reads moved since); the first key,
    past the log's horizon, is recomputed (the one drop), the others
    patch across the last DELTA_LOG_BATCHES batches — joined by the
    first of them to read, reused by the rest."""
    mirror = RDFGraph(SHARED_BASE)
    with QueryService(RDFGraph(SHARED_BASE), ServiceConfig(tracing=True)) as svc:

        def read(query):
            outcome = svc.submit(query)
            if outcome.result_patched:
                assert outcome.graph_version == svc.graph_version
            assert outcome.rows == evaluate(query, mirror)
            assert_blocks_distinct(svc)
            return outcome

        def write(batch) -> None:
            added = [t for t in dict.fromkeys(batch) if mirror.add(*t)]
            assert svc.add_triples(batch) == len(added)

        for query in KEYS:
            read(query)
        # the first key is never read again until it is past the horizon
        later = range(1, len(KEYS))
        for batch in history:
            write(batch)
            order = data.draw(st.lists(st.sampled_from(later), unique=True))
            for k in order:
                read(KEYS[k])
        # a batch every key reads, so that the others all patch to it
        write([("<g>", "ub:p2", "<n0>")])
        for k in later:
            assert read(KEYS[k]).result_patched
        for i in range(DELTA_LOG_BATCHES):
            write([(f"<f{i}>", "ub:p2", "<n0>")])
        outcome = read(KEYS[0])
        assert not outcome.result_patched
        assert patch_attrs(svc, outcome)["recomputed"] == "horizon"
        assert svc.result_cache.stale_drops == 1
        spans = []
        for k in data.draw(st.permutations(later)):
            outcome = read(KEYS[k])
            assert outcome.result_patched
            spans.append(patch_attrs(svc, outcome))
        assert [a["joined"] for a in spans] == [DELTA_LOG_BATCHES] + [0] * (
            len(spans) - 1
        )
        assert all(a["joined"] + a["reused"] == DELTA_LOG_BATCHES for a in spans)
        assert svc.result_cache.stale_drops == 1


def test_one_write_is_joined_once_for_all_keys_of_a_template():
    """After one write, reading every cached key of one template joins
    the batch once: the first patch joins it (and seeds), every later
    one reads the first's index and does no join work of its own."""
    with QueryService(RDFGraph(SHARED_BASE), ServiceConfig(tracing=True)) as svc:
        for query in KEYS:
            svc.submit(query)
        # <n1>, typed C1 and p2-linked to <n2>, meets <n3> both ways
        # now: one new row, for the (C1, <n3>) key, the third read
        added = [("<n1>", "ub:p1", "<n3>"), ("<n2>", "ub:p3", "<n3>")]
        assert svc.add_triples(added) == 2
        spans = []
        for query in KEYS:
            outcome = svc.submit(query)
            assert outcome.result_patched
            assert outcome.rows == evaluate(query, svc.graph)
            spans.append(patch_attrs(svc, outcome))
        assert sum(a["joined"] for a in spans) == 1
        first, *rest = spans
        assert first["joined"] == 1 and first["reused"] == 0 and first["seeds"] > 0
        for attrs in rest:
            assert attrs["reused"] == 1
            assert attrs["seeds"] == attrs["tried"] == 0
        assert [a["added"] for a in spans] == [0, 0, 1, 0, 0, 0]
        assert svc.snapshot_stats().result_patches == len(KEYS)
        assert svc.result_cache.stale_drops == 0


def test_readers_of_one_template_patch_beside_writes():
    """More readers than cores each cycle through the keys of one
    template, from different starting keys, while a writer adds one
    row to one key per batch, under a short switch interval: readers
    of different keys join a batch at once and publish one index.
    Every outcome equals the evaluator's answer at the graph version
    it reports."""
    writes = []
    for i in range(24):
        cls, u = CLASSES[i % 2], NODES[1 + i % 3]
        writes.append(
            [
                (f"<r{i}>", RDF_TYPE, cls),
                (f"<r{i}>", "ub:p1", u),
                (f"<r{i}>", "ub:p2", f"<d{i}>"),
                (f"<d{i}>", "ub:p3", u),
            ]
        )
    seen: list = []
    errors: list = []
    done = threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with QueryService(RDFGraph(SHARED_BASE)) as svc:

            def read(k: int) -> None:
                try:
                    while not done.is_set():
                        key = k % len(KEYS)
                        seen.append((key, svc.submit(KEYS[key])))
                        k += 1
                except BaseException as exc:  # reported below
                    errors.append(exc)

            def write() -> None:
                try:
                    for batch in writes:
                        svc.add_triples(batch)
                        time.sleep(0.001)
                finally:
                    done.set()

            threads = [
                threading.Thread(target=read, args=(k,)) for k in range(0, 6, 2)
            ]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    mirror = RDFGraph(SHARED_BASE)
    expected = {0: [evaluate(query, mirror) for query in KEYS]}
    for version, batch in enumerate(writes, 1):
        for triple in batch:
            mirror.add(*triple)
        expected[version] = [evaluate(query, mirror) for query in KEYS]
    assert any(outcome.result_patched for _, outcome in seen)
    for key, outcome in seen:
        assert outcome.rows == expected[outcome.graph_version][key]
