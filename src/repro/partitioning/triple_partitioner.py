"""The CliqueSquare RDF partitioner — §5.1.

The partitioner exploits 3x replication: each triple is stored three
times, placed by the hash of its subject, property and object value
respectively.  Triples sharing a value in any position are therefore
co-located in the replica hashed on that position, which makes *all*
first-level joins (s-s, s-o, p-o, ...) parallelizable without
communication (PWOC / co-located joins).

Within each node, each replica's triples form a partition split by
property value into files (and the rdf:type property partition further
split by object value) — see ``layout.py``.

The store also numbers every term once, as it places the triple that
brings the term in: its :class:`~repro.rdf.dictionary.Dictionary` is the
one id space every engine computes in, and every snapshot carries it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.partitioning.layout import PLACEMENTS, FileKey, triple_file, write_keys
from repro.rdf.dictionary import Dictionary
from repro.rdf.graph import RDFGraph, Triple


#: Memo table for the polynomial term hash.  Loading computes the hash
#: of every triple's subject, property and object once per replica; RDF
#: terms repeat heavily (every property value recurs ~|G|/|P| times), so
#: memoizing the O(len) hash is a measurable loading win.  The table is
#: per-process, grows only with the number of *distinct* terms, and is
#: capped so a long-lived process with churning term sets cannot leak.
_HASH_CACHE: dict[str, int] = {}
_HASH_CACHE_MAX = 1 << 18


def _term_hash(value: str) -> int:
    h = _HASH_CACHE.get(value)
    if h is None:
        h = 0
        for ch in value:
            h = (h * 131 + ord(ch)) & 0x7FFFFFFF
        if len(_HASH_CACHE) < _HASH_CACHE_MAX:
            _HASH_CACHE[value] = h
    return h


def place(value: str, num_nodes: int) -> int:
    """Deterministic node assignment for a term value.

    Python's builtin ``hash`` is randomized across processes; a stable
    polynomial hash keeps layouts reproducible run to run.
    """
    return _term_hash(value) % num_nodes


def _scan_files(
    store: dict[str, Sequence[Triple]],
    placement: str,
    prop: str | None,
    type_object: str | None,
) -> list[Triple]:
    """Shared scan logic over one node's file map (store and snapshot)."""
    if prop is None:
        prefix = placement + "|"
        out: list[Triple] = []
        for name, triples in store.items():
            if name.startswith(prefix):
                out.extend(triples)
        return out
    if type_object is not None:
        return list(store.get(triple_file(placement, prop, type_object), ()))
    # rdf:type without a bound object: gather its object-split files.
    exact = store.get(f"{placement}|{prop}")
    if exact is not None:
        return list(exact)
    prefix = f"{placement}|{prop}|"
    out = []
    for name, triples in store.items():
        if name.startswith(prefix):
            out.extend(triples)
    return out


#: Process-wide store identities, so snapshots of different stores (or
#: different versions of one store) never alias in worker-pool caches.
_STORE_IDS = itertools.count()


@dataclass(frozen=True)
class StoreSnapshot:
    """A read-only view of a :class:`PartitionedStore` at one version.

    Every file's triple list is held as a tuple — the triples themselves
    are shared with the store, the containers are not, so later ``add``
    calls can never mutate a snapshot.  The tuple copies are made per
    *node* and memoized by that node's version (:meth:`PartitionedStore
    .view`), so a mutation batch pays for the nodes it wrote, once,
    however many queries follow.  A view may cover only some nodes (a
    shard's — the others' file maps are empty).  ``token`` identifies
    the view's content: execution backends key their worker pools on
    it, shipping the snapshot to workers once and rebuilding only when
    the data behind it actually changed.

    ``dictionary`` is the store's own (a reference, not a copy): it
    numbers every term the view holds, and the ids of a later version
    are the same — the dictionary only ever appends.  Pickled, it
    travels as its term list, so a worker synced with a snapshot holds
    a replica of the store's numbering as it was at that moment.
    """

    num_nodes: int
    replicas: tuple[str, ...]
    files: tuple[dict[str, tuple[Triple, ...]], ...]
    token: tuple
    dictionary: Dictionary = field(repr=False, compare=False)

    def scan(
        self,
        node: int,
        placement: str,
        prop: str | None = None,
        type_object: str | None = None,
    ) -> list[Triple]:
        """Triples of one node's partition (see :meth:`PartitionedStore.scan`)."""
        return _scan_files(self.files[node], placement, prop, type_object)

    def file_names(self, node: int) -> list[str]:
        return sorted(self.files[node].keys())

    def total_stored(self) -> int:
        return sum(len(ts) for node in self.files for ts in node.values())


@dataclass
class PartitionedStore:
    """The §5.1 storage layout: per node, per file, a list of triples.

    ``replicas`` selects which placements are materialized; the default
    is the full 3-way scheme.  Restricting it (e.g. to subject-only)
    ablates the §5.1 design: joins on non-replicated positions lose
    their co-location and must run as reduce joins.

    Every ``add`` moves three kinds of version: ``version`` (the
    store's), ``node_versions`` of each node the triple lands on, and
    ``file_versions`` of each file key it is written under — its
    property's ``(p, None)`` and, for ``rdf:type``, its class's
    ``(rdf:type, o)``.  A BGP's answer depends only on the files its
    scans read, so :meth:`file_stamp` of those keys says whether it can
    have changed.
    """

    num_nodes: int
    replicas: tuple[str, ...] = PLACEMENTS
    #: files[node][file_name] -> triples
    files: list[dict[str, list[Triple]]] = field(default_factory=list)
    #: the one numbering of every term the store holds (see ``add``)
    dictionary: Dictionary = field(
        default_factory=Dictionary, init=False, repr=False, compare=False
    )
    #: bumped on every mutation; versions key snapshot/worker-pool caches
    version: int = field(default=0, init=False, compare=False)
    uid: int = field(
        default_factory=lambda: next(_STORE_IDS), init=False, compare=False
    )
    _snapshot: "StoreSnapshot | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.files:
            self.files = [dict() for _ in range(self.num_nodes)]
        unknown = set(self.replicas) - set(PLACEMENTS)
        if unknown:
            raise ValueError(f"unknown replicas {unknown}")
        if "s" not in self.replicas:
            raise ValueError("the subject replica is mandatory (base copy)")
        #: node_versions[node] is bumped whenever that node's files are
        #: written: what a view of the node is memoized (and a shard's
        #: snapshot token derived) by
        self.node_versions = [0] * self.num_nodes
        #: file_versions[key] is the store version of the last write
        #: under that file key (absent: the store holds no such file)
        self.file_versions: dict[FileKey, int] = {}
        self._frozen: list[tuple[int, dict] | None] = [None] * self.num_nodes

    # -- loading ------------------------------------------------------------

    def add(self, triple: Triple) -> None:
        """Store the configured §5.1 replicas of a triple, numbering its
        terms in the store's dictionary."""
        encode = self.dictionary.encode
        _, p, o = triple
        for placement, value in zip(PLACEMENTS, triple):
            encode(value)
            if placement in self.replicas:
                node = place(value, self.num_nodes)
                name = triple_file(placement, p, o)
                self.files[node].setdefault(name, []).append(triple)
                self.node_versions[node] += 1
        self.version += 1
        for key in write_keys(triple):
            self.file_versions[key] = self.version

    def file_stamp(self, keys: Sequence[FileKey] | None) -> tuple[int, ...]:
        """The versions of the files *keys* name, in order; None (a scan
        that reads every file) stamps with the store's version."""
        if keys is None:
            return (self.version,)
        get = self.file_versions.get
        return tuple([get(key, 0) for key in keys])

    # -- snapshots -----------------------------------------------------------

    def view(self, nodes: Iterable[int], token: tuple) -> StoreSnapshot:
        """A read-only view of *nodes*' partitions (every other node's
        file map is empty), identified by *token*.

        Each node's file map of tuple copies is memoized by the node's
        version, and within it each file's tuple by the file's length
        (files are append-only): a view copies only the files appended
        to since the last one.  Workers receiving it scan without ever
        touching the live, mutable store.
        """
        files: list[dict] = [{} for _ in range(self.num_nodes)]
        for node in nodes:
            version = self.node_versions[node]
            frozen = self._frozen[node]
            if frozen is None or frozen[0] != version:
                held = {} if frozen is None else frozen[1]
                fresh: dict[str, tuple[Triple, ...]] = {}
                for name, ts in self.files[node].items():
                    kept = held.get(name)
                    fresh[name] = (
                        kept if kept is not None and len(kept) == len(ts) else tuple(ts)
                    )
                frozen = self._frozen[node] = (version, fresh)
            files[node] = frozen[1]
        return StoreSnapshot(
            num_nodes=self.num_nodes,
            replicas=self.replicas,
            files=tuple(files),
            token=token,
            dictionary=self.dictionary,
        )

    def snapshot(self) -> StoreSnapshot:
        """The view of every node at the store's current version,
        memoized per version."""
        token = (self.uid, self.version)
        if self._snapshot is None or self._snapshot.token != token:
            self._snapshot = self.view(range(self.num_nodes), token)
        return self._snapshot

    def add_all(self, triples: Iterable[Triple]) -> int:
        count = 0
        for triple in triples:
            self.add(triple)
            count += 1
        return count

    # -- scanning ------------------------------------------------------------

    def scan(
        self,
        node: int,
        placement: str,
        prop: str | None = None,
        type_object: str | None = None,
    ) -> list[Triple]:
        """Triples of one node's partition.

        ``prop=None`` scans the whole placement partition (the unbound-
        property case, which forces reading every file of the replica).
        """
        return _scan_files(self.files[node], placement, prop, type_object)

    def file_names(self, node: int) -> list[str]:
        """All partition files on a node."""
        return sorted(self.files[node].keys())

    def node_of(self, value: str) -> int:
        """The node holding *value*'s co-location group (any placement)."""
        return place(value, self.num_nodes)

    def total_stored(self) -> int:
        """Total stored triples across nodes and files (3x the dataset)."""
        return sum(len(ts) for node in self.files for ts in node.values())


def partition_graph(
    graph: RDFGraph, num_nodes: int, replicas: tuple[str, ...] = PLACEMENTS
) -> PartitionedStore:
    """Partition an RDF graph onto *num_nodes* compute nodes per §5.1."""
    store = PartitionedStore(num_nodes=num_nodes, replicas=replicas)
    store.add_all(graph)
    return store
