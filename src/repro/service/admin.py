"""Administration: the writes to a service's engine state.

:meth:`Administration.add_triples` grows the graph, the store and the
catalog statistics; :meth:`Administration.rebalance` moves shard
ownership live.  Both take the store's write lock (tier 20 of
:data:`repro.analysis.hierarchy.LOCK_RANKS`), so a write never
interleaves with a running scan: queries hold the read side.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Sequence

from repro.analysis.locks import ReadWriteLock
from repro.cost.cardinality import (
    CardinalityEstimator,
    CatalogStatistics,
    triple_delta,
)
from repro.cost.model import PlanCoster
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.partitioning.layout import FileKey, write_keys
from repro.rdf.graph import RDFGraph
from repro.service.patch import LoggedBatch
from repro.service.stats import event_counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.service import ServiceConfig

#: write batches the delta log holds: a cached answer more batches
#: behind than this is recomputed instead of patched
DELTA_LOG_BATCHES = 64


class Administration:
    """The engine-state writes of a
    :class:`~repro.service.service.QueryService`.

    It owns the graph, its catalog statistics (and the estimator and
    coster over them), the graph version and the store's readers–writer
    lock; the serving pipeline reads them.
    """

    def __init__(
        self, graph: RDFGraph, config: "ServiceConfig", registry: MetricsRegistry
    ) -> None:
        self.graph = graph
        self.catalog = CatalogStatistics.from_graph(graph)
        self.estimator = CardinalityEstimator(self.catalog)
        self.coster = PlanCoster(self.estimator, config.params)
        self._version = 0
        #: the last DELTA_LOG_BATCHES writes, oldest first, one version
        #: apart: a batch's new triples grouped by the §5.1 file keys
        #: they are written under (``layout.write_keys``), so a patch
        #: reads a pattern's delta under the one key its scan reads, and
        #: the joins patches ran over them, one per template — they
        #: leave with the batch.  Appended under the write lock, read
        #: (and its joins filled) under the read lock.
        self._delta_log: deque[LoggedBatch] = deque(maxlen=DELTA_LOG_BATCHES)
        # Queries hold the read side while scanning the partitioned
        # store; add_triples and rebalance take the write side, so a
        # mutation never interleaves with a running scan.
        self._store_lock = ReadWriteLock("QueryService._store_lock")
        self._admin_counts = event_counters(registry, "mutations", "rebalances")
        self._node_moves = registry.counter(
            "repro_node_moves_total",
            "Nodes handled by topology rebalances, by migration phase.",
            labels=("phase",),
        )

    @property
    def graph_version(self) -> int:
        return self._version

    def add_triples(self, triples) -> int:
        """Add triples to the live graph; returns the number of new ones.

        Bumps the graph version, and in the store the version of every
        §5.1 file a new triple is written under (its property's, and an
        ``rdf:type`` triple's class's), and logs the batch's new triples
        under the new version, grouped by those file keys: a cached
        result that read one of those files is patched from the log,
        lazily at its next read — nothing is swept here.  Maintains
        catalog statistics *incrementally* — the catalog is copied once
        per batch and a per-triple delta applied for each genuinely new
        triple, O(batch + |P|) instead of the former O(|G|) full
        recompute.  Cached plans stay: they are correct on any graph,
        only their cost ranking ages.
        """
        self._check_open()
        with self._store_lock.write():
            added: list = []
            catalog: CatalogStatistics | None = None
            try:
                for triple in triples:
                    s, p, o = triple
                    # The delta must be probed before insertion (it asks
                    # "is this value new?"); None means the triple is
                    # already present and the graph won't change.
                    delta = triple_delta(self.graph, s, p, o)
                    if delta is None:
                        continue
                    self.graph.add(s, p, o)
                    if catalog is None:
                        catalog = self.catalog.copy()
                    catalog.apply_delta(delta)
                    self.store.add((s, p, o))
                    added.append((s, p, o))
            finally:
                # Even if a later triple is rejected mid-batch, whatever
                # was applied has moved its files' versions (staling the
                # cached results that read them), is logged for their
                # patch and must refresh the statistics too.
                if added:
                    self._version += 1
                    groups: dict[FileKey, list] = {}
                    for triple in added:
                        for key in write_keys(triple):
                            groups.setdefault(key, []).append(triple)
                    self._delta_log.append(
                        LoggedBatch(self._version, len(added), groups, {})
                    )
                    # Swap in a fresh catalog/estimator/coster trio
                    # rather than mutating in place: an optimize() racing
                    # this mutation keeps its consistent pre-mutation
                    # view and writes its memoized cardinalities into the
                    # discarded estimator, not the new one.
                    assert catalog is not None
                    self.catalog = catalog
                    self.estimator = CardinalityEstimator(self.catalog)
                    self.coster = PlanCoster(self.estimator, self.config.params)
                    self._admin_counts["mutations"].inc()
                    # Sync the shard workers now, while the write lock
                    # quiesces every query thread: their views are
                    # stale.  Only the shards the batch touched receive
                    # files, only the nodes it wrote (snapshot tokens
                    # name nodes and their versions).
                    self.executor.prime()
        return len(added)

    def rebalance(
        self,
        target_shards: int | None = None,
        moves: "Sequence[tuple[int, int, int]] | None" = None,
    ):
        """Move shard ownership live: grow, shrink, or shed skew.

        Requires a sharded deployment.  Pass *target_shards* for a
        minimal resize plan, or explicit ``(node, src, dst)`` *moves*
        (e.g. from :meth:`suggest_rebalance`).  The migration runs
        under the store's **write lock**: in-flight queries against the
        old epoch drain first, queries submitted meanwhile block, and
        both resume against the flipped table — answers are identical
        before, during and after.  Over the RPC transport only the
        moved nodes' file maps cross the wire; a mid-migration
        failure rolls the table back and raises typed, leaving the old
        topology serving.  Returns a
        :class:`~repro.cluster.executor.RebalanceReport`.
        """
        self._check_open()
        if not self.sharded:
            raise ValueError(
                "rebalance requires a sharded deployment "
                "(ServiceConfig(shards=N))"
            )
        with self._trace("rebalance", time.perf_counter()):
            # Acquiring the write lock *is* the drain: it blocks until
            # every in-flight query (a reader) finishes and holds new
            # ones out until the table has flipped.
            with span("rebalance:drain"):
                lock = self._store_lock.write()
                lock.__enter__()
            try:
                with span(
                    "rebalance:migrate",
                    target_shards=-1 if target_shards is None else target_shards,
                ):
                    report = self.executor.rebalance(target_shards, moves)
            finally:
                lock.__exit__(None, None, None)
        # A move onto a shard the resize just created primes it; the
        # rest are deltas onto shards already serving.
        moved = len(report.moves)
        primed = sum(1 for _, _, dst in report.moves if dst >= report.old_shards)
        phases = {
            "plan": moved,
            "prime": primed,
            "delta": moved - primed,
            "flip": moved if report.new_epoch > report.old_epoch else 0,
        }
        self._admin_counts["rebalances"].inc()
        for phase, count in phases.items():
            self._node_moves.labels(phase=phase).inc(count)
        return report

    def suggest_rebalance(self, max_moves: int = 1):
        """A skew-shedding plan from live worker load, or ``()``.

        Feeds the shard workers' ``tasks_run`` gauges into
        :func:`~repro.cluster.ownership.plan_skew`.  A gauge that has run
        no task is no signal, so a fleet with none to offer (fresh, or
        every probe stale) falls back to stored triples per shard.  The
        plan is advice — pass it to :meth:`rebalance` to act on it.
        """
        self._check_open()
        if not self.sharded:
            raise ValueError(
                "suggest_rebalance requires a sharded deployment "
                "(ServiceConfig(shards=N))"
            )
        load = {
            gauge.shard: float(gauge.tasks_run)
            for gauge in self._shard_worker_gauges()
            if not gauge.stale and gauge.tasks_run
        }
        return self.executor.suggest_rebalance(
            load=load or None, max_moves=max_moves
        )
