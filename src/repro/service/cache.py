"""Template, plan and result caches for the query service.

In front of them, the service's statement cache (a plain
:class:`LRUCache` keyed on what was submitted — ``(text, name)`` or the
query object) maps a submission to its parse and canonicalization;
it depends on no data, so writes never touch it.  The caches behind it
form a hierarchy keyed on canonical forms from
:mod:`repro.sparql.canonical`:

* :class:`TemplateCache` — keyed on the *constant-independent* template
  signature — memoizes the expensive optimizer pipeline once per query
  *structure*: the parameterized logical plan together with its prepared
  (translated + compiled) template form.  Every query that differs only
  in constants binds into this one entry without re-optimizing.
* :class:`PlanCache` — keyed on the *instance key* (template signature +
  binding vector) — memoizes fully-bound prepared plans, skipping even
  the (cheap) bind/recompile step for repeated identical queries.
  Plans stay *correct* across data mutations (they encode only query
  structure; scans read live store state), so both plan-level caches
  survive graph updates — though the cached choice may drift from
  cost-optimal as statistics move.
* :class:`ResultCache` — keyed on the instance key — memoizes answers of
  fully-bound queries.  An answer depends only on the §5.1 files its
  scans read (its *footprint*, kept on the instance's plan-cache
  entry), so every entry records the store's versions of those files
  at the moment it was computed; a write to files it does not read
  leaves it serving.  A read that finds one of them moved gets the
  stale entry back, and the pipeline patches it from the write delta
  log (the semi-naive delta rule: the store is insert-only and a BGP
  answer monotone); it is dropped and recomputed only past the log's
  horizon or a join's work bound.  An entry keeps no patch state:
  the rule is compiled once per *template* and each logged batch is
  joined once per template, its rows indexed by parameter values on
  the batch itself, so every cached key of one template patches from
  one join (:mod:`repro.service.patch`).  Validation is lazy: a write
  sweeps nothing.

All are LRU with O(1) operations and are safe for concurrent use.
A miss that several threads take at once is computed once, through a
:class:`SingleFlight` beside the cache it fills.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import (
    AbstractSet,
    Any,
    Callable,
    Generic,
    Hashable,
    TypeVar,
)

from repro.analysis.locks import checked
from repro.columnar.block import ColumnBlock, answer_rows
from repro.core.logical import LogicalPlan
from repro.mapreduce.counters import ExecutionReport
from repro.obs.trace import span
from repro.partitioning.layout import FileKey
from repro.physical.executor import PreparedPlan

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A thread-safe LRU mapping.  ``maxsize=None`` means unbounded."""

    def __init__(self, maxsize: int | None = None) -> None:
        if maxsize is not None and maxsize < 0:
            raise ValueError("maxsize must be None or >= 0")
        self.maxsize = maxsize
        self._lock = checked(threading.Lock(), "LRUCache._lock")
        self._data: OrderedDict[K, V] = OrderedDict()  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock

    def get(self, key: K) -> V | None:
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: K, value: V) -> None:
        if self.maxsize == 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if self.maxsize is not None and len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


@dataclass
class PlanEntry:
    """One memoized optimizer outcome (for the canonical query).

    Only the chosen plan and its prepared form are pinned — never the
    optimizer's full plan list (up to ``max_plans`` per shape), which
    would grow the cache without bound for no reader.
    """

    plan: LogicalPlan
    prepared: PreparedPlan
    #: the file keys the plan's scans read (None: every file, a
    #: variable property) — what the instance's answer depends on
    footprint: tuple[FileKey, ...] | None
    #: summary of the enumeration that produced the plan
    plan_count: int = 0
    truncated: bool = False


class PlanCache(LRUCache[tuple, PlanEntry]):
    """instance key -> cost-selected, fully-bound prepared plan."""


@dataclass
class TemplateEntry:
    """One memoized template optimization.

    ``prepared`` is the template's prepared plan — scan patterns carry
    ``$s<slot>`` placeholders where constants go — ready to
    :meth:`~repro.physical.executor.PreparedPlan.bind` by any
    extraction with the entry's signature.
    """

    plan: LogicalPlan
    prepared: PreparedPlan
    optimize_s: float
    #: summary of the search that produced the plan: plans completed,
    #: branches the cost bound cut
    plan_count: int = 0
    pruned: int = 0
    truncated: bool = False


class TemplateCache(LRUCache[tuple, TemplateEntry]):
    """template signature -> optimized-once parameterized plan."""


@dataclass
class ResultEntry:
    """One memoized answer, in canonical variable space.

    ``version`` is the graph version it was computed at, or patched
    to; it stays the answer until one of the files of its ``footprint``
    is written, which ``stamp`` (the store's versions of those files
    then) detects.  A stale entry is then patched from the delta log's
    per-template joins (:meth:`patched`) — dropped only past the log's
    horizon or a join's work bound.  ``report`` is the report of the
    run that computed it; a patch keeps it.  The answer is kept as its
    id-space ``block``; ``rows``, the canonical term-tuple set, is
    decoded from it the first time a reader needs it (a result hit, a
    flight's waiter, a batch duplicate — or the computing submission,
    when the result cache keeps the entry).  Every reader shares one
    immutable set per column order (:meth:`view`), and a patch carries
    each set forward by the rows it adds.
    """

    version: int
    footprint: tuple[FileKey, ...] | None
    stamp: tuple[int, ...]
    block: ColumnBlock
    plan: LogicalPlan
    report: ExecutionReport
    job_signature: str
    _rows: frozenset[tuple] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: column order -> the answer's immutable view in that order
    _views: dict[tuple[str, ...], frozenset[tuple]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def attrs(self) -> tuple[str, ...]:
        return self.block.attrs

    @property
    def rows(self) -> frozenset[tuple]:
        """The canonical answer set.  Racing first readers each decode
        an equal set; one assignment publishes it."""
        rows = self._rows
        if rows is None:
            rows = self._rows = answer_rows(self.block)
        return rows

    def view(self, columns: tuple[str, ...]) -> frozenset[tuple]:
        """The answer with its columns taken in the order *columns*
        names (canonical attrs), built once per order: the canonical
        order is ``rows`` itself.  Racing first readers of one order
        each project it; the first to publish wins."""
        if columns == self.attrs:
            return self.rows
        found = self._views.get(columns)
        if found is None:
            found = self._views.setdefault(
                columns, _project(self.rows, self._index(columns))
            )
        return found

    def _index(self, columns: tuple[str, ...]) -> list[int]:
        attrs = self.attrs
        return [attrs.index(c) for c in columns]

    def patched(
        self,
        version: int,
        stamp: tuple[int, ...],
        block: ColumnBlock,
        added: AbstractSet[tuple],
    ) -> "ResultEntry":
        """This answer brought forward to *version*: its *block* holds
        the rows *added* (canonical term tuples, none of them in
        ``rows``) too.  The row set and every view are carried
        forward by those rows, not decoded or projected again."""
        entry = replace(self, version=version, stamp=stamp, block=block)
        views = self._views.copy()
        if not added:
            entry._rows = self.rows
            entry._views = views
            return entry
        entry._rows = self.rows | added
        entry._views = {
            columns: view | _project(added, self._index(columns))
            for columns, view in views.items()
        }
        return entry


def _project(rows: AbstractSet[tuple], index: list[int]) -> frozenset[tuple]:
    """*rows* with their columns taken at *index*, as a set."""
    if len(index) > 1:
        return frozenset(map(itemgetter(*index), rows))
    if index:
        return frozenset(zip(map(itemgetter(index[0]), rows)))
    return frozenset({()}) if rows else frozenset()


class ResultCache(LRUCache[tuple, ResultEntry]):
    """signature -> answers, staled by writes to the files they read."""

    def __init__(self, maxsize: int | None = 256) -> None:
        super().__init__(maxsize)
        self.stale_drops = 0  # guarded-by: _lock

    def lookup(
        self,
        key: tuple,
        stamp_of: Callable[[tuple[FileKey, ...] | None], tuple[int, ...]],
    ) -> tuple[ResultEntry | None, bool]:
        """``(entry, current)``: the cached entry (None when absent) and
        whether ``stamp_of`` its footprint (the files' versions now)
        still equals its stamp.  A stale entry counts as a miss and
        stays cached, for its reader to patch or :meth:`drop`."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None or stamp_of(entry.footprint) != entry.stamp:
                self.misses += 1
                return entry, False
            self._data.move_to_end(key)
            self.hits += 1
            return entry, True

    def drop(self, key: tuple, entry: ResultEntry) -> None:
        """Count a stale *entry* that is recomputed rather than patched,
        and drop it if it is still what *key* holds."""
        with self._lock:
            if self._data.get(key) is entry:
                del self._data[key]
            self.stale_drops += 1


@dataclass
class _Flight:
    """One in-flight computation: first caller computes, the rest wait."""

    done: threading.Event = field(default_factory=threading.Event)
    value: Any = None
    error: BaseException | None = None


class SingleFlight:
    """Run a computation once per concurrent key.

    The table of open flights and the lock that guards it live here,
    so callers never see either: the first caller of a key computes
    outside the lock, later callers of the same key wait on its flight
    and share the value (or the error it raised).
    """

    def __init__(self) -> None:
        self._flights_lock = checked(
            threading.Lock(), "SingleFlight._flights_lock"
        )
        self._flights: dict[Hashable, _Flight] = {}  # guarded-by: _flights_lock

    def run(
        self, key: Hashable, compute: Callable[[], V]
    ) -> tuple[V, bool]:
        """``(value, reused)``; ``reused`` is True for waiters."""
        with self._flights_lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = self._flights[key] = _Flight()
        if not leader:
            with span("flight_wait"):
                flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value, True
        try:
            flight.value = value = compute()
            return value, False
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._flights_lock:
                self._flights.pop(key, None)
            flight.done.set()
