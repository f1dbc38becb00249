"""Dynamic lock-order witness — the runtime counterpart of LOCK002.

With ``REPRO_LOCK_CHECK=1`` in the environment, locks wrapped with
:func:`checked` (and every :class:`ReadWriteLock`, which reports its
read and write sides under the name it was given) record every *acquired
while holding* edge into one global, process-wide graph.  Two things are
enforced on each new edge:

* **acyclicity** — if adding ``held -> new`` closes a cycle with edges
  observed on any thread, a :class:`LockOrderError` is raised at the
  acquisition that completed the cycle, with both offending stacks named;
* **the declared hierarchy** — when both locks carry a rank in
  :mod:`repro.analysis.hierarchy`, acquiring a lower-ranked (outer) lock
  while holding a higher-ranked (inner) one is an inversion, reported
  even before any reverse edge is observed.

Witness nodes are *names*, not lock instances: every instance of
``LRUCache._lock`` is one node.  Consequently same-name edges (two
sibling instances acquired together) are skipped rather than reported as
self-cycles — sibling-instance ordering needs an instance-level protocol
(e.g. address order) that no current code path requires.

When the flag is off, :func:`checked` returns the lock unchanged and a
:class:`ReadWriteLock` holds no witness, so production paths pay nothing.
"""

from __future__ import annotations

import os
import threading
import traceback
from contextlib import contextmanager
from typing import Any, Iterator

from repro.analysis.hierarchy import rank_of

ENV_FLAG = "REPRO_LOCK_CHECK"


def lock_check_enabled() -> bool:
    """True iff the dynamic witness is enabled in this environment."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


class LockOrderError(RuntimeError):
    """A lock acquisition closed a cycle or inverted the hierarchy."""


def _caller() -> str:
    """A short one-line provenance for the current acquisition site."""
    for frame in reversed(traceback.extract_stack(limit=12)[:-3]):
        if "/repro/analysis/locks" not in frame.filename:
            return f"{frame.filename}:{frame.lineno} in {frame.name}"
    return "<unknown>"


class LockWitness:
    """Process-wide acquisition graph with per-thread held stacks."""

    def __init__(self) -> None:
        self._graph_lock = threading.Lock()
        self._edges: dict[tuple[str, str], str] = {}
        self._local = threading.local()

    # -- held-stack bookkeeping -------------------------------------------

    def _held(self) -> list[str]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = []
            self._local.held = held
        return held

    def acquired(self, name: str) -> None:
        """Record that the current thread acquired *name*."""
        held = self._held()
        if name not in held:  # re-entrant RLock acquisitions add no edge
            site = None
            for outer in held:
                if outer == name:
                    continue
                if site is None:
                    site = _caller()
                self._note_edge(outer, name, site)
        held.append(name)

    def released(self, name: str) -> None:
        """Record that the current thread released *name*."""
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] == name:
                del held[i]
                return

    # -- the graph --------------------------------------------------------

    def _note_edge(self, outer: str, inner: str, site: str) -> None:
        outer_rank, inner_rank = rank_of(outer), rank_of(inner)
        if (
            outer_rank is not None
            and inner_rank is not None
            and inner_rank < outer_rank
        ):
            raise LockOrderError(
                f"hierarchy inversion: acquiring {inner!r} (tier "
                f"{inner_rank}) while holding {outer!r} (tier "
                f"{outer_rank}) at {site}; the declared order is "
                "outer tiers first (repro.analysis.hierarchy)"
            )
        with self._graph_lock:
            if (outer, inner) in self._edges:
                return
            reverse_path = self._path(inner, outer)
            if reverse_path is not None:
                steps = " -> ".join(reverse_path)
                first = self._edges.get(
                    (reverse_path[0], reverse_path[1]), "<unknown>"
                )
                raise LockOrderError(
                    f"lock-order cycle: acquiring {inner!r} while holding "
                    f"{outer!r} at {site}, but the reverse order "
                    f"{steps} was observed first at {first}"
                )
            self._edges[(outer, inner)] = site

    def _path(self, src: str, dst: str) -> list[str] | None:
        """A path src -> ... -> dst over observed edges, else None."""
        stack: list[list[str]] = [[src]]
        seen = {src}
        while stack:
            path = stack.pop()
            node = path[-1]
            if node == dst:
                return path
            for a, b in self._edges:
                if a == node and b not in seen:
                    seen.add(b)
                    stack.append(path + [b])
        return None

    # -- introspection (tests, debugging) ---------------------------------

    def edges(self) -> dict[tuple[str, str], str]:
        with self._graph_lock:
            return dict(self._edges)

    def reset(self) -> None:
        with self._graph_lock:
            self._edges.clear()
        self._local = threading.local()


#: The process-wide witness.  Tests may construct private instances.
WITNESS = LockWitness()

# A fork taken while the parent holds locks (worker spawn under a shard
# lock, process pools) would copy the forking thread's held stack into
# the child, where those locks are phantoms: reset the child's witness.
if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=WITNESS.reset)


class CheckedLock:
    """A drop-in proxy adding witness bookkeeping to any lock-like object.

    Supports plain ``Lock``/``RLock`` and ``Condition`` (``wait`` et al.
    pass through; the lock is counted as held for the duration of a
    ``wait``, which matches what other threads may deduce from this
    thread's stack only conservatively).
    """

    __slots__ = ("_lock", "_name", "_witness")

    def __init__(
        self, lock: Any, name: str, witness: LockWitness | None = None
    ) -> None:
        self._lock = lock
        self._name = name
        self._witness = witness if witness is not None else WITNESS

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        got = self._lock.acquire(*args, **kwargs)
        if got:
            self._witness.acquired(self._name)
        return bool(got)

    def release(self) -> None:
        self._witness.released(self._name)
        self._lock.release()

    def __enter__(self) -> "CheckedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._lock, attr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CheckedLock({self._name!r}, {self._lock!r})"


def checked(lock: Any, name: str) -> Any:
    """Wrap *lock* for witness bookkeeping iff ``REPRO_LOCK_CHECK=1``.

    The flag is consulted at lock *creation* (object construction), so
    setting it before building services/routers/backends is sufficient;
    with the flag off the very same lock object is returned untouched.
    """
    if not lock_check_enabled():
        return lock
    return CheckedLock(lock, name)


class ReadWriteLock:
    """Writer-preferring readers–writer lock, witnessed under *name*.

    Readers share the lock (queries scanning the store, levels running
    on a shard worker); a writer (a store mutation, a snapshot or
    template swap) waits for them to drain, holds off new readers while
    it waits, and runs alone.
    """

    def __init__(self, name: str) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._waiting_writers = 0
        # Lock-order witness node (REPRO_LOCK_CHECK=1); the internal
        # _cond is deliberately not witnessed — it is held only for the
        # bookkeeping instants, never across user code.
        self._name = name
        self._witness = WITNESS if lock_check_enabled() else None

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writer or self._waiting_writers:
                self._cond.wait()
            self._readers += 1
        if self._witness:
            self._witness.acquired(self._name)
        try:
            yield
        finally:
            if self._witness:
                self._witness.released(self._name)
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._waiting_writers += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._waiting_writers -= 1
            self._writer = True
        if self._witness:
            self._witness.acquired(self._name)
        try:
            yield
        finally:
            if self._witness:
                self._witness.released(self._name)
            with self._cond:
                self._writer = False
                self._cond.notify_all()
