"""Pluggable task-execution backends for the MapReduce engine.

The engine schedules a job graph level by level; a backend decides *how*
the tasks of a level actually run:

* :class:`SerialBackend` — in the calling thread, one task after
  another.  The timing-model reference: every other backend must
  produce byte-identical answers and identical simulated reports.
* :class:`ThreadBackend` — a shared :class:`ThreadPoolExecutor`.
  Overlaps whatever releases the GIL; CPU-bound task work stays
  GIL-serialized.
* :class:`ProcessBackend` — a :class:`ProcessPoolExecutor` fanning the
  tasks of a level across worker processes.  Requires picklable task
  specs; the partitioned-store snapshot is shipped once per pool (free
  under the ``fork`` start method) and per-task HDFS traffic is cut to
  the slice each spec declares via ``hdfs_slice()`` (for map chains,
  one node's partitions of the shuffled intermediates).

  Both pools serve a bare :class:`~repro.physical.executor.PlanExecutor`
  only, where the perf ledger still probes them.
* :class:`ColumnarBackend` — inline like serial, but the plan task
  specs run as bulk id-space kernels over dictionary-encoded
  :class:`~repro.columnar.block.ColumnBlock` columns (numpy int64
  arrays) that stay blocks from task to task; see :mod:`repro.columnar`.
  The one engine the query service and every shard worker run.
  ``make_backend(None)`` stays serial, the reference.

Determinism: every backend returns task results **in submission order**
regardless of completion order, and shuffle routing uses the
process-independent :func:`~repro.mapreduce.jobs.stable_hash`, so merged
outputs are reproducible across backends and across runs.

The process backend degrades gracefully: where process pools are
unavailable (sandboxed CI, restricted containers) or a task spec cannot
be pickled (one holding a closure), it falls back to serial execution and
says so once with a :class:`RuntimeWarning`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
import warnings
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass

from repro.analysis.locks import checked
from repro.mapreduce.counters import ExecutionReport
from repro.mapreduce.jobs import TaskContext, TaskSpec


class BackendUnavailable(RuntimeError):
    """Raised when the process backend cannot run and fallback is
    disabled."""


class _InfraFailure(Exception):
    """Internal marker wrapping an infrastructure-level task failure."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause


@dataclass(frozen=True, slots=True)
class TaskInvocation:
    """One task to run: a spec plus its per-call arguments.

    Map tasks invoke ``spec.run(ctx)``; reduce tasks invoke
    ``spec.run(ctx, partition, grouped)``.  The remaining fields say
    where the task sits in the schedule; inline and pool backends ignore
    them, a dispatching backend (the shard router) routes by ``node``
    and sends one frame per ``phase`` of a ``level`` (the spec itself
    travels: a task is never named to a remote worker, which rebuilds
    the invocation with these same fields).

    A map invocation carries no per-execution state, so a level
    program (:mod:`repro.mapreduce.engine`) builds each one once and
    every execution of the plan submits the same objects; a reduce
    invocation is built per execution, around the ``(partition,
    grouped)`` its shuffle produced.
    """

    spec: TaskSpec
    args: tuple = ()
    #: cluster node the task runs on (a reduce partition ``p`` runs on
    #: node ``p % num_nodes``)
    node: int = 0
    #: ``"map"`` or ``"reduce"``; one ``run`` batch holds one phase
    phase: str = "map"
    #: index of the scheduling level the batch belongs to
    level: int = 0


@dataclass(frozen=True)
class TaskBatch(Sequence):
    """One phase of one level as the engine submits it: the invocations
    in submission order, and their *task groups* — the positions of the
    invocations the columnar backend evaluates in one kernel pass
    (:func:`repro.columnar.engine.task_groups`, the one grouping
    function).  A batch is a sequence of its invocations, so a backend
    that runs task by task never looks at the groups; a plain sequence
    of invocations runs every task as a group of its own."""

    invocations: tuple[TaskInvocation, ...]
    groups: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.invocations)

    def __getitem__(self, index):
        return self.invocations[index]

    def __iter__(self) -> Iterator[TaskInvocation]:
        return iter(self.invocations)


def batch_groups(invocations: Sequence[TaskInvocation]) -> Sequence[Sequence[int]]:
    """The task groups of a batch: a :class:`TaskBatch`'s own, else one
    group per invocation."""
    if isinstance(invocations, TaskBatch):
        return invocations.groups
    return [(position,) for position in range(len(invocations))]


class ExecutionBackend(ABC):
    """How the tasks of one scheduling level get executed."""

    name: str = "?"

    @abstractmethod
    def run(self, invocations: Sequence[TaskInvocation], ctx: TaskContext) -> list:
        """Run all invocations; return their results in submission order."""

    @contextmanager
    def execution(
        self, ctx: TaskContext, report: ExecutionReport
    ) -> Iterator[TaskContext]:
        """Bracket one job-graph execution: every ``run`` of the
        execution gets the yielded context.  A dispatching backend
        attaches its per-execution state to it on entry and stamps how
        the work was spread on *report* on exit; the rest run as is."""
        yield ctx

    def prime(self, ctx: TaskContext) -> None:
        """Optional warm-up (e.g. start worker processes) before serving."""

    def close(self) -> None:
        """Release worker pools; the backend must not be used afterwards."""

    def worker_gauges(self) -> list:
        """``(shard, StatsReply | None)`` per shard worker behind this
        backend — none, unless it is the shard router."""
        return []

    def wire_stats(self) -> list:
        """``(shard, counters)`` per shard worker client (as above)."""
        return []

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


# -- per-task timing hook (observability) --------------------------------------
#
# The inline backends (serial, columnar) optionally report (start, end,
# tasks) perf_counter instants — one per task on serial, one per task
# group on columnar — to a caller that wrapped the run in
# ``task_timing()``.  The hook is a plain thread-local consulted once
# per run (not per task), so the untimed path costs one getattr.

_task_hook = threading.local()


class task_timing:
    """Collect ``(start, end, tasks)`` instants from an inline backend,
    one per task group it ran (a task alone is a group of one).

    ``with task_timing() as spans: backend.run(...)`` — *spans* is a
    list the backend appends to while the context is active.  Pool
    backends (thread/process) ignore the hook: their task wall time is
    not attributable to the calling thread.
    """

    __slots__ = ("spans",)

    def __enter__(self) -> list:
        self.spans: list[tuple[float, float, int]] = []
        _task_hook.sink = self.spans
        return self.spans

    def __exit__(self, *exc: object) -> None:
        _task_hook.sink = None


def _run_inline(
    invocations: Sequence[TaskInvocation],
    groups: Iterable[Sequence[int]],
    runner: Callable[[list[TaskInvocation]], list],
) -> list:
    """Every result, in submission order, of running each group (a list
    of positions) through ``runner(members) -> results``."""
    sink = getattr(_task_hook, "sink", None)
    results: list = [None] * len(invocations)
    for positions in groups:
        start = time.perf_counter() if sink is not None else 0.0
        outs = runner([invocations[p] for p in positions])
        for position, out in zip(positions, outs):
            results[position] = out
        if sink is not None:
            sink.append((start, time.perf_counter(), len(positions)))
    return results


class SerialBackend(ExecutionBackend):
    """Run every task inline — today's semantics, and the reference."""

    name = "serial"

    def run(self, invocations: Sequence[TaskInvocation], ctx: TaskContext) -> list:
        return _run_inline(
            invocations,
            [(position,) for position in range(len(invocations))],
            lambda members: [inv.spec.run(ctx, *inv.args) for inv in members],
        )


class ColumnarBackend(ExecutionBackend):
    """Run the plan task specs as vectorized id-space kernels.

    Tasks execute inline like :class:`SerialBackend`, but the three plan
    specs (``ChainMapSpec`` / ``MapOnlySpec`` / ``StarReduceSpec``) are
    evaluated by :mod:`repro.columnar.engine` on dictionary-encoded
    :class:`~repro.columnar.block.ColumnBlock` columns instead of tuple
    lists, one kernel pass per *task group* (a chain's per-node map
    tasks, a reduce spec's partitions; a lone task is a group of one),
    as the :class:`TaskBatch` it is handed names them — the backend
    never groups a batch itself;
    any other spec falls back to its own ``run``.  Results come back
    per invocation in submission order, answers and every task's
    counters identical to serial (the conformance matrix enforces it);
    a chain-map group's shuffle emits, one block per reduce partition,
    ride on its first task.

    The backend owns no id space: it computes in the dictionary of the
    snapshot each batch runs against — the store's, which numbered every
    term at load (on a shard worker, the worker's replica of it).  What
    it keeps is a hash memo and an encoded-scan cache whose keys carry
    the snapshot token (:class:`~repro.columnar.engine.ColumnarState`),
    so one instance serves any number of snapshots at once: every shard
    of an in-process sharded executor, or a store across its mutations
    (a new version's scans are encoded afresh, to the same ids).  Task
    results are blocks over the store's dictionary; see
    :mod:`repro.columnar.engine` for who may read them as id columns.
    """

    name = "columnar"

    def __init__(self) -> None:
        from repro.columnar.engine import ColumnarState

        self.state = ColumnarState()

    def run(self, invocations: Sequence[TaskInvocation], ctx: TaskContext) -> list:
        from repro.columnar.engine import run_invocations

        state = self.state
        return _run_inline(
            invocations,
            batch_groups(invocations),
            lambda members: run_invocations(members, ctx, state),
        )


class ThreadBackend(ExecutionBackend):
    """Fan tasks out on a thread pool (shared context, no pickling)."""

    name = "thread"

    def __init__(self, num_workers: int = 4) -> None:
        if num_workers < 1:
            raise ValueError(f"ThreadBackend needs >= 1 worker, got {num_workers}")
        self.num_workers = num_workers
        self._lock = checked(threading.Lock(), "ThreadBackend._lock")
        self._pool: ThreadPoolExecutor | None = None  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    def run(self, invocations: Sequence[TaskInvocation], ctx: TaskContext) -> list:
        if len(invocations) <= 1:
            return [inv.spec.run(ctx, *inv.args) for inv in invocations]
        with self._lock:
            if self._closed:
                raise RuntimeError("backend is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix="repro-backend",
                )
            pool = self._pool
        futures = [pool.submit(inv.spec.run, ctx, *inv.args) for inv in invocations]
        return [f.result() for f in futures]

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


# -- process backend ----------------------------------------------------------

# Worker-process state, installed once per pool by the initializer: the
# store snapshot is by far the heaviest input, and it is identical for
# every task of a pool's lifetime (the pool is rebuilt when the store
# version changes).
_WORKER_NUM_NODES: int = 0
_WORKER_STORE = None


def _worker_init(num_nodes: int, store) -> None:
    global _WORKER_NUM_NODES, _WORKER_STORE
    _WORKER_NUM_NODES = num_nodes
    _WORKER_STORE = store


def _worker_run(spec: TaskSpec, args: tuple, hdfs_files: dict):
    from repro.mapreduce.hdfs import HDFS

    ctx = TaskContext(
        num_nodes=_WORKER_NUM_NODES,
        store=_WORKER_STORE,
        hdfs=HDFS(num_nodes=_WORKER_NUM_NODES, files=hdfs_files),
    )
    return spec.run(ctx, *args)


#: Errors a *pool creation* attempt can raise when process pools are
#: simply unavailable on this machine (sandboxed CI, missing semaphores,
#: fork denied).
_POOL_CREATION_ERRORS = (
    OSError,
    PermissionError,
    NotImplementedError,
    ImportError,
    ValueError,
)


def _is_infra_error(exc: BaseException) -> bool:
    """Did process execution itself fail, as opposed to the task?

    Worker death and pickling failures are infrastructure: the same task
    would succeed in-process.  Pickling errors surface from the
    submission machinery as PicklingError, or as TypeError/AttributeError
    mentioning pickling ("cannot pickle ...", "Can't pickle ...") — a
    task's own TypeError/OSError must NOT match, or a genuine bug would
    silently demote the backend and be re-run (and possibly masked)
    serially.
    """
    if isinstance(exc, (BrokenProcessPool, pickle.PicklingError)):
        return True
    if isinstance(exc, (TypeError, AttributeError)):
        return "pickle" in str(exc).lower()
    return False


def store_token(store, num_nodes: int = 0) -> object:
    """The identity token of a context's store snapshot.

    Worker pools — and the RPC shard servers, which hold a resident
    snapshot the same way — key their warm state on this token: a
    mutation bumps the store version, the token changes, and whoever
    holds state derived from the old snapshot knows to rebuild.
    """
    if store is None:
        return ("no-store", num_nodes)
    return store.token


def default_process_workers() -> int:
    """Worker count matched to the CPUs this process may actually use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        cpus = os.cpu_count() or 1
    return max(1, cpus)


class ProcessBackend(ExecutionBackend):
    """Fan tasks of a level out across a process pool.

    The pool is created lazily (or via :meth:`prime`) and keyed to the
    store snapshot's identity token: a mutation bumps the store version,
    and the next ``run`` transparently rebuilds the pool so workers never
    serve from a stale store.

    With ``fallback=True`` (the default) any infrastructure failure —
    pool creation denied, worker death, unpicklable task spec — demotes
    the backend to serial execution for good, warning once with the
    reason.  With ``fallback=False`` the same failures raise
    :class:`BackendUnavailable`.
    """

    name = "process"

    def __init__(
        self,
        num_workers: int | None = None,
        *,
        fallback: bool = True,
    ) -> None:
        if num_workers is None:
            num_workers = default_process_workers()
        if num_workers < 1:
            raise ValueError(f"ProcessBackend needs >= 1 worker, got {num_workers}")
        self.num_workers = num_workers
        self.fallback = fallback
        #: guards pool creation/swap/demotion (run() may be called from
        #: many service threads at once; submissions themselves are
        #: thread-safe on the pool)
        self._lock = checked(threading.Lock(), "ProcessBackend._lock")
        self._pool: ProcessPoolExecutor | None = None  # guarded-by: _lock
        self._pool_token: object = None  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        # Written only under _lock; read lock-free on the hot path as a
        # monotonic None -> SerialBackend latch (a stale None merely
        # retries the pool once more before demoting again).
        self._serial: SerialBackend | None = None

    # -- pool management ---------------------------------------------------

    def _context(self):
        # fork is dramatically cheaper where available: workers inherit
        # the store snapshot instead of unpickling it.
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else None)

    def _store_token(self, ctx: TaskContext) -> object:
        return store_token(ctx.store, ctx.num_nodes)

    def _create_pool(self, ctx: TaskContext) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.num_workers,
            mp_context=self._context(),
            initializer=_worker_init,
            initargs=(ctx.num_nodes, ctx.store),
        )

    def _ensure_pool(self, ctx: TaskContext) -> ProcessPoolExecutor:
        token = self._store_token(ctx)
        with self._lock:
            if self._closed:
                raise RuntimeError("backend is closed")
            if self._pool is not None and token != self._pool_token:
                # The store changed (mutation bumped its version): the
                # workers' inherited snapshot is stale, rebuild the pool.
                self._pool.shutdown(wait=True)
                self._pool = None
            if self._pool is None:
                self._pool = self._create_pool(ctx)
                self._pool_token = token
            return self._pool

    def _demote(self, reason: str) -> SerialBackend:
        if not self.fallback:
            raise BackendUnavailable(reason)
        with self._lock:
            if self._serial is None:
                self._serial = SerialBackend()
                # Never demote silently.
                warnings.warn(
                    f"ProcessBackend demoted to serial: {reason}",
                    RuntimeWarning,
                    stacklevel=3,
                )
            if self._pool is not None:
                try:
                    self._pool.shutdown(wait=False)
                except Exception:
                    pass
                self._pool = None
            return self._serial

    # -- ExecutionBackend --------------------------------------------------

    def prime(self, ctx: TaskContext) -> None:
        """Start the worker pool up-front (before any service threads
        exist, which keeps fork-based pools out of multithreaded forks)."""
        if self._serial is not None:
            return
        try:
            self._ensure_pool(ctx)
        except _POOL_CREATION_ERRORS as exc:
            self._demote(f"process pool unavailable: {exc!r}")

    def run(self, invocations: Sequence[TaskInvocation], ctx: TaskContext) -> list:
        if self._serial is not None:
            return self._serial.run(invocations, ctx)
        if len(invocations) <= 1:
            # Not worth a round-trip; also serves unpicklable specs untouched.
            return [inv.spec.run(ctx, *inv.args) for inv in invocations]
        try:
            pool = self._ensure_pool(ctx)
        except _POOL_CREATION_ERRORS as exc:
            serial = self._demote(f"process pool unavailable: {exc!r}")
            return serial.run(invocations, ctx)
        try:
            hdfs = ctx.hdfs
            futures = [
                pool.submit(
                    _worker_run,
                    inv.spec,
                    inv.args,
                    inv.spec.hdfs_slice(hdfs) if hdfs is not None else {},
                )
                for inv in invocations
            ]
            results = []
            for future in futures:
                try:
                    results.append(future.result())
                except BaseException as exc:
                    if _is_infra_error(exc):
                        raise _InfraFailure(exc) from exc
                    raise  # a genuine task error: surface it unchanged
            return results
        except _InfraFailure as wrapped:
            exc = wrapped.cause
            serial = self._demote(
                f"process execution failed ({type(exc).__name__}: {exc}); "
                "falling back to serial"
            )
            # Task specs are pure (all effects flow through their returned
            # rows/metrics), so re-running the whole level is safe.
            return serial.run(invocations, ctx)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


#: Default number of concurrently executing requests per RPC shard
#: server — the worker-side dispatch pool size, the one the query
#: service runs (``ShardedPlanExecutor(rpc_pipeline=...)``).  ``0``
#: disables multiplexing: the driver serialises the connection.
DEFAULT_RPC_PIPELINE = 4


#: Names accepted by :func:`make_backend`.
BACKEND_NAMES = ("serial", "thread", "process", "columnar")


def make_backend(
    backend: "str | ExecutionBackend | None",
    num_workers: int | None = None,
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    ``num_workers`` applies to thread/process backends; ``None`` picks
    4 threads or one process per available CPU.
    """
    if backend is None:
        return SerialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend == "serial":
        return SerialBackend()
    if backend == "thread":
        return ThreadBackend(num_workers if num_workers is not None else 4)
    if backend == "process":
        return ProcessBackend(num_workers)
    if backend == "columnar":
        return ColumnarBackend()
    raise ValueError(
        f"unknown execution backend {backend!r}; expected one of {BACKEND_NAMES}"
    )
