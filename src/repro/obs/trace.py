"""Tracing core: lightweight spans, a bounded in-memory sink, and
contextvar propagation.

A *trace* is one query's tree of timed spans.  The service starts a
trace per submission (when ``ServiceConfig.tracing`` is on, or always
for ``explain_analyze``); instrumentation sites open child spans with
:func:`span`, which reads the active :class:`SpanRef` from a contextvar
so nesting follows the call stack with no plumbing.  Cross-thread and
cross-process sites (router dispatch pools, RPC shard workers) instead
carry a picklable ``(trace_id, span_id)`` pair — see :func:`trace_ctx`
— and attach spans explicitly via :func:`record_remote`, which resolves
the owning sink through a process-local directory of live traces.

Zero-cost-when-off: with no active trace, :func:`span` returns a
preallocated no-op context manager and :func:`trace_ctx` returns None
after a single contextvar read — no allocation, no locking, no clock
reads (measured by the ledger cell ``obs.tracing_overhead_pct``).

Timebase: span starts are stored as offsets (seconds) from the trace's
``time.perf_counter()`` epoch, so spans from different driver threads
share one clock.  Worker processes have an unrelated clock; their spans
ship as offsets relative to the worker's *frame receipt* and the driver
anchors them at the start of its own RPC span (clock-skew handling —
worker wall time is trusted, worker absolute time is not).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import uuid
from collections import OrderedDict
from contextlib import AbstractContextManager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.analysis.locks import checked

#: Retained traces per sink (oldest evicted first).
DEFAULT_MAX_TRACES = 256
#: Spans kept per trace; further spans increment ``Trace.truncated``.
DEFAULT_SPAN_CAP = 512

_IDS = itertools.count(1)  # span ids; next() is atomic under the GIL


@dataclass
class Span:
    """One timed operation inside a trace.

    ``start_s`` is the offset from the trace epoch; ``attrs`` carries
    small identifying values (shard, level, worker pid, bytes).
    """

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    duration_s: float
    attrs: dict[str, Any] = field(default_factory=dict)


@dataclass
class Trace:
    """A bounded tree of spans rooted at one query submission."""

    trace_id: str
    name: str
    epoch: float
    root_id: int
    spans: list[Span]
    truncated: int = 0

    def root(self) -> Span:
        return self.spans[0]

    def children(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def find(self, name: str) -> list[Span]:
        """Every span named *name* (exact match)."""
        return [s for s in self.spans if s.name == name]

    def render(self) -> str:
        """Indented text rendering of the span tree."""
        by_parent: dict[int | None, list[Span]] = {}
        for s in self.spans:
            by_parent.setdefault(s.parent_id, []).append(s)
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            attrs = " ".join(
                f"{k}={v}" for k, v in sorted(span.attrs.items())
            )
            pad = "  " * depth
            lines.append(
                f"{pad}{span.name}  {span.duration_s * 1e3:.3f} ms"
                + (f"  [{attrs}]" if attrs else "")
            )
            for child in sorted(
                by_parent.get(span.span_id, ()), key=lambda s: s.start_s
            ):
                walk(child, depth + 1)

        walk(self.root(), 0)
        if self.truncated:
            lines.append(f"... {self.truncated} spans over cap dropped")
        return "\n".join(lines)


# -- the process-local directory of live traces ----------------------------
#
# record_remote() runs on router dispatch-pool threads and coalescer
# leader threads that never saw the query's contextvar; the picklable
# (trace_id, span_id) pair they do have resolves back to the owning sink
# here.  Mutations happen under the lock; the hot-path lookup is a bare
# dict.get (atomic in CPython), so a disabled deployment never touches
# the lock.

_dir_lock = checked(threading.Lock(), "_trace_dir_lock")
_directory: dict[str, "TraceSink"] = {}


def _directory_add(trace_id: str, sink: "TraceSink") -> None:
    with _dir_lock:
        _directory[trace_id] = sink


def _directory_drop(trace_ids: Iterable[str]) -> None:
    with _dir_lock:
        for tid in trace_ids:
            _directory.pop(tid, None)


class TraceSink:
    """Bounded in-memory store of finished and in-flight traces."""

    def __init__(
        self,
        max_traces: int = DEFAULT_MAX_TRACES,
        span_cap: int = DEFAULT_SPAN_CAP,
    ) -> None:
        if max_traces < 1 or span_cap < 2:
            raise ValueError("max_traces >= 1 and span_cap >= 2 required")
        self.max_traces = max_traces
        self.span_cap = span_cap
        self._lock = checked(threading.Lock(), "TraceSink._lock")
        self._traces: OrderedDict[str, Trace] = OrderedDict()  # guarded-by: _lock

    # -- trace lifecycle ---------------------------------------------------

    def start_trace(
        self,
        name: str,
        epoch: float | None = None,
        **attrs: Any,
    ) -> "SpanRef":
        """Open a trace; the returned ref points at its root span.

        ``epoch`` is the ``perf_counter`` instant of the root start
        (default: now); the caller closes the root with
        :meth:`finish_trace` so the root duration can be made exactly
        equal to an externally measured total.
        """
        trace_id = uuid.uuid4().hex[:16]
        root_id = next(_IDS)
        root = Span(root_id, None, name, 0.0, 0.0, dict(attrs))
        trace = Trace(
            trace_id=trace_id,
            name=name,
            epoch=time.perf_counter() if epoch is None else epoch,
            root_id=root_id,
            spans=[root],
        )
        evicted: list[str] = []
        with self._lock:
            self._traces[trace_id] = trace
            while len(self._traces) > self.max_traces:
                evicted.append(self._traces.popitem(last=False)[0])
        if evicted:
            _directory_drop(evicted)
        _directory_add(trace_id, self)
        return SpanRef(self, trace_id, root_id)

    def finish_trace(self, trace_id: str, duration_s: float) -> None:
        """Close the root span with an authoritative total duration."""
        with self._lock:
            trace = self._traces.get(trace_id)
            if trace is not None:
                trace.spans[0].duration_s = duration_s

    def get(self, trace_id: str) -> Trace | None:
        with self._lock:
            trace = self._traces.get(trace_id)
            if trace is None:
                return None
            return Trace(
                trace_id=trace.trace_id,
                name=trace.name,
                epoch=trace.epoch,
                root_id=trace.root_id,
                spans=[
                    Span(
                        s.span_id,
                        s.parent_id,
                        s.name,
                        s.start_s,
                        s.duration_s,
                        dict(s.attrs),
                    )
                    for s in trace.spans
                ],
                truncated=trace.truncated,
            )

    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def clear(self) -> None:
        with self._lock:
            dropped = list(self._traces)
            self._traces.clear()
        _directory_drop(dropped)

    # -- span recording ----------------------------------------------------

    def add_span(
        self,
        trace_id: str,
        parent_id: int | None,
        name: str,
        start_s: float,
        duration_s: float,
        attrs: dict[str, Any] | None = None,
    ) -> int:
        """Append one finished span; returns its id (0 if dropped)."""
        span = Span(
            next(_IDS), parent_id, name, start_s, max(0.0, duration_s), attrs or {}
        )
        return self.append_span(trace_id, span)

    def append_span(self, trace_id: str, span: Span) -> int:
        """Append a pre-built span (caller-assigned id); 0 if dropped."""
        with self._lock:
            trace = self._traces.get(trace_id)
            if trace is None:
                return 0
            if len(trace.spans) >= self.span_cap:
                trace.truncated += 1
                return 0
            trace.spans.append(span)
        return span.span_id

    def offset(self, trace_id: str, instant: float) -> float:
        """perf_counter instant -> offset from the trace's epoch."""
        with self._lock:
            trace = self._traces.get(trace_id)
            epoch = trace.epoch if trace is not None else instant
        return instant - epoch

    # -- chrome://tracing export -------------------------------------------

    def export_chrome_trace(
        self, path: str, trace_ids: Iterable[str] | None = None
    ) -> int:
        """Write traces as Chrome trace-event JSON; returns event count.

        Load the file via ``chrome://tracing`` or https://ui.perfetto.dev.
        Each trace becomes one "process"; the span tree renders as
        complete ("ph": "X") events on depth-derived tracks.
        """
        ids = list(trace_ids) if trace_ids is not None else self.trace_ids()
        events: list[dict[str, Any]] = []
        for pid, tid_key in enumerate(ids, start=1):
            trace = self.get(tid_key)
            if trace is None:
                continue
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"{trace.name} [{trace.trace_id}]"},
                }
            )
            depth: dict[int, int] = {trace.root_id: 0}
            ordered = sorted(
                trace.spans, key=lambda s: (s.parent_id is not None, s.start_s)
            )
            for s in ordered:
                if s.parent_id is not None:
                    depth[s.span_id] = depth.get(s.parent_id, 0) + 1
                events.append(
                    {
                        "name": s.name,
                        "cat": trace.name,
                        "ph": "X",
                        "ts": round(s.start_s * 1e6, 3),
                        "dur": round(s.duration_s * 1e6, 3),
                        "pid": pid,
                        "tid": depth.get(s.span_id, 0),
                        "args": dict(s.attrs),
                    }
                )
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)
        return len(events)


@dataclass(frozen=True)
class SpanRef:
    """A live position in a trace: the sink plus (trace_id, span_id).

    Driver-side only — never pickled.  The picklable projection for RPC
    frames is :meth:`ctx`.
    """

    sink: TraceSink
    trace_id: str
    span_id: int

    def ctx(self) -> tuple[str, int]:
        return (self.trace_id, self.span_id)


# -- contextvar propagation ------------------------------------------------

_ACTIVE: ContextVar[SpanRef | None] = ContextVar("repro_obs_span", default=None)


def trace_ctx() -> tuple[str, int] | None:
    """Picklable (trace_id, span_id) for RPC frames; None when off."""
    ref = _ACTIVE.get()
    return None if ref is None else (ref.trace_id, ref.span_id)


def activate(ref: SpanRef | None) -> "_Activation":
    """Context manager installing *ref* as the active span.

    Used at trace roots and when re-entering a trace on a foreign thread
    (batch pool workers) — :func:`span` handles ordinary nesting.
    """
    return _Activation(ref)


class _Activation(AbstractContextManager["SpanRef | None"]):
    __slots__ = ("_ref", "_token")

    def __init__(self, ref: SpanRef | None) -> None:
        self._ref = ref

    def __enter__(self) -> SpanRef | None:
        self._token = _ACTIVE.set(self._ref)
        return self._ref

    def __exit__(self, *exc: object) -> None:
        _ACTIVE.reset(self._token)


class _NoopSpan:
    """What :func:`span` yields when tracing is off: every op a no-op."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass


class _NoopCtx(AbstractContextManager[_NoopSpan]):
    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, *exc: object) -> None:
        pass


_NOOP_SPAN = _NoopSpan()
_NOOP_CTX = _NoopCtx()


class _LiveSpan(AbstractContextManager["_LiveSpan"]):
    """An open span: records itself into the sink on exit."""

    __slots__ = ("_ref", "name", "attrs", "_start", "_end", "_token", "span_id")

    def __init__(self, ref: SpanRef, name: str, attrs: dict[str, Any]) -> None:
        self._ref = ref
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "_LiveSpan":
        self.span_id = next(_IDS)
        self._token = _ACTIVE.set(
            SpanRef(self._ref.sink, self._ref.trace_id, self.span_id)
        )
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._end = end = time.perf_counter()
        _ACTIVE.reset(self._token)
        sink = self._ref.sink
        if exc_type is not None:
            self.attrs.setdefault("error", getattr(exc_type, "__name__", "error"))
        self._record(sink, end)

    def _record(self, sink: TraceSink, end: float) -> None:
        # The span's id was allocated at __enter__ (children recorded
        # during the span already name it as parent), so append the
        # pre-built span instead of letting add_span mint a fresh id.
        sink.append_span(
            self._ref.trace_id,
            Span(
                self.span_id,
                self._ref.span_id,
                self.name,
                sink.offset(self._ref.trace_id, self._start),
                max(0.0, end - self._start),
                self.attrs,
            ),
        )


def span(name: str, **attrs: Any) -> AbstractContextManager[Any]:
    """Open a child of the active span; a shared no-op when tracing is off."""
    ref = _ACTIVE.get()
    if ref is None:
        return _NOOP_CTX
    return _LiveSpan(ref, name, attrs)


class stage(AbstractContextManager["stage"]):
    """A span whose duration its caller keeps: ``seconds`` is set on
    exit whether or not a trace is active, from the one pair of clock
    reads that is also the span's when one is."""

    __slots__ = ("_span", "_start", "seconds")

    def __init__(self, name: str, **attrs: Any) -> None:
        ref = _ACTIVE.get()
        self._span = None if ref is None else _LiveSpan(ref, name, attrs)
        self.seconds = 0.0

    def set(self, **attrs: Any) -> None:
        if self._span is not None:
            self._span.set(**attrs)

    def __enter__(self) -> "stage":
        if self._span is None:
            self._start = time.perf_counter()
        else:
            self._start = self._span.__enter__()._start
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if self._span is None:
            end = time.perf_counter()
        else:
            self._span.__exit__(exc_type, exc, tb)
            end = self._span._end
        self.seconds = end - self._start


# -- explicit (cross-thread / cross-process) recording ---------------------


def resolve(ctx: tuple[str, int] | None) -> SpanRef | None:
    """A (trace_id, span_id) pair -> SpanRef, if the trace is still live."""
    if ctx is None:
        return None
    sink = _directory.get(ctx[0])
    if sink is None:
        return None
    return SpanRef(sink, ctx[0], ctx[1])


def record_remote(
    ctx: tuple[str, int] | None,
    name: str,
    start: float,
    end: float,
    **attrs: Any,
) -> SpanRef | None:
    """Attach a finished span under *ctx* from any thread.

    *start*/*end* are driver ``perf_counter`` instants.  Returns a ref
    to the new span (for anchoring worker sub-spans under it), or None
    when the trace is gone or tracing is off.
    """
    ref = resolve(ctx)
    if ref is None:
        return None
    sink = ref.sink
    span_id = sink.add_span(
        ref.trace_id,
        ref.span_id,
        name,
        sink.offset(ref.trace_id, start),
        end - start,
        dict(attrs),
    )
    if span_id == 0:
        return None
    return SpanRef(sink, ref.trace_id, span_id)


# -- worker-side span accumulation (ships over RPC) ------------------------
#
# Workers have no sink and an unrelated clock.  They accumulate compact
# picklable records relative to the frame-receipt instant; the driver
# re-anchors them under its RPC span via attach_worker_spans().

#: (name, parent_index, rel_start_s, duration_s, attrs) — parent_index
#: refers into the same record tuple, -1 meaning the driver's RPC span.
WorkerSpanRecord = tuple[str, int, float, float, dict[str, Any]]


class SpanAccumulator:
    """Worker-side recorder for one traced frame.

    Not thread-safe by design: one accumulator per in-flight frame, and
    the worker handles a frame's phases sequentially.
    """

    __slots__ = ("t0", "records")

    def __init__(self, t0: float | None = None) -> None:
        self.t0 = time.perf_counter() if t0 is None else t0
        self.records: list[WorkerSpanRecord] = []

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: int = -1,
        **attrs: Any,
    ) -> int:
        """Record [start, end] (worker perf_counter); returns record index."""
        self.records.append(
            (name, parent, start - self.t0, max(0.0, end - start), attrs)
        )
        return len(self.records) - 1

    def packed(self) -> tuple[WorkerSpanRecord, ...]:
        return tuple(self.records)


def attach_worker_spans(
    parent: SpanRef | None,
    records: Iterable[WorkerSpanRecord],
    anchor: float,
    scale_hint: int = 1,
    **extra: Any,
) -> None:
    """Re-anchor worker span records under a driver span.

    *anchor* is the driver ``perf_counter`` instant standing in for the
    worker's frame receipt (the start of the driver's RPC span — worker
    clocks are not comparable, worker durations are).  ``scale_hint``
    > 1 marks spans that cover a shared (coalesced) frame so renderers
    can flag the attribution; *extra* attrs are added to every span.
    """
    if parent is None:
        return
    sink = parent.sink
    base = sink.offset(parent.trace_id, anchor)
    ids: dict[int, int] = {}
    for index, (name, parent_ix, rel_start, duration, attrs) in enumerate(
        records
    ):
        merged = dict(attrs)
        merged.update(extra)
        if scale_hint > 1:
            merged.setdefault("shared", scale_hint)
        parent_id = (
            ids.get(parent_ix, parent.span_id) if parent_ix >= 0 else parent.span_id
        )
        span_id = sink.add_span(
            parent.trace_id,
            parent_id,
            name,
            base + max(0.0, rel_start),
            duration,
            merged,
        )
        if span_id:
            ids[index] = span_id


__all__ = [
    "DEFAULT_MAX_TRACES",
    "DEFAULT_SPAN_CAP",
    "Span",
    "SpanAccumulator",
    "SpanRef",
    "Trace",
    "TraceSink",
    "WorkerSpanRecord",
    "activate",
    "attach_worker_spans",
    "record_remote",
    "resolve",
    "span",
    "stage",
    "trace_ctx",
]
