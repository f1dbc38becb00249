"""A level's trip to one shard, driver side: cross-query coalescing
and the level span.

:class:`LevelCoalescer` is a shard's micro-batcher, used by
:class:`~repro.cluster.router.ShardRouter` when coalescing is on: it
merges concurrent queries' :class:`~repro.cluster.frames.ExecuteLevel`
frames into one :class:`~repro.cluster.frames.ExecuteBatch`.
:func:`record_level_span` records a traced round trip, plain or
coalesced, and re-anchors the worker's shipped spans under it.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from repro.analysis.locks import checked
from repro.cluster.frames import (
    ErrorReply,
    ExecuteBatch,
    ExecuteLevel,
    RpcProtocolError,
    WireTimes,
)
from repro.obs.trace import attach_worker_spans, record_remote

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.router import ShardDispatch, ShardRouter


def record_level_span(
    msg: ExecuteLevel,
    reply,
    start: float,
    end: float,
    times: WireTimes,
    shard: int,
    coalesced: int = 1,
    transport: str = "rpc",
) -> None:
    """Record one traced level round trip driver-side, as a
    ``<transport>:level`` span (``rpc:level``, ``inproc:level``).

    Its children tile it, in time order (in process the ``wire:*``
    spans are the function-call hand-off, and there is no ``encode``):

    * ``wire:encode`` — everything this end does until the frame is on
      the socket: finding the live client, taking the send lock, frame
      packing + pickle + write (and, after a worker respawn, the
      attempt before);
    * the worker's shipped span records, re-anchored at the instant the
      frame was written (the only one the two clocks agree on — the
      driver's send is the worker's receipt, minus wire latency);
    * ``wire:transit`` — whatever of the window up to the reply's
      arrival the worker did not report: the socket both ways, the
      envelope pickles and the two process wake-ups, which the two
      clocks cannot tell apart;
    * the worker's reply-``encode`` time, ending where the reply was
      read;
    * ``wire:decode`` — the reader thread unpickling + decoding the
      reply, through the hand-off to the requesting thread.

    ``coalesced`` > 1 marks members of a shared :class:`ExecuteBatch`
    frame, whose round trip (and wire times) cover all members.
    """
    attrs = {"shard": shard, "level": msg.level, "phase": msg.phase}
    if coalesced > 1:
        attrs["coalesced"] = coalesced
    ref = record_remote(msg.trace_ctx, f"{transport}:level", start, end, **attrs)
    if ref is None:
        return
    ctx = ref.ctx()
    shared = {"shared": coalesced} if coalesced > 1 else {}
    record_remote(ctx, "wire:encode", start, times.sent, shard=shard, **shared)
    record_remote(ctx, "wire:decode", times.received, end, shard=shard, **shared)
    records = list(getattr(reply, "spans", None) or ())
    encode_s = times.worker_encode_s
    reported = max(
        (
            rel_start + duration
            for _, parent, rel_start, duration, _ in records
            if parent < 0
        ),
        default=0.0,
    )
    tail = max(reported, (times.received - times.sent) - encode_s)
    if tail > reported:
        records.append(("wire:transit", -1, reported, tail - reported, {}))
    if encode_s > 0.0:
        records.append(("encode", -1, tail, encode_s, {}))
    attach_worker_spans(
        ref, records, anchor=times.sent, scale_hint=coalesced, shard=shard
    )


class _PendingLevel:
    """One query's ExecuteLevel waiting in a shard's coalescer."""

    __slots__ = ("msg", "ctx", "reply", "error", "done")

    def __init__(self, msg: ExecuteLevel, ctx: ShardDispatch | None) -> None:
        self.msg = msg
        self.ctx = ctx
        self.reply = None
        self.error: BaseException | None = None
        self.done = threading.Event()


class LevelCoalescer:
    """Per-shard micro-batcher merging concurrent queries' levels.

    The first submitter becomes the *leader*: it waits up to the
    coalescing window (or until ``max_batch`` levels are pending — no
    background thread, no idle timer when traffic is serial), then
    drains **everything** pending and flushes it in chunks of at most
    ``max_batch`` as :class:`ExecuteBatch` frames; a chunk of one goes
    out as a plain :class:`ExecuteLevel`.  Followers block on their
    item until the leader's flush resolves it.  Every exit path sets
    the item's event — a dead worker fails all coalesced queries typed
    (or they recover via the respawn retry inside ``_shard_call``),
    never hangs them.
    """

    def __init__(self, router: ShardRouter, shard: int) -> None:
        self.router = router
        self.shard = shard
        self.window = router.coalesce_window_ms / 1000.0
        self.max_batch = router.coalesce_max_batch
        self._cond = checked(threading.Condition(), "LevelCoalescer._cond")
        self._pending: list[_PendingLevel] = []
        self._leader = False

    def submit(self, msg: ExecuteLevel, exec_ctx: ShardDispatch | None):
        item = _PendingLevel(msg, exec_ctx)
        with self._cond:
            self._pending.append(item)
            if self._leader:
                if len(self._pending) >= self.max_batch:
                    self._cond.notify_all()
                batch = None
            else:
                self._leader = True
                # Holding the window open only pays when another query
                # is actually in flight; a lone query's levels would
                # just eat the full window as pure latency tax, so the
                # leader checks router-observed concurrency first.
                if self.window > 0 and self.router._active_queries() > 1:
                    deadline = time.monotonic() + self.window
                    while len(self._pending) < self.max_batch:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                batch, self._pending = self._pending, []
                self._leader = False
        if batch is None:
            item.done.wait()
        else:
            for start in range(0, len(batch), self.max_batch):
                self._flush(batch[start : start + self.max_batch])
        if item.error is not None:
            raise item.error
        return item.reply

    def _flush(self, chunk: list[_PendingLevel]) -> None:
        try:
            if len(chunk) == 1:
                item = chunk[0]
                self.router._note_frames(1)
                item.reply = self.router._send_level(
                    self.shard, item.msg, item.ctx
                )
            else:
                self._flush_batch(chunk)
        except BaseException as exc:
            for item in chunk:
                if item.reply is None and item.error is None:
                    item.error = exc
        finally:
            for item in chunk:
                item.done.set()

    def _flush_batch(self, chunk: list[_PendingLevel]) -> None:
        router, shard = self.router, self.shard
        sub_rids = [router._next_sub_id() for _ in chunk]
        msg = ExecuteBatch(
            items=tuple(
                (rid, item.msg) for rid, item in zip(sub_rids, chunk)
            )
        )
        sent = [0]
        wire: list[WireTimes] = []

        def on_bytes(n: int) -> None:
            sent[0] = n

        traced = any(item.msg.trace_ctx is not None for item in chunk)
        router._note_frames(1)
        start = time.perf_counter()
        reply = router._shard_call(
            shard, msg, on_bytes, wire.append if traced else None
        )
        end = time.perf_counter()
        # Attribute the shared frame's bytes across its members (the
        # remainder lands on the first few); each member rode 1 frame.
        # The worker's encode time is split equally the same way.
        share, spill = divmod(sent[0], len(chunk))
        if traced:
            times = wire[-1]._replace(
                worker_encode_s=wire[-1].worker_encode_s / len(chunk)
            )
        by_sub = dict(reply.replies)
        for index, (rid, item) in enumerate(zip(sub_rids, chunk)):
            if item.ctx is not None:
                item.ctx.add(shard, share + (1 if index < spill else 0))
            sub = by_sub.get(rid)
            if item.msg.trace_ctx is not None:
                record_level_span(
                    item.msg,
                    sub,
                    start,
                    end,
                    times,
                    shard,
                    coalesced=len(chunk),
                    transport=router.transport,
                )
            if sub is None:
                item.error = RpcProtocolError(
                    f"shard {shard} batch reply is missing request {rid}"
                )
            elif isinstance(sub, ErrorReply):
                item.error = sub.error
            else:
                item.reply = sub
