"""Statistics, spans and host facts shared by the ledger's runs."""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Seconds the calibration kernel takes on this host when it is quiet.
REFERENCE_S = 0.012


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel owned by the benchmark.

    The sandbox's speed moves by 10-60 % in waves that last from seconds
    to minutes.  Every round of the timed phase is bracketed by two
    calibrations, and its times are scaled to the reference host speed by
    ``REFERENCE_S / measured``.  The kernel formats and hashes strings
    because, of four kernels tried beside 1 700 ``lubm_warm`` rounds, it
    tracked the program best (window medians spread 4.2 % after scaling,
    12.5 % before; an integer loop left 6.4 %).
    """
    started = time.perf_counter()
    mixed = 0
    for i in range(40_000):
        mixed ^= hash(f"<n{i}.{mixed & 7}>")
    return time.perf_counter() - started


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of *values* (q in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def class_medians(pairs) -> dict[str, float]:
    """Median per class of ``(class, value)`` pairs, classes sorted."""
    by_class: dict[str, list[float]] = {}
    for cls, value in pairs:
        by_class.setdefault(cls, []).append(value)
    return {cls: statistics.median(v) for cls, v in sorted(by_class.items())}


def speed_probe(calibrated: bool):
    """``calibrate``, or a stand-in that always reads the reference
    speed, so that times stay raw."""
    return calibrate if calibrated else (lambda: REFERENCE_S)


@dataclass
class Segment:
    """One round of the timed phase; every round does the same work."""

    wall_s: float = 0.0
    #: mean of the calibrations before and after the round
    calib_s: float = REFERENCE_S
    #: (query class, latency in seconds) per completed query
    reads: list[tuple[str, float]] = field(default_factory=list)
    #: latency in seconds per ``add_triples``
    writes: list[float] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.reads) + len(self.writes)

    def class_medians(self) -> dict[str, float]:
        return class_medians(self.reads)

    def stats(self, calibrated: bool = True) -> dict[str, float]:
        """The round's statistics, at the reference host speed unless
        *calibrated* is false."""
        speed = REFERENCE_S / self.calib_s if calibrated else 1.0
        latencies = [seconds for _cls, seconds in self.reads]
        medians = list(self.class_medians().values())
        out = {
            "throughput_qps": self.ops / (self.wall_s * speed),
            "latency_p50_ms": 1e3 * speed * statistics.median(latencies),
            "latency_p95_ms": 1e3 * speed * percentile(latencies, 95),
            "latency_geomean_ms": 1e3 * speed * geomean(medians),
            "latency_classsum_ms": 1e3 * speed * sum(medians),
        }
        if self.writes:
            out["write_p50_ms"] = 1e3 * speed * statistics.median(self.writes)
        return out


def summarize(segments: list[Segment]) -> dict[str, dict]:
    """Median over rounds of each round statistic, with the values
    behind it so the spread stays visible, calibrated and raw."""
    calibrated = [segment.stats() for segment in segments]
    raw = [segment.stats(calibrated=False) for segment in segments]
    out = {}
    for name in calibrated[0]:
        values = [stats[name] for stats in calibrated]
        raw_values = [stats[name] for stats in raw]
        out[name] = {
            "median": statistics.median(values),
            "raw_median": statistics.median(raw_values),
            "segments": values,
            "raw_segments": raw_values,
        }
    return out


def timed_rounds(count: int, one_round, prepare=None, calibrated=True) -> list[Segment]:
    """Run ``one_round(index, segment)`` *count* times, timing each and
    bracketing it with calibrations; ``prepare(index)`` and the
    calibrations run outside the round's clock.  With *calibrated* false
    the rounds keep the reference speed, so their times stay raw."""
    probe = speed_probe(calibrated)
    segments = []
    before = probe()
    for index in range(count):
        if prepare is not None:
            prepare(index)
            before = probe()
        segment = Segment()
        started = time.perf_counter()
        one_round(index, segment)
        segment.wall_s = time.perf_counter() - started
        after = probe()
        segment.calib_s = (before + after) / 2
        before = after
        segments.append(segment)
    return segments


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def host_facts() -> dict[str, object]:
    try:
        import numpy

        numpy_version: str | None = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0],
        "platform": platform.platform(),
    }


class SpanLog:
    """The benchmark's own spans: name, start, end, parent and op id,
    kept in memory and written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def add(self, name: str, start: float, end: float, op: object, **attrs: object) -> None:
        """A finished top-level span (the call already returned)."""
        self.spans.append(
            {"id": next(self._ids), "name": name, "parent": None, "op": op,
             "start": start, "end": end, **attrs}
        )

    @contextmanager
    def span(self, name: str, op: object = None, **attrs: object):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "op": op if op is not None or parent is None else parent["op"],
            "start": time.perf_counter(),
            "end": 0.0,
            **attrs,
        }
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def self_times(self) -> dict[int, float]:
        """Per span id: its duration minus what its child spans cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))
