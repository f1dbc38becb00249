"""Metrics registry: named counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per service owns every metric family; a
family fans out into children keyed by a label tuple (``family.labels
(shard="0")``).  A histogram's running ``count`` and ``sum`` are exact
over the whole series; its bucket counts feed the exposition, and a
bounded reservoir of the last :data:`RESERVOIR` samples feeds the
quantiles (:func:`nearest_rank` over :meth:`Histogram.window`).
Writers that update several series a reader must see together hold
:attr:`MetricsRegistry.update_lock`, and so does that reader.

Exposition: :meth:`MetricsRegistry.render_prometheus` emits the
Prometheus text format (``# HELP``/``# TYPE`` + one line per child and
bucket); :meth:`MetricsRegistry.snapshot` returns the same data as a
JSON-able dict.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import deque
from typing import Any, Iterable, Sequence

from repro.analysis.locks import checked

#: Latency buckets (seconds): 50 µs .. 10 s, roughly log-spaced.  The
#: terminal +Inf bucket is implicit.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Samples a histogram keeps for its quantiles (the most recent ones).
RESERVOIR = 4096

LabelValues = tuple[str, ...]


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The *q*-th percentile (``q`` in [0, 100]) of an ascending
    sequence, by nearest rank; 0.0 when it is empty."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def _format_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    as_int = int(v)
    return str(as_int) if v == as_int else repr(v)


def _label_str(names: tuple[str, ...], values: LabelValues) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{n}="{v}"' for n, v in zip(names, values)
    )
    return "{" + pairs + "}"


class _Child:
    """Shared base for one labeled child of a metric family."""

    __slots__ = ("_metric_lock",)

    def __init__(self) -> None:
        self._metric_lock = checked(threading.Lock(), "_metric_lock")


class Counter(_Child):
    """Monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0  # guarded-by: _metric_lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._metric_lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._metric_lock:
            return self._value


class Gauge(_Child):
    """A value that goes up and down."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0  # guarded-by: _metric_lock

    def set(self, value: float) -> None:
        with self._metric_lock:
            self._value = value

    @property
    def value(self) -> float:
        with self._metric_lock:
            return self._value


class Histogram(_Child):
    """Fixed-bucket histogram with exact running count/sum, and the
    last :data:`RESERVOIR` samples for exact quantiles over them."""

    __slots__ = (
        "buckets", "_counts", "_sum", "_count", "_min", "_max", "_recent"
    )

    def __init__(self, buckets: tuple[float, ...]) -> None:
        super().__init__()
        self.buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # guarded-by: _metric_lock
        self._sum = 0.0  # guarded-by: _metric_lock
        self._count = 0  # guarded-by: _metric_lock
        self._min = math.inf  # guarded-by: _metric_lock
        self._max = 0.0  # guarded-by: _metric_lock
        self._recent = deque(maxlen=RESERVOIR)  # guarded-by: _metric_lock

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._metric_lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._recent.append(value)

    def state(self) -> tuple[list[int], float, int, float, float]:
        """(bucket counts, sum, count, min, max) under one lock hold."""
        with self._metric_lock:
            return (
                list(self._counts),
                self._sum,
                self._count,
                self._min,
                self._max,
            )

    def window(self) -> tuple[int, float, list[float]]:
        """(count, sum, the reservoir's samples) under one lock hold."""
        with self._metric_lock:
            return self._count, self._sum, list(self._recent)

    @property
    def count(self) -> int:
        with self._metric_lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._metric_lock:
            return self._sum


class _Family:
    """One named metric family: kind + labels -> children."""

    __slots__ = ("name", "kind", "help", "label_names", "buckets", "_children")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] = (),
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.buckets = buckets
        self._children: dict[LabelValues, _Child] = {}

    def _make(self) -> _Child:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets)


class MetricsRegistry:
    """Thread-safe directory of metric families."""

    def __init__(self) -> None:
        self._lock = checked(threading.Lock(), "MetricsRegistry._lock")
        self._families: dict[str, _Family] = {}  # guarded-by: _lock
        #: held by a writer across the series one event moves, and by a
        #: reader that must see them together; resolve children first
        self.update_lock = checked(threading.Lock(), "MetricsRegistry.update_lock")

    # -- family constructors ----------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Iterable[str],
        buckets: tuple[float, ...] = (),
    ) -> _Family:
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, label_names, buckets)
                self._families[name] = family
            elif family.kind != kind or family.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} re-registered as {kind}{label_names} "
                    f"(was {family.kind}{family.label_names})"
                )
        return family

    def counter(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> "_Handle":
        return _Handle(self, self._family(name, "counter", help_text, labels))

    def gauge(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> "_Handle":
        return _Handle(self, self._family(name, "gauge", help_text, labels))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Iterable[str] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> "_Handle":
        return _Handle(
            self, self._family(name, "histogram", help_text, labels, buckets)
        )

    def child(self, family: _Family, values: LabelValues) -> _Child:
        if len(values) != len(family.label_names):
            raise ValueError(
                f"metric {family.name!r} wants labels "
                f"{family.label_names}, got {values}"
            )
        with self._lock:
            c = family._children.get(values)
            if c is None:
                c = family._make()
                family._children[values] = c
        return c

    def children(self, name: str) -> dict[LabelValues, _Child]:
        """The children of family *name* by label values (empty when the
        family is not registered)."""
        with self._lock:
            family = self._families.get(name)
            return {} if family is None else dict(family._children)

    # -- exposition --------------------------------------------------------

    def _families_view(self) -> list[tuple[_Family, list[tuple[LabelValues, _Child]]]]:
        with self._lock:
            return [
                (family, sorted(family._children.items()))
                for _, family in sorted(self._families.items())
            ]

    def render_prometheus(self) -> str:
        """Prometheus text exposition format, families sorted by name."""
        lines: list[str] = []
        for family, children in self._families_view():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, child in children:
                label = _label_str(family.label_names, values)
                if isinstance(child, Histogram):
                    counts, total, count, _, _ = child.state()
                    cumulative = 0
                    for bound, n in zip(
                        (*family.buckets, math.inf), counts
                    ):
                        cumulative += n
                        le = _label_str(
                            (*family.label_names, "le"),
                            (*values, _format_value(bound)),
                        )
                        lines.append(
                            f"{family.name}_bucket{le} {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{label} {_format_value(total)}"
                    )
                    lines.append(f"{family.name}_count{label} {count}")
                else:
                    value = child.value  # type: ignore[union-attr]
                    lines.append(
                        f"{family.name}{label} {_format_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, Any]:
        """JSON-able snapshot of every family and child."""
        out: dict[str, Any] = {}
        for family, children in self._families_view():
            entries = []
            for values, child in children:
                labels = dict(zip(family.label_names, values))
                if isinstance(child, Histogram):
                    counts, total, count, lo, hi = child.state()
                    entries.append(
                        {
                            "labels": labels,
                            "count": count,
                            "sum": total,
                            "min": 0.0 if count == 0 else lo,
                            "max": hi,
                            "buckets": {
                                _format_value(b): n
                                for b, n in zip(
                                    (*family.buckets, math.inf), counts
                                )
                            },
                        }
                    )
                else:
                    entries.append(
                        {"labels": labels, "value": child.value}  # type: ignore[union-attr]
                    )
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "series": entries,
            }
        return out


class _Handle:
    """A family handle: ``.labels(...)`` resolves one child; label-less
    families proxy the single child's methods directly."""

    __slots__ = ("_registry", "_family", "_default")

    def __init__(self, registry: MetricsRegistry, family: _Family) -> None:
        self._registry = registry
        self._family = family
        self._default: _Child | None = None

    def labels(self, **labels: str) -> Any:
        values = tuple(
            str(labels[n]) for n in self._family.label_names
        )
        return self._registry.child(self._family, values)

    def _child(self) -> _Child:
        if self._default is None:
            self._default = self._registry.child(self._family, ())
        return self._default

    # label-less conveniences ------------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self._child().inc(amount)  # type: ignore[attr-defined]

    def set(self, value: float) -> None:
        self._child().set(value)  # type: ignore[attr-defined]

    def observe(self, value: float) -> None:
        self._child().observe(value)  # type: ignore[attr-defined]


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RESERVOIR",
    "nearest_rank",
]
