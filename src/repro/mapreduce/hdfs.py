"""A minimal simulated HDFS namespace for intermediate results.

Job outputs are distributed relations: an attribute schema plus one row
partition per cluster node (reduce task outputs stay on the reducer's
node, as in Hadoop).  Later jobs' map shufflers read these partitions
node-locally.

A partition is a *chunk* in the sense of :mod:`repro.mapreduce.jobs`: a
sized iterable of term-tuple rows.  The engine publishes each node's
output as a :class:`Chunks` — the chunks the node's tasks returned, kept
as they came (row lists from the tuple specs, id-column blocks from the
columnar ones) — so a reader that understands a chunk's native form
takes it from ``partition.chunks`` and every other reader just iterates
rows.  A plain row list is a partition too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

Row = tuple


class Chunks:
    """A sequence of chunks that is itself a chunk: ``len`` is the total
    row count, iteration yields every chunk's rows in order."""

    __slots__ = ("chunks",)

    def __init__(self, chunks: Iterable = ()) -> None:
        self.chunks: list = list(chunks)

    def append(self, chunk) -> None:
        if len(chunk):
            self.chunks.append(chunk)

    def __len__(self) -> int:
        return sum(map(len, self.chunks))

    def __iter__(self) -> Iterator[Row]:
        return chain.from_iterable(self.chunks)

    def __repr__(self) -> str:
        return f"Chunks({self.chunks!r})"


def chunks_of(partition) -> Sequence:
    """The chunks a partition is made of (a plain row list is one)."""
    return getattr(partition, "chunks", (partition,))


@dataclass
class DistributedRelation:
    """A relation stored partitioned across cluster nodes."""

    attrs: tuple[str, ...]
    #: one chunk per node (see the module docstring)
    partitions: list

    @classmethod
    def empty(cls, attrs: tuple[str, ...], num_nodes: int) -> "DistributedRelation":
        return cls(attrs=attrs, partitions=[[] for _ in range(num_nodes)])

    def __len__(self) -> int:
        return sum(len(p) for p in self.partitions)

    def chunks(self) -> list:
        """Every chunk of every partition, in node order."""
        return [c for part in self.partitions for c in chunks_of(part)]


@dataclass
class HDFS:
    """A flat name -> distributed relation namespace."""

    num_nodes: int
    files: dict[str, DistributedRelation] = field(default_factory=dict)

    def write(self, name: str, relation: DistributedRelation) -> None:
        if name in self.files:
            raise FileExistsError(f"HDFS file already exists: {name}")
        self.files[name] = relation

    def read(self, name: str) -> DistributedRelation:
        try:
            return self.files[name]
        except KeyError:
            raise FileNotFoundError(f"no such HDFS file: {name}") from None

    def exists(self, name: str) -> bool:
        return name in self.files
