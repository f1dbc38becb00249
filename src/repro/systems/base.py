"""Common system interface for the Fig. 21 comparison."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Protocol

from repro.sparql.ast import BGPQuery


@dataclass
class SystemReport:
    """One system's run of one query."""

    system: str
    query_name: str
    answers: AbstractSet[tuple]
    response_time: float
    num_jobs: int
    job_signature: str
    pwoc: bool = False
    details: dict[str, object] = field(default_factory=dict)

    @property
    def cardinality(self) -> int:
        return len(self.answers)


class QuerySystem(Protocol):
    """A distributed RDF query engine under comparison."""

    name: str

    def run(self, query: BGPQuery) -> SystemReport:  # pragma: no cover
        ...
