"""CSQ — the complete CliqueSquare system (§6's prototype).

Since the serving layer landed, ``CSQ`` is a thin *session* over a
:class:`repro.service.QueryService`: the service owns the §5.1
partitioner, the CliqueSquare-MSC optimizer with the §5.4 cost model,
the §5.2/§5.3 physical translation, the simulated MapReduce executor,
and the template/plan/result caches.  The session keeps the historical
one-shot API (``optimize`` / ``execute_plan`` / ``run``) used by the
paper's figure benchmarks, while ``run`` is ``submit``: one more door
onto the service's one serving pipeline — repeated, isomorphic, or
constant-varying queries skip the optimizer.  ``prepare`` exposes the
prepared-query surface directly on the session.  A session is
configured like the service it opens (``CSQ(graph, ServiceConfig(...))``):
the simulated response times the figures report do not depend on the
execution engine, so the service's one engine serves them.
"""

from __future__ import annotations

from repro.core.algorithm import OptimizerResult
from repro.core.logical import LogicalPlan
from repro.physical.executor import ExecutionResult
from repro.rdf.graph import RDFGraph
from repro.service import PreparedQuery, QueryService, ServiceConfig
from repro.sparql.ast import BGPQuery
from repro.systems.base import SystemReport


class CSQ:
    """End-to-end CliqueSquare system over a simulated cluster."""

    name = "CSQ"

    def __init__(
        self,
        graph: RDFGraph,
        config: ServiceConfig | None = None,
        service: QueryService | None = None,
    ) -> None:
        self._owns_service = service is None
        if service is None:
            service = QueryService(graph, config)
        self.service = service

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the owned service's pools (no-op on a shared service)."""
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "CSQ":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # Historical attribute surface, now owned by the service.  These are
    # properties (not bindings taken at construction) because mutation
    # via ``service.add_triples`` swaps the catalog/estimator/coster.

    @property
    def graph(self) -> RDFGraph:
        return self.service.graph

    @property
    def store(self):
        return self.service.store

    @property
    def stats(self):
        return self.service.catalog

    @property
    def estimator(self):
        return self.service.estimator

    @property
    def coster(self):
        return self.service.coster

    @property
    def executor(self):
        return self.service.executor

    # -- planning ---------------------------------------------------------

    def optimize(self, query: BGPQuery) -> tuple[LogicalPlan, OptimizerResult]:
        """CliqueSquare plans + cost-based selection of the best one."""
        return self.service.optimize(query)

    def prepare(self, query: BGPQuery | str, name: str = "") -> PreparedQuery:
        """Prepare a parameterized query once; bind/execute many times."""
        return self.service.prepare(query, name)

    # -- execution ---------------------------------------------------------

    def execute_plan(self, plan: LogicalPlan) -> ExecutionResult:
        """Run an arbitrary logical plan (used by the Fig. 20 baselines)."""
        return self.service.execute_plan(plan)

    def run(self, query: BGPQuery) -> SystemReport:
        """One-shot query — a ``submit`` down the service's pipeline."""
        return self.service.submit(query).to_report(self.name)
