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
prepared-query surface directly on the session.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.algorithm import OptimizerResult
from repro.core.decomposition import MSC, DecompositionOption
from repro.core.logical import LogicalPlan
from repro.cost.params import DEFAULT_PARAMS, CostParams
from repro.physical.executor import ExecutionResult
from repro.rdf.graph import RDFGraph
from repro.service.service import PreparedQuery, QueryService, ServiceConfig
from repro.sparql.ast import BGPQuery
from repro.systems.base import SystemReport


@dataclass
class CSQConfig:
    """Deployment knobs for the CSQ system."""

    num_nodes: int = 7
    option: DecompositionOption = MSC
    max_plans: int | None = 20_000
    timeout_s: float | None = 100.0
    params: CostParams = DEFAULT_PARAMS
    #: task execution backend ("serial" | "thread" | "process")
    backend: str = "serial"
    backend_workers: int | None = None
    #: store shards (0 = single store; N >= 1 runs behind repro.cluster)
    shards: int = 0
    #: shard boundary: "inproc" backends or "rpc" shard server processes
    shard_transport: str = "inproc"

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(
            num_nodes=self.num_nodes,
            option=self.option,
            max_plans=self.max_plans,
            timeout_s=self.timeout_s,
            params=self.params,
            backend=self.backend,
            backend_workers=self.backend_workers,
            shards=self.shards,
            shard_transport=self.shard_transport,
        )


class CSQ:
    """End-to-end CliqueSquare system over a simulated cluster."""

    name = "CSQ"

    def __init__(
        self,
        graph: RDFGraph,
        config: CSQConfig | None = None,
        service: QueryService | None = None,
    ) -> None:
        self.config = config or CSQConfig()
        self._owns_service = service is None
        if service is None:
            service = QueryService(graph, self.config.service_config())
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
