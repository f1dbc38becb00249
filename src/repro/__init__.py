"""CliqueSquare reproduction: flat plans for massively parallel RDF queries.

Reproduces Goasdoué, Kaoudi, Manolescu, Quiané-Ruiz, Zampetakis:
*CliqueSquare: Flat Plans for Massively Parallel RDF Queries* (ICDE 2015;
INRIA RR-8612).

Quickstart::

    from repro import parse_query, cliquesquare, MSC, height

    q = parse_query("SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }")
    result = cliquesquare(q, MSC)
    flattest = min(result.plans, key=height)

End-to-end (partition + optimize + execute on a simulated cluster)::

    from repro import CSQ
    from repro.workloads import lubm, lubm_queries

    system = CSQ(lubm.generate())
    report = system.run(lubm_queries.query("Q9"))

Serving a workload (``repro.service`` — concurrent query service with
plan & result caching; repeated query shapes skip the optimizer)::

    from repro import QueryService
    from repro.workloads import lubm, lubm_queries

    with QueryService(lubm.generate()) as service:
        outcomes = service.submit_batch(
            [lubm_queries.query(f"Q{i}") for i in (1, 2, 1, 2)]
        )
        print(service.snapshot_stats().format())

Sharded deployment (``repro.cluster`` — the store's nodes served by
shard workers behind a router, each running the id-space engine;
identical answers)::

    from repro import QueryService, ServiceConfig

    service = QueryService(graph, ServiceConfig(shards=4))
"""

from repro.cluster import (
    RpcShardRouter,
    ShardedPlanExecutor,
    ShardedSnapshot,
    ShardedStore,
    ShardRouter,
    ShardUnavailable,
    shard_graph,
)
from repro.core.algorithm import (
    OptimizerResult,
    best_effort_plan,
    cliquesquare,
    cost_bounded_search,
)
from repro.core.binary import best_bushy_plan, best_linear_plan
from repro.core.decomposition import (
    ALL_OPTIONS,
    MSC,
    MSC_PLUS,
    MXC,
    MXC_PLUS,
    OPTIONS_BY_NAME,
    SC,
    SC_PLUS,
    XC,
    XC_PLUS,
    DecompositionOption,
)
from repro.core.logical import Join, LogicalPlan, Match, Project, Select
from repro.core.properties import analyze_plan_space, height, optimal_height
from repro.core.variable_graph import VariableGraph
from repro.cost.cardinality import CardinalityEstimator, CatalogStatistics
from repro.cost.model import PlanCoster, select_best_plan
from repro.cost.params import DEFAULT_PARAMS, CostParams
from repro.mapreduce.backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.mapreduce.engine import ClusterConfig, MapReduceEngine
from repro.partitioning.triple_partitioner import (
    PartitionedStore,
    StoreSnapshot,
    partition_graph,
)
from repro.physical.executor import PlanExecutor
from repro.rdf.graph import RDFGraph
from repro.service import (
    BoundQuery,
    PreparedQuery,
    QueryOutcome,
    QueryService,
    ServiceConfig,
    ServiceOverloaded,
    StatsSnapshot,
)
from repro.sparql.ast import BGPQuery, TriplePattern
from repro.sparql.canonical import (
    CanonicalQuery,
    QueryTemplate,
    TemplateParam,
    canonicalize,
    extract_template,
    structure_signature,
)
from repro.sparql.evaluator import evaluate
from repro.sparql.parser import SparqlSyntaxError, parse_query
from repro.systems.csq import CSQ
from repro.systems.h2rdf import H2RDFPlus
from repro.systems.shape import ShapeSystem

__version__ = "1.0.0"

__all__ = [
    "ALL_OPTIONS",
    "BGPQuery",
    "BoundQuery",
    "CSQ",
    "CanonicalQuery",
    "CardinalityEstimator",
    "CatalogStatistics",
    "ClusterConfig",
    "CostParams",
    "DEFAULT_PARAMS",
    "DecompositionOption",
    "ExecutionBackend",
    "H2RDFPlus",
    "Join",
    "LogicalPlan",
    "MSC",
    "MSC_PLUS",
    "MXC",
    "MXC_PLUS",
    "MapReduceEngine",
    "Match",
    "OPTIONS_BY_NAME",
    "OptimizerResult",
    "PartitionedStore",
    "PlanCoster",
    "PlanExecutor",
    "PreparedQuery",
    "ProcessBackend",
    "Project",
    "QueryOutcome",
    "QueryService",
    "QueryTemplate",
    "RDFGraph",
    "SC",
    "SC_PLUS",
    "Select",
    "SerialBackend",
    "ServiceConfig",
    "ServiceOverloaded",
    "ShapeSystem",
    "RpcShardRouter",
    "ShardRouter",
    "ShardUnavailable",
    "ShardedPlanExecutor",
    "ShardedSnapshot",
    "ShardedStore",
    "SparqlSyntaxError",
    "StatsSnapshot",
    "StoreSnapshot",
    "TemplateParam",
    "ThreadBackend",
    "TriplePattern",
    "VariableGraph",
    "XC",
    "XC_PLUS",
    "analyze_plan_space",
    "best_bushy_plan",
    "best_effort_plan",
    "best_linear_plan",
    "canonicalize",
    "cliquesquare",
    "cost_bounded_search",
    "evaluate",
    "extract_template",
    "height",
    "make_backend",
    "optimal_height",
    "parse_query",
    "partition_graph",
    "select_best_plan",
    "shard_graph",
    "structure_signature",
]
