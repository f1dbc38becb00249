"""repro.service — the concurrent query service with template, plan &
result caching.

Layered over one §5.1 partitioned store, the service exposes one
prepare → bind → execute surface: constant-independent template
signatures key a template cache (the optimizer runs once per query
*structure*; constants late-bind into the compiled plan), instance keys
(template + constants) key a bound-plan cache and an LRU result cache
that short-circuits repeated fully-bound queries until a write touches
a file their scans read, and batches of independent queries run
concurrently with duplicate submissions coalesced.  See
:mod:`repro.service.service` for how the service splits into a front
door, a serving pipeline and administration.
"""

from repro.cluster.frames import ShardUnavailable
from repro.service.cache import (
    LRUCache,
    PlanCache,
    PlanEntry,
    ResultCache,
    ResultEntry,
    TemplateCache,
    TemplateEntry,
)
from repro.service.front import BoundQuery, PreparedQuery
from repro.service.pipeline import QueryOutcome, ServiceOverloaded
from repro.service.service import QueryService, ServiceConfig
from repro.service.stats import LatencySummary, QueryTimings, StatsSnapshot

__all__ = [
    "BoundQuery",
    "LRUCache",
    "LatencySummary",
    "PlanCache",
    "PlanEntry",
    "PreparedQuery",
    "QueryOutcome",
    "QueryService",
    "QueryTimings",
    "ResultCache",
    "ResultEntry",
    "ServiceConfig",
    "ServiceOverloaded",
    "ShardUnavailable",
    "StatsSnapshot",
    "TemplateCache",
    "TemplateEntry",
]
