"""The service's front door: what parsing and canonicalization make of
a submission, cached per distinct submission by
:meth:`FrontDoor._statement`, and the prepared-query handles built on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, NamedTuple

from repro.core.logical import LogicalPlan
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import LRUCache, TemplateEntry
from repro.service.stats import event_counters
from repro.sparql.ast import BGPQuery
from repro.sparql.canonical import (
    CanonicalizationBudgetExceeded,
    QueryTemplate,
    extract_template,
)
from repro.sparql.parser import SparqlSyntaxError, parse_query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.pipeline import QueryOutcome
    from repro.service.service import QueryService, ServiceConfig


@dataclass(frozen=True)
class _Instance:
    """One fully-bound instance of a template, ready to resolve.

    ``key`` is None for a query the canonicalizer gave up on: it is its
    own parameterless template, served with every cache and flight
    skipped.  ``entry`` is set when the instance comes from a live
    :class:`PreparedQuery` handle: even if the template cache has since
    evicted the shared entry, the handle's own optimized template is
    used — a held prepared query never re-optimizes.
    """

    template: QueryTemplate
    values: tuple[str, ...]
    key: tuple | None
    entry: "TemplateEntry | None" = None


class _Clocks(NamedTuple):
    """One submission's clock reads around parsing (None: nothing was
    parsed) and canonicalization.  They run before the submission's
    trace is open; the pipeline records the spans from them."""

    parsed: tuple[float, float] | None
    canonicalized: tuple[float, float]
    #: both came out of the statement cache (the spans are zero-width)
    cached: bool


@dataclass(frozen=True)
class _Statement:
    """What parsing and canonicalization make of one submission.

    A pure function of what was submitted and the service's fixed
    config (``canonical_budget``, ``enable_templates``): the front door
    caches it per distinct submission, and no write invalidates it.
    """

    #: the parsed query (for a submitted object, the first equal one)
    query: BGPQuery
    #: the extracted template; None past the canonicalization budget
    template: QueryTemplate | None
    #: the fully-bound instance (past the budget, the query's own
    #: keyless template); None while ``$params`` are unbound
    inst: _Instance | None


class PreparedQuery:
    """A canonicalized-once, optimized-once handle on a query shape.

    Obtained from :meth:`QueryService.prepare`.  The query's liftable
    constants (and explicit ``$name`` placeholders) are parameters;
    :meth:`bind` supplies constants — positionally in query-text order,
    or by name — and :meth:`execute` runs a binding without ever
    re-entering the optimizer.  Lifted constants keep their original
    values as defaults, so ``prepare(q).execute()`` answers exactly like
    ``submit(q)``.
    """

    def __init__(
        self,
        service: "QueryService",
        template: QueryTemplate,
        entry: TemplateEntry,
        template_cache_hit: bool,
    ) -> None:
        self._service = service
        self.template = template
        self._entry = entry
        #: the template was already cached when this handle was prepared
        self.template_cache_hit = template_cache_hit

    # -- introspection -----------------------------------------------------

    @property
    def query(self) -> BGPQuery:
        """The source query this handle was prepared from."""
        return self.template.source

    @property
    def name(self) -> str:
        return self.template.source.name

    @property
    def params(self):
        """The template's parameter slots (canonical order)."""
        return self.template.params

    @property
    def param_names(self) -> tuple[str, ...]:
        """User-facing parameter names, in query-text occurrence order."""
        return self.template.param_names

    @property
    def signature(self) -> tuple:
        """The constant-independent template structure signature."""
        return self.template.signature

    def digest(self) -> str:
        return self.template.digest()

    @property
    def plan(self) -> LogicalPlan:
        """The template's cost-selected logical plan (placeholders)."""
        return self._entry.plan

    def __repr__(self) -> str:
        params = ", ".join(f"${n}" for n in self.param_names) or "no params"
        return (
            f"PreparedQuery({self.name or self.template.digest()}, {params})"
        )

    # -- the prepared surface ----------------------------------------------

    def bind(self, *args: str, **kwargs: str) -> "BoundQuery":
        """Bind constants to parameters; unbound lifted constants keep
        their original values.  Positional arguments follow query-text
        occurrence order; keywords use the parameter names (``$uni`` →
        ``uni=...``)."""
        names = self.param_names
        if len(args) > len(names):
            raise ValueError(
                f"{self!r} takes at most {len(names)} positional values, "
                f"got {len(args)}"
            )
        assigned: dict[str, str] = {}
        for name, value in zip(names, args):
            assigned[name] = value
        for name, value in kwargs.items():
            if name not in names:
                raise ValueError(
                    f"unknown parameter {name!r}; {self!r} has "
                    f"{', '.join(names) or 'none'}"
                )
            if name in assigned:
                raise ValueError(f"parameter {name!r} bound twice")
            assigned[name] = value
        values = list(self.template.default_values())
        for i, param in enumerate(self.template.params):
            if param.name in assigned:
                values[i] = assigned[param.name]
        checked = self.template.check_values(tuple(values))
        return BoundQuery(prepared=self, values=checked)

    def execute(self, *args: str, **kwargs: str) -> "QueryOutcome":
        """``bind(...).execute()`` in one call."""
        return self.bind(*args, **kwargs).execute()

    def explain(self) -> str:
        """Template provenance plus the three-layer plan explanation."""
        t = self.template
        lines = [
            f"== template {t.digest()} "
            f"({len(t.params)} params; cached={self.template_cache_hit}) ==",
            str(t.query),
        ]
        for p in t.params:
            default = f" = {p.default}" if p.default is not None else ""
            lines.append(f"  {p.placeholder} <- ${p.name} [{p.kind}]{default}")
        e = self._entry
        lines.append(
            f"optimize_s {e.optimize_s:.6f}  plans {e.plan_count}  "
            f"pruned {e.pruned}" + ("  (truncated)" if e.truncated else "")
        )
        lines.append(self._service._explain_plan(e.plan, t.digest()))
        return "\n".join(lines)


@dataclass(frozen=True)
class BoundQuery:
    """A prepared query with every parameter bound: ready to execute."""

    prepared: PreparedQuery
    #: constants in canonical slot order
    values: tuple[str, ...]

    @property
    def query(self) -> BGPQuery:
        """The fully-bound query, in the source query's variable space."""
        return self.prepared.template.bind_source(self.values)

    @property
    def parameters(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (p.name, v)
            for p, v in zip(self.prepared.template.params, self.values)
        )

    def execute(self) -> "QueryOutcome":
        """Run through the service's caches; never re-optimizes."""
        started = time.perf_counter()
        prepared = self.prepared
        inst = _Instance(
            template=prepared.template,
            values=self.values,
            key=prepared.template.instance_key(self.values),
            entry=prepared._entry,
        )
        return prepared._service._serve(
            self.query, inst=inst, started=started
        )[0]


class FrontDoor:
    """The front door of a :class:`~repro.service.service.QueryService`:
    the statement cache, parse, canonicalize, and :meth:`prepare`.

    It owns the statement cache and counts its lookups and the errors
    it raises; :meth:`prepare` takes the template from the serving
    pipeline's single-flight (``_template_entry``).
    """

    def __init__(self, config: "ServiceConfig", registry: MetricsRegistry) -> None:
        #: (text, name) or query object -> _Statement
        self.statement_cache: LRUCache[Hashable, _Statement] = LRUCache(
            config.plan_cache_size
        )
        self._front_counts = event_counters(
            registry, "statement_hits", "statement_misses", "errors"
        )

    def prepare(self, query: BGPQuery | str, name: str = "") -> PreparedQuery:
        """Prepare a query once: canonicalize, extract its parameter
        template, optimize (or fetch the cached template), and return a
        :class:`PreparedQuery` to bind and execute many times.

        Constants already in the query become parameters with those
        constants as defaults; explicit ``$name`` placeholders become
        required parameters.  Raises
        :class:`~repro.sparql.canonical.CanonicalizationBudgetExceeded`
        for pathologically symmetric queries (serve those via
        :meth:`submit`, which takes them down the pipeline uncached).
        """
        self._check_open()
        statement, _ = self._statement(query, name)
        template = statement.template
        if template is None:
            raise CanonicalizationBudgetExceeded(
                f"canonicalization budget exhausted for {statement.query}"
            )
        entry, hit = self._template_entry(template)
        return PreparedQuery(
            service=self,
            template=template,
            entry=entry,
            template_cache_hit=hit,
        )

    def _statement(
        self, query: BGPQuery | str, name: str = ""
    ) -> tuple[_Statement, _Clocks]:
        """Parse plus canonicalization, once per distinct submission.

        Keyed on ``(text, name)`` for a string and on the (frozen,
        hashable) query object with its name otherwise, in the
        statement cache — an LRU of ``plan_cache_size`` entries.  The
        entry is a pure function of the key and the service's fixed
        config, so writes never touch it; the plan, template and result
        caches keep their own keys and invalidation.  Failures are never
        cached: a syntax error raises, and is counted, every time.  A
        query past the canonicalization budget caches its keyless
        instance, so a repeat skips the budget-length labelling too.

        Returns the statement and this submission's clock reads.
        """
        text = isinstance(query, str)
        key = (query, name if text else query.name)
        started = time.perf_counter()
        statement = self.statement_cache.get(key)
        if statement is not None:
            self._front_counts["statement_hits"].inc()
            at = (started, started)
            return statement, _Clocks(at if text else None, at, True)
        self._front_counts["statement_misses"].inc()
        parsed = self._parse(query, name)
        parsed_at = time.perf_counter()
        try:
            template = extract_template(
                parsed,
                self.config.canonical_budget,
                lift_constants=self.config.enable_templates,
            )
        except CanonicalizationBudgetExceeded:
            template = None
        if parsed.placeholders():
            inst = None
        elif template is None:
            # No signature to share a cache entry under: the query is
            # its own parameterless template, in its own variable space.
            inst = _Instance(
                QueryTemplate(
                    query=parsed,
                    signature=(),
                    params=(),
                    mapping={v: v for v in parsed.variables()},
                    source=parsed,
                ),
                (),
                None,
            )
        else:
            values = template.check_values(template.default_values())
            inst = _Instance(template, values, template.instance_key(values))
        statement = _Statement(parsed, template, inst)
        self.statement_cache.put(key, statement)
        return statement, _Clocks(
            (started, parsed_at) if text else None,
            (parsed_at, time.perf_counter()),
            False,
        )

    def _instance(
        self, query: BGPQuery | str, name: str = ""
    ) -> tuple[BGPQuery, _Instance, _Clocks]:
        """The query an outcome reports (the caller's object, or the
        parsed text), the instance to serve and the clock reads, for a
        submission that must be fully bound: an unbound ``$param``
        raises, and is counted, every time."""
        statement, clocks = self._statement(query, name)
        inst = statement.inst
        if inst is None:
            self._front_counts["errors"].inc()
            parsed = statement.query
            raise ValueError(
                f"query {parsed.name or parsed} has unbound parameters "
                f"{', '.join(parsed.placeholders())}; prepare() it and "
                "bind them"
            )
        return (statement.query if isinstance(query, str) else query), inst, clocks

    def _parse(self, query: BGPQuery | str, name: str = "") -> BGPQuery:
        """Parse a query string; every failure surfaces as a
        :class:`~repro.sparql.parser.SparqlSyntaxError` carrying the
        query *name*, and is counted as a service error."""
        if isinstance(query, BGPQuery):
            return query
        try:
            return parse_query(query, name)
        except SparqlSyntaxError:
            self._front_counts["errors"].inc()
            raise
        except ValueError as exc:
            self._front_counts["errors"].inc()
            raise SparqlSyntaxError(str(exc), name=name) from exc
