"""repro.sparql subpackage: BGP AST, parser, canonical forms, evaluator."""

from repro.sparql.ast import BGPQuery, TriplePattern
from repro.sparql.canonical import (
    CanonicalizationBudgetExceeded,
    CanonicalQuery,
    canonicalize,
    structure_signature,
)
from repro.sparql.parser import SparqlSyntaxError, parse_query

__all__ = [
    "BGPQuery",
    "CanonicalQuery",
    "CanonicalizationBudgetExceeded",
    "SparqlSyntaxError",
    "TriplePattern",
    "canonicalize",
    "parse_query",
    "structure_signature",
]
