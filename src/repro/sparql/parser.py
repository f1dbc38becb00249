"""Parser for the SPARQL BGP dialect used throughout the paper.

Supported grammar (whitespace-insensitive, case-insensitive keywords)::

    query  := SELECT vars WHERE '{' triples '}'
    vars   := '*' | var+
    triples:= pattern ('.' pattern)* '.'?
    pattern:= term term term

Terms are IRIs (``<...>`` or prefixed names), literals (``"..."``),
variables (``?name``), parameter placeholders (``$name``, subject/object
positions only — prepared-query templates), or the ``a`` shorthand for
``rdf:type``.  PREFIX declarations are accepted and ignored (prefixed
names stay opaque).

Syntax errors raise :class:`SparqlSyntaxError`, which carries the
offending token, its (line, column) position in the query text, and the
``name`` the caller gave the query, so that service clients get
actionable diagnostics instead of a bare ``ValueError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.sparql.ast import BGPQuery, TriplePattern


class SparqlSyntaxError(ValueError):
    """Raised when a query string cannot be parsed.

    ``token`` is the offending token text (``None`` when the input ended
    prematurely), ``position`` its 1-based ``(line, column)`` in the
    query string, and ``name`` the caller-supplied query name (empty for
    anonymous queries) — so a failing member of a named workload can be
    identified from the exception alone.
    """

    def __init__(
        self,
        message: str,
        *,
        token: str | None = None,
        position: tuple[int, int] | None = None,
        name: str = "",
    ) -> None:
        self.token = token
        self.position = position
        self.name = name
        #: the undecorated message, kept so callers can re-raise with a name
        self.core_message = message
        if name:
            message = f"{name}: {message}"
        if position is not None:
            where = f" at line {position[0]}, column {position[1]}"
            shown = f": {token!r}" if token is not None else ""
            message = f"{message}{where}{shown}"
        super().__init__(message)


_TOKEN = re.compile(
    r"""
    (?P<iri>\<[^>]*\>)
  | (?P<literal>"(?:[^"\\]|\\.)*")
  | (?P<punct>[{}.])
  | (?P<word>[^\s{}]+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """A lexed token with its position in the source text."""

    text: str
    line: int
    column: int

    @property
    def position(self) -> tuple[int, int]:
        return (self.line, self.column)


def lex(text: str) -> list[Token]:
    """Split a query string into position-annotated tokens."""
    tokens: list[Token] = []
    line = 1
    line_start = 0
    pos = 0
    for match in _TOKEN.finditer(text):
        for nl in re.finditer(r"\n", text[pos : match.start()]):
            line += 1
            line_start = pos + nl.end()
        pos = match.start()
        tokens.append(
            Token(text=match.group(0), line=line, column=match.start() - line_start + 1)
        )
    return tokens


def _end_position(text: str) -> tuple[int, int]:
    lines = text.split("\n")
    return (len(lines), len(lines[-1]) + 1)


def _strip_prefix_decls(tokens: list[Token]) -> list[Token]:
    """Drop ``PREFIX name: <iri>`` declarations from the token stream."""
    out: list[Token] = []
    i = 0
    while i < len(tokens):
        if tokens[i].text.upper() == "PREFIX" and i + 2 < len(tokens):
            i += 3
        else:
            out.append(tokens[i])
            i += 1
    return out


#: Legal parameter placeholder spelling: ``$`` + identifier.
_PLACEHOLDER = re.compile(r"^\$[A-Za-z_][A-Za-z0-9_]*$")


def parse_query(text: str, name: str = "") -> BGPQuery:
    """Parse a SELECT BGP query into a :class:`BGPQuery`.

    ``name`` labels the query; it is attached to the returned query and
    to any :class:`SparqlSyntaxError` the parse raises.
    """
    try:
        return _parse_query(text, name)
    except SparqlSyntaxError as exc:
        if name and not exc.name:
            raise SparqlSyntaxError(
                exc.core_message,
                token=exc.token,
                position=exc.position,
                name=name,
            ) from None
        raise


def _parse_query(text: str, name: str) -> BGPQuery:
    tokens = _strip_prefix_decls(lex(text))
    end = _end_position(text)
    if not tokens:
        raise SparqlSyntaxError("empty query", position=end)
    if tokens[0].text.upper() != "SELECT":
        raise SparqlSyntaxError(
            "query must start with SELECT",
            token=tokens[0].text,
            position=tokens[0].position,
        )
    i = 1
    head: list[Token] = []
    star = False
    while i < len(tokens) and tokens[i].text.upper() != "WHERE":
        tok = tokens[i]
        if tok.text == "*":
            star = True
        elif tok.text.startswith("?"):
            if tok.text not in [t.text for t in head]:
                head.append(tok)
        else:
            raise SparqlSyntaxError(
                "unexpected token in SELECT clause",
                token=tok.text,
                position=tok.position,
            )
        i += 1
    if i >= len(tokens):
        raise SparqlSyntaxError("missing WHERE clause", position=end)
    i += 1  # skip WHERE
    if i >= len(tokens) or tokens[i].text != "{":
        bad = tokens[i] if i < len(tokens) else None
        raise SparqlSyntaxError(
            "expected '{' after WHERE",
            token=bad.text if bad else None,
            position=bad.position if bad else end,
        )
    i += 1
    body: list[Token] = []
    depth = 1
    while i < len(tokens):
        if tokens[i].text == "{":
            raise SparqlSyntaxError(
                "nested groups are not part of the BGP dialect",
                token=tokens[i].text,
                position=tokens[i].position,
            )
        if tokens[i].text == "}":
            depth -= 1
            i += 1
            break
        body.append(tokens[i])
        i += 1
    if depth != 0:
        raise SparqlSyntaxError("unbalanced braces in WHERE clause", position=end)
    if i < len(tokens):
        raise SparqlSyntaxError(
            f"trailing tokens after '}}': {[t.text for t in tokens[i:]]}",
            token=tokens[i].text,
            position=tokens[i].position,
        )

    patterns: list[TriplePattern] = []
    group: list[Token] = []
    for tok in body:
        if tok.text == ".":
            if group:
                patterns.append(_make_pattern(group))
                group = []
        else:
            group.append(tok)
            if len(group) == 3:
                # Allow '.'-less separation only at clause end; SPARQL
                # requires '.' between patterns, but we are permissive and
                # close a pattern as soon as it has three terms.
                patterns.append(_make_pattern(group))
                group = []
    if group:
        raise SparqlSyntaxError(
            f"dangling terms in WHERE clause: {[t.text for t in group]}",
            token=group[0].text,
            position=group[0].position,
        )
    if not patterns:
        raise SparqlSyntaxError("empty WHERE clause", position=end)

    query_vars: list[str] = []
    for tp in patterns:
        for v in tp.variables():
            if v not in query_vars:
                query_vars.append(v)
    if not star:
        for tok in head:
            if tok.text not in query_vars:
                raise SparqlSyntaxError(
                    "distinguished variable not in query body",
                    token=tok.text,
                    position=tok.position,
                )
    distinguished = (
        tuple(query_vars) if star else tuple(t.text for t in head)
    )
    if not distinguished:
        distinguished = tuple(query_vars)
    try:
        return BGPQuery(
            distinguished=distinguished, patterns=tuple(patterns), name=name
        )
    except ValueError as exc:
        # Any remaining AST-level validation failure still surfaces as a
        # syntax error, so clients can rely on one exception type.
        raise SparqlSyntaxError(str(exc), position=end) from exc


def _make_pattern(tokens: list[Token]) -> TriplePattern:
    if len(tokens) != 3:
        raise SparqlSyntaxError(
            f"triple pattern needs exactly 3 terms: {[t.text for t in tokens]}",
            token=tokens[0].text if tokens else None,
            position=tokens[0].position if tokens else None,
        )
    for tok in tokens:
        if tok.text.startswith("$") and not _PLACEHOLDER.match(tok.text):
            raise SparqlSyntaxError(
                "malformed parameter placeholder (expected $identifier)",
                token=tok.text,
                position=tok.position,
            )
    if tokens[1].text.startswith("$"):
        raise SparqlSyntaxError(
            "parameter placeholder cannot appear in property position "
            "(properties are structural)",
            token=tokens[1].text,
            position=tokens[1].position,
        )
    try:
        return TriplePattern(tokens[0].text, tokens[1].text, tokens[2].text)
    except ValueError as exc:
        # TriplePattern rejects e.g. literals in subject/property position;
        # surface those as syntax errors with the pattern's location.
        raise SparqlSyntaxError(
            str(exc), token=tokens[0].text, position=tokens[0].position
        ) from exc
