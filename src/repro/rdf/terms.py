"""RDF term kinds and helpers.

Terms follow a light-weight string convention so that the whole system can
operate on plain strings (and, after dictionary encoding, on integers):

* IRIs are written ``<http://...>`` or as prefixed names ``ub:worksFor``;
  anything that is not a literal, variable or blank node is treated as an
  IRI.  The system never resolves prefixes -- a prefixed name is simply an
  opaque identifier, which is all the paper's algorithms require.
* Literals are written with surrounding double quotes: ``"C1"``.
* Variables start with ``?``: ``?x``.
* Blank nodes start with ``_:``: ``_:b0``.  The paper notes (footnote 1)
  that all results hold in the presence of blank nodes; we support them as
  constants.
* Parameter placeholders start with ``$``: ``$uni``.  They stand for a
  constant that will be supplied later (prepared-query templates,
  :mod:`repro.sparql.canonical`); structurally they behave like opaque
  constants, but they may never appear in data triples and must be bound
  before a query executes.
"""

from __future__ import annotations

from enum import Enum


class TermKind(Enum):
    """The four syntactic kinds of RDF/SPARQL terms."""

    IRI = "iri"
    LITERAL = "literal"
    VARIABLE = "variable"
    BLANK = "blank"


def is_variable(term: str) -> bool:
    """Return True iff *term* is a SPARQL variable (``?name``)."""
    return term.startswith("?")


def is_literal(term: str) -> bool:
    """Return True iff *term* is a literal (``"value"``)."""
    return term.startswith('"')


def is_blank(term: str) -> bool:
    """Return True iff *term* is a blank node (``_:id``)."""
    return term.startswith("_:")


def is_placeholder(term: str) -> bool:
    """Return True iff *term* is a parameter placeholder (``$name``)."""
    return term.startswith("$")


def is_iri(term: str) -> bool:
    """Return True iff *term* is an IRI (full or prefixed name)."""
    return bool(term) and not (
        is_variable(term)
        or is_literal(term)
        or is_blank(term)
        or is_placeholder(term)
    )


def is_constant(term: str) -> bool:
    """Return True iff *term* is a constant (anything but a variable)."""
    return not is_variable(term)


def kind_of(term: str) -> TermKind:
    """Classify *term* into one of the four :class:`TermKind` values."""
    if is_variable(term):
        return TermKind.VARIABLE
    if is_literal(term):
        return TermKind.LITERAL
    if is_blank(term):
        return TermKind.BLANK
    return TermKind.IRI


#: The IRI used for ``rdf:type`` throughout the code base.  LUBM data and
#: queries use the prefixed form; the partitioner special-cases it (§5.1).
RDF_TYPE = "rdf:type"

#: SPARQL allows ``a`` as shorthand for ``rdf:type``.
RDF_TYPE_SHORTHAND = "a"


def validate_triple(s: str, p: str, o: str) -> None:
    """Check that ``(s p o)`` is a well-formed RDF triple.

    Per the paper (§2): a well-formed triple is from U x U x (U ∪ L); we
    additionally admit blank nodes in the s and o positions (footnote 1).
    """
    if not (is_iri(s) or is_blank(s)):
        raise ValueError(f"triple subject must be an IRI or blank node: {s!r}")
    if not is_iri(p):
        raise ValueError(f"triple property must be an IRI: {p!r}")
    if is_variable(o) or is_placeholder(o) or not o:
        raise ValueError(f"triple object must be a constant: {o!r}")
