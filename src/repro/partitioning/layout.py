"""Partition file naming — the §5.1 per-node storage layout.

Within each compute node, triples are stored in three partitions (one per
placement attribute: subject, property, object), each split by property
value into one HDFS file per property; the property partition of
``rdf:type`` is further split by object value.  File names encode all of
this so that a Map Scan can address exactly the data it needs:

    <placement>|<property>            e.g.  s|ub:worksFor
    <placement>|rdf:type|<object>     e.g.  p|rdf:type|ub:FullProfessor

Across nodes and placements, the files of one property (and of one
``rdf:type`` object) are named by a *file key*: what a write touches
and a scan reads, whatever node or replica the bytes sit in.
"""

from __future__ import annotations

from typing import Iterable

from repro.rdf.terms import RDF_TYPE, is_variable
from repro.sparql.ast import TriplePattern

#: The three placement attributes: one per dataset replica (§5.1 step 1).
PLACEMENTS = ("s", "p", "o")


def file_name(placement: str, prop: str, type_object: str | None = None) -> str:
    """The partition file holding triples of *prop* in *placement*,
    optionally narrowed to one rdf:type object value."""
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}: {placement!r}")
    if type_object is not None:
        if prop != RDF_TYPE:
            raise ValueError("object-level splitting applies to rdf:type only")
        return f"{placement}|{prop}|{type_object}"
    return f"{placement}|{prop}"


def triple_file(placement: str, prop: str, obj: str) -> str:
    """The file a (s, prop, obj) triple is stored in under *placement*."""
    if prop == RDF_TYPE:
        return file_name(placement, prop, obj)
    return file_name(placement, prop)


def parse_file_name(name: str) -> tuple[str, str, str | None]:
    """Inverse of :func:`file_name`: (placement, property, type_object)."""
    parts = name.split("|")
    if len(parts) == 2:
        return parts[0], parts[1], None
    if len(parts) == 3:
        return parts[0], parts[1], parts[2]
    raise ValueError(f"not a partition file name: {name!r}")


#: ``(property, None)`` names every file of a property; ``(rdf:type,
#: class)`` the object-split files of one class.
FileKey = tuple[str, str | None]


def write_keys(triple: tuple[str, str, str]) -> tuple[FileKey, ...]:
    """The file keys *triple* is written under: its property's, and an
    ``rdf:type`` triple's class's too."""
    _, p, o = triple
    if p == RDF_TYPE:
        return ((p, None), (p, o))
    return ((p, None),)


def read_keys(patterns: Iterable[TriplePattern]) -> tuple[FileKey, ...] | None:
    """The file keys the scans of *patterns* read, in pattern order.

    A bound ``rdf:type`` object reads its class's files, any other
    constant property all of that property's; None when a variable
    property makes a scan read every file.
    """
    keys: dict[FileKey, None] = {}
    for tp in patterns:
        if is_variable(tp.p):
            return None
        typed = tp.p == RDF_TYPE and not is_variable(tp.o)
        keys[(tp.p, tp.o if typed else None)] = None
    return tuple(keys)
