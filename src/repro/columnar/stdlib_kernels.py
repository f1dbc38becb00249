"""The id-space kernels on ``array('q')`` columns, for installs without numpy.

:mod:`repro.columnar.kernels` re-exports these in place of its bulk
numpy operators when ``HAVE_NUMPY`` is false — reachable only through
an explicit ``backend="columnar"``, since the service default resolves
to ``serial`` there.  Same signatures, same results (row multisets,
first-seen projection order, ``stable_hash`` partitions), evaluated row
by row: selection is a fused loop over the triple columns, the star
join groups row indices per key-id tuple and merges group by group,
projection de-duplicates id tuples through a set, and the shuffle
hashes one id row at a time from a per-id memo of ``stable_hash``'s
polynomial pieces (see :class:`repro.columnar.kernels.HashMemo` for the
algebra).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.columnar.block import ColumnBlock, make_column
from repro.rdf.dictionary import Dictionary
from repro.relational.joins import output_schema

_MASK = 0x7FFFFFFF
_MOD = 0x80000000


# -- selection ----------------------------------------------------------------


def select_bind(
    columns: Sequence,
    const_checks: Sequence[tuple[int, int | None]],
    var_positions: Sequence[tuple[int, ...]],
) -> tuple:
    """Row-at-a-time :func:`repro.columnar.kernels.select_bind`."""
    n = len(columns[0]) if columns else 0
    if any(ident is None for _, ident in const_checks):
        return tuple(make_column(()) for _ in var_positions)
    keep = []
    for r in range(n):
        ok = True
        for pos, ident in const_checks:
            if columns[pos][r] != ident:
                ok = False
                break
        if ok:
            for positions in var_positions:
                first = columns[positions[0]][r]
                for extra in positions[1:]:
                    if columns[extra][r] != first:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            keep.append(r)
    return tuple(
        make_column(columns[positions[0]][r] for r in keep)
        for positions in var_positions
    )


# -- star join ----------------------------------------------------------------


def star_join_blocks(
    inputs: Sequence[ColumnBlock], on: Sequence[str]
) -> ColumnBlock:
    """Row-at-a-time :func:`repro.columnar.kernels.star_join_blocks`:
    group each input's row indices by key-id tuple, intersect the live
    keys, natural-join within a group."""
    if not inputs:
        raise ValueError("star_join needs at least one input")
    if len(inputs) == 1:
        return inputs[0]
    key_attrs = tuple(on)
    for block in inputs:
        missing = set(key_attrs) - set(block.attrs)
        if missing:
            raise ValueError(
                f"input schema {block.attrs} lacks key attrs {missing}"
            )

    schema = output_schema(inputs)
    slot = {a: i for i, a in enumerate(schema)}
    width = len(schema)

    # Hash every input's key-id columns; group row indices by key tuple.
    grouped: list[dict[tuple, list[int]]] = []
    for block in inputs:
        key_cols = [block.column(a) for a in key_attrs]
        groups: dict[tuple, list[int]] = defaultdict(list)
        for r, key in enumerate(zip(*key_cols)):
            groups[key].append(r)
        grouped.append(groups)

    live_keys = set(grouped[0].keys())
    for groups in grouped[1:]:
        live_keys &= set(groups.keys())

    # Per input: the output slot of each of its columns.
    slot_maps = [tuple(slot[a] for a in block.attrs) for block in inputs]

    out_rows: list[list] = []
    sentinel = object()
    for key in live_keys:
        partials: list[list] = [[sentinel] * width]
        for block, groups, slots in zip(inputs, grouped, slot_maps):
            next_partials: list[list] = []
            cols = block.columns
            for partial in partials:
                for r in groups[key]:
                    merged = list(partial)
                    ok = True
                    for col, s in zip(cols, slots):
                        value = col[r]
                        have = merged[s]
                        if have is sentinel:
                            merged[s] = value
                        elif have != value:
                            ok = False
                            break
                    if ok:
                        next_partials.append(merged)
            partials = next_partials
            if not partials:
                break
        out_rows.extend(partials)

    return ColumnBlock.from_id_rows(schema, [tuple(row) for row in out_rows])


# -- projection ---------------------------------------------------------------


def project_block(block: ColumnBlock, attrs: Sequence[str]) -> ColumnBlock:
    """Row-at-a-time :func:`repro.columnar.kernels.project_block`."""
    attrs = tuple(attrs)
    if not attrs:
        raise ValueError("cannot project a block onto an empty schema")
    cols = [block.column(a) for a in attrs]
    seen: set[tuple] = set()
    out: list[tuple] = []
    for key in zip(*cols):
        if key not in seen:
            seen.add(key)
            out.append(key)
    return ColumnBlock.from_id_rows(attrs, out)


# -- shuffle hashing ----------------------------------------------------------


class HashMemo:
    """Per-id memo of ``stable_hash``'s polynomial pieces, as a dict
    (the algebra is on :class:`repro.columnar.kernels.HashMemo`)."""

    def __init__(self, dictionary: Dictionary) -> None:
        self._dictionary = dictionary
        self._memo: dict[int, tuple[int, int]] = {}

    def _pieces(self, ident: int) -> tuple[int, int]:
        pieces = self._memo.get(ident)
        if pieces is None:
            text = self._dictionary.decode(ident)
            poly = 0
            for ch in text:
                poly = (poly * 131 + ord(ch)) & _MASK
            pieces = (pow(131, len(text), _MOD), poly)
            self._memo[ident] = pieces
        return pieces

    def hash_id_row(self, ids: Sequence[int]) -> int:
        """``stable_hash`` of the decoded terms, computed in id space."""
        h = 17
        for ident in ids:
            mult, poly = self._pieces(ident)
            h = (h * mult + poly) & _MASK
            h = (h * 257 + 11) & _MASK
        return h


def shuffle_partitions(
    block: ColumnBlock,
    key_attrs: Sequence[str],
    num_reducers: int,
    memo: HashMemo,
) -> list[int]:
    """Row-at-a-time :func:`repro.columnar.kernels.shuffle_partitions`."""
    key_cols = [block.column(a) for a in key_attrs]
    hash_row = memo.hash_id_row
    return [hash_row(ids) % num_reducers for ids in zip(*key_cols)]
