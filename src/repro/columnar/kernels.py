"""Bulk id-space kernels over :class:`ColumnBlock` columns.

Four operators, mirroring the tuple kernels they replace; each is a
fixed handful of numpy calls over whole int64 id columns, never a
python loop over rows or keys:

* **selection** — a scan's constant and repeated-variable constraints
  become one boolean mask over the triple columns;
* **star join** — the n-ary natural join of
  :func:`repro.relational.joins.star_join`, folded left to right as
  binary sort joins: the attributes the two sides share (the star's key
  and any further shared attribute, so equality holds on *all* of them)
  pack into one int64 code per row, one side is sorted, the other
  probes it with ``searchsorted``, and the matching runs expand by
  run length.  Output row *multisets* are identical to the tuple
  kernel; rows follow the first input's order, not the tuple kernel's
  (the columnar engine's task groups rely on the former, nothing relies
  on the latter — answers are sets, counters multiset cardinalities);
* **projection** — column slicing plus first-seen de-duplication on the
  packed codes (``np.unique``), matching ``Relation.project``;
* **shuffle** — the composable form of ``stable_hash``: per term id the
  pair ``(131^len(term) mod 2^31, poly(term))`` is memoized in two id-
  indexed arrays, so a block's partitions are two gathers and four
  arithmetic ops per key column, yet every row lands on exactly the
  reducer the tuple engine picks; :func:`split_partitions` then cuts
  the block into one sub-block per reducer with a stable ``argsort``
  of the partition vector and ``bincount`` slice bounds (views of one
  permuted array per column, no per-row work).  Stable: a task group's
  block is sorted by task, so a partition's rows stay in task order.

Output blocks carry their inputs' dictionary along.

These kernels are the only implementation of the id-space operators.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.analysis.locks import checked
from repro.columnar.block import ColumnBlock, empty_column, pack_codes
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
    """Bind a triple pattern against columnar triple data.

    *columns* are the (s, p, o) id columns of the scanned triples.
    *const_checks* lists ``(position, id)`` constraints — the column at
    *position* must equal *id* (``None`` means the constant was never
    seen by the dictionary, so nothing can match).  *var_positions*
    lists, per output variable in schema order, the positions holding
    it; a variable at several positions additionally requires those
    columns to agree (repeated-variable semantics of ``bind_triple``).

    Returns the selected output columns (order-preserving).
    """
    if any(ident is None for _, ident in const_checks):
        return tuple(empty_column() for _ in var_positions)
    mask = None
    for pos, ident in const_checks:
        cond = columns[pos] == ident
        mask = cond if mask is None else (mask & cond)
    for positions in var_positions:
        for extra in positions[1:]:
            cond = columns[positions[0]] == columns[extra]
            mask = cond if mask is None else (mask & cond)
    if mask is None:
        return tuple(columns[positions[0]] for positions in var_positions)
    return tuple(columns[positions[0]][mask] for positions in var_positions)


# -- star join ----------------------------------------------------------------


def _natural_join(left: ColumnBlock, right: ColumnBlock) -> ColumnBlock:
    """Binary natural join of two non-empty blocks sharing >= 1 attribute."""
    # Both sides' key tuples are coded together, so equal tuples get
    # equal codes across the two blocks.
    keys = pack_codes(
        [
            np.concatenate((left.column(a), right.column(a)))
            for a in left.attrs
            if a in right.attrs
        ]
    )
    left_keys, right_keys = keys[: len(left)], keys[len(left) :]
    order = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    lo = np.searchsorted(sorted_keys, left_keys, side="left")
    counts = np.searchsorted(sorted_keys, left_keys, side="right") - lo
    # Run-length expansion: left row i pairs with sorted right slots
    # lo[i] .. lo[i]+counts[i]-1; output position p of its run starts at
    # ends[i]-counts[i], so slot = p + (lo[i] - run start).
    ends = np.cumsum(counts)
    left_rows = np.repeat(np.arange(len(counts)), counts)
    slots = np.arange(ends[-1]) + np.repeat(lo - (ends - counts), counts)
    right_rows = order[slots]
    fresh = [i for i, a in enumerate(right.attrs) if a not in left.attrs]
    return ColumnBlock(
        left.attrs + tuple(right.attrs[i] for i in fresh),
        tuple(col[left_rows] for col in left.columns)
        + tuple(right.columns[i][right_rows] for i in fresh),
        left.dictionary,
    )


def star_join_blocks(
    inputs: Sequence[ColumnBlock], on: Sequence[str]
) -> ColumnBlock:
    """Id-space n-ary star natural join (see module docstring).

    Semantically identical to ``relational.joins.star_join`` modulo row
    order: same output schema, same row multiset.  Every input carries
    the key attributes *on*, so each fold step's shared attributes
    include them.
    """
    if not inputs:
        raise ValueError("star_join needs at least one input")
    if len(inputs) == 1:
        return inputs[0]
    key_attrs = tuple(on)
    if not key_attrs:
        raise ValueError("star_join needs at least one key attribute")
    for block in inputs:
        missing = set(key_attrs) - set(block.attrs)
        if missing:
            raise ValueError(
                f"input schema {block.attrs} lacks key attrs {missing}"
            )
    joined = inputs[0]
    for block in inputs[1:]:
        if not (len(joined) and len(block)):
            return ColumnBlock.empty(output_schema(inputs), joined.dictionary)
        joined = _natural_join(joined, block)
    return joined


# -- projection ---------------------------------------------------------------


def project_block(block: ColumnBlock, attrs: Sequence[str]) -> ColumnBlock:
    """Project onto *attrs* with first-seen de-duplication on id tuples
    (mirrors ``Relation.project``, row order included)."""
    attrs = tuple(attrs)
    if not attrs:
        # Every row projects to the one empty tuple.
        return ColumnBlock(attrs, (), block.dictionary, min(len(block), 1))
    cols = tuple(block.column(a) for a in attrs)
    if len(block) > 1:
        codes = pack_codes(cols)
        first = np.unique(codes, return_index=True)[1]
        if len(first) < len(codes):
            first.sort()
            cols = tuple(col[first] for col in cols)
    return ColumnBlock(attrs, cols, block.dictionary)


# -- shuffle hashing ----------------------------------------------------------


class HashMemo:
    """Per-id memo of ``stable_hash``'s polynomial pieces.

    ``stable_hash`` folds each value's characters into a running state
    ``h`` via ``h = (h*131 + ord(ch)) & 0x7FFFFFFF`` and seals each
    value with ``h = (h*257 + 11) & 0x7FFFFFFF``.  Because masking to 31
    bits is reduction mod 2^31 (a ring homomorphism), folding a whole
    term *t* from state ``h`` equals ``(h * 131^len(t) + poly(t)) mod
    2^31`` — so per id we memoize ``(131^len(t) mod 2^31, poly(t))``
    and hash columns of ids without ever decoding them.  All operands
    stay below 2^31, so the products fit int64 exactly.

    The memo is a ``(2, ids)`` int64 table — row 0 the multipliers, row
    1 the polynomials, ``-1`` where an id has not been hashed yet —
    filled lazily for the ids that actually occur as shuffle keys.
    Lookups are lock-free; a fill builds the extended table aside under
    the lock and publishes it with one assignment, so a concurrent
    reader only ever sees a complete table.
    """

    def __init__(self, dictionary: Dictionary) -> None:
        self.dictionary = dictionary
        self._lock = checked(threading.Lock(), "HashMemo._lock")
        self._table = np.full((2, 0), -1, dtype=np.int64)

    def _pieces(self, ids):
        """The ``(mult, poly)`` arrays of an id column (non-empty)."""
        table = self._table
        if int(ids.max()) < table.shape[1]:
            pieces = table[:, ids]
            if pieces[1].min() >= 0:
                return pieces
        with self._lock:
            table = self._fill(ids)
        return table[:, ids]

    def _fill(self, ids):
        """Publish a table extended by the unseen ids (caller holds the lock)."""
        old = self._table
        table = np.full(
            (2, max(old.shape[1], len(self.dictionary))), -1, dtype=np.int64
        )
        table[:, : old.shape[1]] = old
        decode = self.dictionary.decode
        for ident in np.unique(ids[table[1, ids] < 0]).tolist():
            text = decode(ident)
            poly = 0
            for ch in text:
                poly = (poly * 131 + ord(ch)) & _MASK
            table[:, ident] = pow(131, len(text), _MOD), poly
        self._table = table
        return table

    def hash_columns(self, key_cols: Sequence):
        """``stable_hash`` of every row's decoded key terms, computed in
        id space over whole (non-empty) key columns."""
        h = 17
        for ids in key_cols:
            mult, poly = self._pieces(ids)
            h = (h * mult + poly) & _MASK
            h = (h * 257 + 11) & _MASK
        return h


def shuffle_partitions(
    block: ColumnBlock,
    key_attrs: Sequence[str],
    num_reducers: int,
    memo: HashMemo,
) -> list[int]:
    """The reducer partition of every row, in row order — identical to
    ``stable_hash(key(row)) % num_reducers`` over the decoded rows."""
    if not len(block):
        return []
    hashes = memo.hash_columns([block.column(a) for a in key_attrs])
    return (hashes % num_reducers).tolist()


def split_partitions(
    block: ColumnBlock,
    key_attrs: Sequence[str],
    num_reducers: int,
    memo: HashMemo,
) -> list[tuple[int, ColumnBlock]]:
    """The ``(partition, sub-block)`` pairs of the reducers that get
    *block*'s rows: a row goes where :func:`shuffle_partitions` sends
    it, and rows of one partition keep their order."""
    if not len(block):
        return []
    hashes = memo.hash_columns([block.column(a) for a in key_attrs])
    cells = hashes % num_reducers
    counts = np.bincount(cells, minlength=num_reducers)
    filled = np.flatnonzero(counts)
    if len(filled) == 1:
        return [(int(filled[0]), block)]
    order = cells.argsort(kind="stable")
    columns = [col[order] for col in block.columns]
    attrs, dictionary = block.attrs, block.dictionary
    out = []
    start = 0
    for partition, end in zip(filled.tolist(), np.cumsum(counts[filled]).tolist()):
        sub = ColumnBlock(attrs, tuple([col[start:end] for col in columns]), dictionary)
        out.append((partition, sub))
        start = end
    return out
