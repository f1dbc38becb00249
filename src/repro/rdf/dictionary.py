"""Dictionary encoding of RDF terms.

Distributed RDF stores (including the systems the paper compares against,
e.g. RDF-3X and H2RDF+) dictionary-encode terms into dense integer ids so
that joins compare machine words instead of strings, and they assign
those ids once, at load.  We follow the same idiom: the §5.1 store owns
one :class:`Dictionary` and numbers a triple's terms as it places the
triple (``PartitionedStore.add``); every engine computes in that
numbering — the columnar backend in-process and, through a pickled
replica kept in step by :meth:`Dictionary.merge_entries`, every shard
worker.  Ids are assigned in first-seen order and support
bidirectional lookup; a column of ids decodes in one gather from an
id-indexed term array (:meth:`Dictionary.decode_column`).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np


class Dictionary:
    """A bijective mapping between RDF terms (strings) and integer ids."""

    def __init__(self, terms: Iterable[str] = ()) -> None:
        """A dictionary numbering *terms* (distinct) ``0, 1, …`` in order."""
        self._id_to_term: list[str] = list(terms)
        self._term_to_id: dict[str, int] = dict(
            zip(self._id_to_term, itertools.count())
        )
        if len(self._term_to_id) != len(self._id_to_term):
            raise ValueError("dictionary terms must be distinct")
        #: ``(array, count)``: an object array whose first *count* slots
        #: hold the terms of ids ``0 .. count-1`` (spare capacity after
        #: them), grown by :meth:`_grow_terms` and replaced by one
        #: assignment, so a reader always sees a consistent pair
        self._terms: tuple = (np.empty(0, dtype=object), 0)

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: str) -> bool:
        return term in self._term_to_id

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_term)

    def __reduce__(self):
        # The terms alone, in id order (the index rebuilds from them): a
        # replica ships as compactly as the term list, and shares the
        # term strings of anything pickled beside it.  ``tuple`` copies
        # the list in one step, so a concurrent append cannot tear it.
        # The term array stays behind: a replica builds its own on its
        # first column decode.
        return (Dictionary, (tuple(self._id_to_term),))

    def encode(self, term: str) -> int:
        """Return the id for *term*, assigning a fresh one if unseen."""
        ident = self._term_to_id.get(term)
        if ident is None:
            ident = len(self._id_to_term)
            self._term_to_id[term] = ident
            self._id_to_term.append(term)
        return ident

    def encode_many(self, terms: Sequence[str]) -> list[int]:
        """Encode a sequence of terms (one column), preserving order.

        Bulk form of :meth:`encode`: when every term is already known —
        the steady state of a warm store — the whole column is one
        C-level ``map`` over the index; otherwise the unseen terms get
        ids in first-seen order first, exactly as repeated ``encode``
        calls would assign them.
        """
        lookup = self._term_to_id.__getitem__
        try:
            return list(map(lookup, terms))
        except KeyError:
            pass
        index, store = self._term_to_id, self._id_to_term
        for term in dict.fromkeys(terms):
            if term not in index:
                index[term] = len(store)
                store.append(term)
        return list(map(lookup, terms))

    def lookup(self, term: str) -> int | None:
        """Return the id for *term* or None if it has never been encoded."""
        return self._term_to_id.get(term)

    def ids_of(self, terms: Sequence[str]) -> list[int]:
        """The ids of terms already numbered (one column, order
        preserved); ``KeyError`` otherwise (unlike :meth:`encode`, never
        assigns one)."""
        return list(map(self._term_to_id.__getitem__, terms))

    def decode(self, ident: int) -> str:
        """Return the term for *ident*.

        Raises ``KeyError`` for unknown ids (mirrors dict semantics rather
        than IndexError, since ids are opaque keys to callers).
        """
        if 0 <= ident < len(self._id_to_term):
            return self._id_to_term[ident]
        raise KeyError(ident)

    def decode_column(self, ids) -> list[str]:
        """Decode one column of ids (an int64 array or any int
        sequence) to its terms, preserving order.

        The one bulk decode path: a single numpy gather from the
        id-indexed term array.  An id below 0 or at/above ``len(self)``
        raises ``KeyError`` (a negative index would otherwise wrap).
        """
        ids = np.asarray(ids, dtype=np.int64)
        if not ids.size:
            return []
        low, high = int(ids.min()), int(ids.max())
        if low < 0:
            raise KeyError(low)
        terms, count = self._terms
        if high >= count:
            if high >= len(self._id_to_term):
                raise KeyError(high)
            terms = self._grow_terms()
        return terms[ids].tolist()

    def _grow_terms(self):
        """Publish a term array holding every id numbered so far.

        Only the suffix past the published count is copied in; the
        array's capacity doubles when it runs out, so appends cost
        amortised O(1) per term.  Needs no lock: any writer stores
        term ``i`` only in slot ``i``, and a reader reads only below
        the count of the pair it took, so racing growers at worst
        publish a shorter prefix, which the next read extends.
        """
        terms, count = self._terms
        size = len(self._id_to_term)
        if size > len(terms):
            grown = np.empty(max(size, 2 * len(terms)), dtype=object)
            grown[:count] = terms[:count]
            terms = grown
        terms[count:size] = self._id_to_term[count:size]
        self._terms = (terms, size)
        return terms

    # -- delta replication ----------------------------------------------------
    #
    # Ids are dense and append-only, so a replica stays identical to its
    # origin as long as every append on the origin is replayed on the
    # replica in order.  A shard worker's replica (pickled with its
    # snapshot) is kept in step this way: the driver ships it the
    # entries past the length it last synced, and the worker merges
    # them by position.

    def entries_from(self, start: int) -> tuple[str, ...]:
        """The terms with ids ``start .. len(self)-1``, in id order."""
        if not 0 <= start <= len(self._id_to_term):
            raise ValueError(
                f"delta start {start} outside dictionary of {len(self)} entries"
            )
        return tuple(self._id_to_term[start:])

    def merge_entries(self, start: int, terms: Iterable[str]) -> int:
        """Replay a delta produced by :meth:`entries_from` on a replica.

        Idempotent: entries below the current length must match what is
        already stored (re-delivery after a retry is a no-op); entries at
        the current length are appended.  A *start* beyond the current
        length means a delta was lost — raises ``ValueError`` rather than
        silently desynchronising id assignment.  Returns the new length.
        """
        size = len(self._id_to_term)
        if start > size:
            raise ValueError(
                f"dictionary delta gap: delta starts at {start}, "
                f"replica holds {size} entries"
            )
        for offset, term in enumerate(terms):
            ident = start + offset
            if ident < size:
                if self._id_to_term[ident] != term:
                    raise ValueError(
                        f"dictionary delta conflict at id {ident}: "
                        f"{self._id_to_term[ident]!r} != {term!r}"
                    )
                continue
            if term in self._term_to_id:
                raise ValueError(
                    f"dictionary delta conflict: term {term!r} already "
                    f"has id {self._term_to_id[term]}, delta assigns {ident}"
                )
            self._term_to_id[term] = ident
            self._id_to_term.append(term)
            size += 1
        return size
