"""Cover enumeration over clique candidates — Definition 3.3.

A clique decomposition is a set of cliques covering all graph nodes with
strictly fewer cliques than nodes.  Three enumeration regimes back the
eight CliqueSquare options (§4.3):

* :func:`iter_simple_covers` — *all* simple covers (a node may belong to
  several cliques), complete include/exclude subset search with coverage
  pruning.  This space explodes (Fig. 16); callers cap it.
* :func:`iter_exact_covers` — all exact covers (partitions), Algorithm-X
  style recursion, each cover produced exactly once.
* :func:`minimum_covers` — all covers of minimum size, found by iterative
  deepening over an irredundant-cover branching (minimum covers are
  irredundant, and the branching enumerates every irredundant cover
  exactly once).

Universe elements are node indices ``0..n-1``; candidate sets are bitmasks.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Sequence


class EnumerationBudget:
    """A cap on enumeration effort: count limit and wall-clock deadline.

    Mirrors the paper's experimental protocol (§6.2), where every
    optimizer run was stopped after a 100 s timeout.
    """

    def __init__(
        self, max_items: int | None = None, timeout_s: float | None = None
    ) -> None:
        self.max_items = max_items
        self.deadline = (time.monotonic() + timeout_s) if timeout_s else None
        self.produced = 0
        self.truncated = False

    def admit(self) -> bool:
        """Record one produced item; False once the budget is exhausted."""
        if self.exhausted():
            return False
        self.produced += 1
        return True

    def exhausted(self) -> bool:
        """True iff either cap has been hit (sets ``truncated``)."""
        if self.max_items is not None and self.produced >= self.max_items:
            self.truncated = True
            return True
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.truncated = True
            return True
        return False


def masks_of(universe_size: int, sets: Sequence[Iterable[int]]) -> list[int]:
    """Convert element-sets to bitmasks over ``0..universe_size-1``."""
    masks = []
    for s in sets:
        mask = 0
        for e in s:
            if not 0 <= e < universe_size:
                raise ValueError(f"element {e} outside universe 0..{universe_size - 1}")
            mask |= 1 << e
        masks.append(mask)
    return masks


def _full(universe_size: int) -> int:
    return (1 << universe_size) - 1


def iter_simple_covers(
    universe_size: int,
    masks: Sequence[int],
    max_size: int,
    budget: EnumerationBudget | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every subset of *masks* (as index tuples) that covers the
    universe with at most *max_size* sets.

    Complete: covers containing redundant sets are produced too (they give
    the DAG plans of §4.3).  Each cover is produced exactly once (indices
    strictly increase along the search path).
    """
    full = _full(universe_size)
    m = len(masks)
    if full == 0 or m == 0:
        return
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    chosen: list[int] = []

    def rec(start: int, covered: int) -> Iterator[tuple[int, ...]]:
        if budget is not None and budget.exhausted():
            return
        if covered == full:
            yield tuple(chosen)
        if len(chosen) >= max_size:
            return
        for j in range(start, m):
            if covered | suffix[j] != full:
                break  # no later set can restore coverage
            chosen.append(j)
            yield from rec(j + 1, covered | masks[j])
            chosen.pop()

    for cover in rec(0, 0):
        if budget is not None and not budget.admit():
            return
        yield cover


def iter_exact_covers(
    universe_size: int,
    masks: Sequence[int],
    max_size: int,
    budget: EnumerationBudget | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every exact cover (partition of the universe into candidate
    sets) of size at most *max_size*, each exactly once."""
    full = _full(universe_size)
    if full == 0 or not masks:
        return
    by_element: list[list[int]] = [[] for _ in range(universe_size)]
    for j, mask in enumerate(masks):
        for e in range(universe_size):
            if mask >> e & 1:
                by_element[e].append(j)
    chosen: list[int] = []

    def rec(covered: int) -> Iterator[tuple[int, ...]]:
        if budget is not None and budget.exhausted():
            return
        if covered == full:
            yield tuple(chosen)
            return
        if len(chosen) >= max_size:
            return
        # Branch on the smallest uncovered element.
        e = _lowest_unset(covered, universe_size)
        for j in by_element[e]:
            if masks[j] & covered:
                continue
            chosen.append(j)
            yield from rec(covered | masks[j])
            chosen.pop()

    for cover in rec(0):
        if budget is not None and not budget.admit():
            return
        yield cover


def _lowest_unset(covered: int, universe_size: int) -> int:
    """Index of the lowest zero bit of *covered* below *universe_size*."""
    inv = ~covered & _full(universe_size)
    return (inv & -inv).bit_length() - 1


def iter_irredundant_covers(
    universe_size: int,
    masks: Sequence[int],
    max_size: int,
    budget: EnumerationBudget | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield covers via smallest-uncovered-element branching.

    Every *irredundant* cover (no set removable) of size <= max_size is
    produced exactly once; some redundant-but-productive covers appear as
    well.  Used as the engine behind :func:`minimum_covers`: minimum
    covers are always irredundant.
    """
    full = _full(universe_size)
    m = len(masks)
    if full == 0 or m == 0:
        return
    by_element: list[list[int]] = [[] for _ in range(universe_size)]
    for j, mask in enumerate(masks):
        for e in range(universe_size):
            if mask >> e & 1:
                by_element[e].append(j)
    chosen: list[int] = []

    def rec(covered: int, banned: frozenset[int]) -> Iterator[tuple[int, ...]]:
        if budget is not None and budget.exhausted():
            return
        if covered == full:
            yield tuple(sorted(chosen))
            return
        if len(chosen) >= max_size:
            return
        e = _lowest_unset(covered, universe_size)
        newly_banned: set[int] = set()
        for j in by_element[e]:
            if j in banned:
                newly_banned.add(j)
                continue
            chosen.append(j)
            yield from rec(covered | masks[j], banned | frozenset(newly_banned))
            chosen.pop()
            newly_banned.add(j)

    yield from rec(0, frozenset())


def minimum_covers(
    universe_size: int,
    masks: Sequence[int],
    exact: bool,
    budget: EnumerationBudget | None = None,
) -> list[tuple[int, ...]]:
    """All covers of minimum size (simple or exact), deduplicated.

    Iterative deepening from the smallest depth that could cover the
    universe: the first depth k at which any cover exists is the minimum
    cover size; all covers found at that depth are returned.
    Returns [] when no cover exists at all (the MXC+/XC+ failure mode of
    Fig. 10).
    """
    full = _full(universe_size)
    union = 0
    for mask in masks:
        union |= mask
    if union != full or not full:
        return []
    iterator = iter_exact_covers if exact else iter_irredundant_covers
    max_k = max(universe_size - 1, 1)
    # k sets cover at most k * (largest set) elements, so every depth
    # below ceil(n / largest) is provably empty.
    largest = max(mask.bit_count() for mask in masks)
    for k in range(-(-universe_size // largest), max_k + 1):
        found = {
            tuple(sorted(cover))
            for cover in iterator(universe_size, masks, k, budget)
            if len(cover) == k
        }
        if found:
            return sorted(found)
        if budget is not None and budget.exhausted():
            return []
    return []
