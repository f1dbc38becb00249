"""Cover enumeration over clique candidates — Definition 3.3.

A clique decomposition is a set of cliques covering all graph nodes with
strictly fewer cliques than nodes.  Three enumeration regimes back the
eight CliqueSquare options (§4.3):

* :func:`iter_simple_covers` — *all* simple covers (a node may belong to
  several cliques), complete include/exclude subset search with coverage
  pruning.  This space explodes (Fig. 16); callers cap it.
* :func:`iter_exact_covers` — all exact covers (partitions), Algorithm-X
  style recursion, each cover produced exactly once.
* :func:`minimum_covers` — all covers of minimum size, found in one
  depth-first branch-and-bound pass over an irredundant-cover branching
  (minimum covers are irredundant, and the branching reaches every
  irredundant cover exactly once), cut by the smallest cover found so far.

Universe elements are node indices ``0..n-1``; candidate sets are bitmasks.
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence


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


def minimum_covers(
    universe_size: int,
    masks: Sequence[int],
    exact: bool,
    budget: EnumerationBudget | None = None,
) -> list[tuple[int, ...]]:
    """All covers of minimum size (simple or exact), sorted and deduplicated.

    One depth-first branch-and-bound pass.  Each step branches on the
    smallest uncovered element, trying its larger candidate sets first so
    that a small cover bounds the search early.  A simple cover never
    re-takes a set an earlier sibling branch took (so every irredundant
    cover — every minimum cover is one — is reached exactly once); an
    exact cover takes only sets disjoint from the covered elements.  A
    branch is cut once ``k`` chosen sets plus ``ceil(uncovered /
    largest set)`` exceed the smallest cover found so far, and a smaller
    cover resets the found set.  Covers have at most ``universe_size -
    1`` sets (Def. 3.3).

    Returns [] when no cover exists at all (the MXC+/XC+ failure mode of
    Fig. 10).  When *budget* runs out mid-search the covers found so far
    (all of one size, possibly above the minimum) are returned and the
    budget is left ``truncated``.
    """
    full = _full(universe_size)
    union = 0
    for mask in masks:
        union |= mask
    if union != full or not full:
        return []
    sizes = [mask.bit_count() for mask in masks]
    largest_first = sorted(range(len(masks)), key=lambda j: -sizes[j])
    #: element -> the sets holding it, largest first (built when branched on)
    by_element: dict[int, list[int]] = {}
    largest = max(sizes)
    best = max(universe_size - 1, 1)
    found: set[tuple[int, ...]] = set()
    chosen: list[int] = []

    def rec(covered: int, banned: int) -> None:
        nonlocal best
        if budget is not None and budget.exhausted():
            return
        if covered == full:
            if len(chosen) < best:
                best = len(chosen)
                found.clear()
            found.add(tuple(sorted(chosen)))
            return
        uncovered = universe_size - covered.bit_count()
        if len(chosen) + -(-uncovered // largest) > best:
            return
        e = _lowest_unset(covered, universe_size)
        if e not in by_element:
            by_element[e] = [j for j in largest_first if masks[j] >> e & 1]
        for j in by_element[e]:
            if len(chosen) + 1 + -(-(uncovered - sizes[j]) // largest) > best:
                break  # the sets come largest first: no later one fits either
            if not banned >> j & 1 and not (exact and masks[j] & covered):
                chosen.append(j)
                rec(covered | masks[j], banned)
                chosen.pop()
            banned |= 1 << j

    rec(0, 0)
    return sorted(found)
