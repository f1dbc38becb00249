"""Synthetic query generator — the §6.2 workload.

The paper builds 120 synthetic queries with the generator of [10]:
shapes *chain*, *star*, and *random*, the latter in *thin* (chain-like,
few shared variables) and *dense* (many shared variables) variants, with
1 to 10 triple patterns each.  This module reproduces those four shape
families, seeded for determinism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from repro.sparql.ast import BGPQuery, TriplePattern

SHAPES = ("chain", "star", "thin", "dense")


def chain_query(n: int, name: str = "") -> BGPQuery:
    """A chain of n patterns: t_i and t_{i+1} share one variable, each
    edge a distinct variable (the worst case for minimum-cover sizes)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    patterns = [
        TriplePattern(f"?v{i}", f"p{i + 1}", f"?v{i + 1}") for i in range(n)
    ]
    return BGPQuery(
        distinguished=("?v0",), patterns=tuple(patterns), name=name or f"chain{n}"
    )


def star_query(n: int, name: str = "") -> BGPQuery:
    """A star: every pattern shares the central variable (one maximal
    clique covering the whole graph)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    patterns = [TriplePattern("?c", f"p{i + 1}", f"?o{i + 1}") for i in range(n)]
    return BGPQuery(
        distinguished=("?c",), patterns=tuple(patterns), name=name or f"star{n}"
    )


def random_query(
    n: int,
    dense: bool,
    rng: random.Random,
    name: str = "",
) -> BGPQuery:
    """A random connected query.

    *thin* queries link each new pattern to one previous pattern with a
    fresh variable (a random tree — "close to chains", §6.2); *dense*
    queries draw subject/object variables from a small pool, so triples
    share many variables.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return BGPQuery(
            distinguished=("?v0",),
            patterns=(TriplePattern("?v0", "p1", "?v1"),),
            name=name or "rand1",
        )
    if not dense:
        patterns: list[TriplePattern] = [TriplePattern("?v0", "p1", "?v1")]
        next_var = 2
        for i in range(1, n):
            target = rng.randrange(len(patterns))
            link = rng.choice(patterns[target].variables())
            fresh = f"?v{next_var}"
            next_var += 1
            if rng.random() < 0.5:
                patterns.append(TriplePattern(link, f"p{i + 1}", fresh))
            else:
                patterns.append(TriplePattern(fresh, f"p{i + 1}", link))
        query = BGPQuery(
            distinguished=(patterns[0].variables()[0],),
            patterns=tuple(patterns),
            name=name or f"thin{n}",
        )
        return query
    # Dense: small variable pool -> heavily shared variables.
    pool_size = max(2, (n + 1) // 2)
    pool = [f"?v{i}" for i in range(pool_size)]
    while True:
        patterns = []
        for i in range(n):
            s, o = rng.sample(pool, 2)
            patterns.append(TriplePattern(s, f"p{i + 1}", o))
        # Project the first pool variable some pattern actually drew
        # (pool[0] whenever it occurs; no draw is obliged to pick it).
        drawn = {v for tp in patterns for v in tp.variables()}
        query = BGPQuery(
            distinguished=(next(v for v in pool if v in drawn),),
            patterns=tuple(patterns),
            name=name or f"dense{n}",
        )
        if query.is_connected() and len(query.join_variables()) >= 1:
            return query


@dataclass(frozen=True)
class SyntheticWorkload:
    """A reproducible batch of synthetic queries per shape."""

    queries_per_shape: int = 30
    min_patterns: int = 1
    max_patterns: int = 10
    seed: int = 8612

    def generate(self, shapes: Iterable[str] = SHAPES) -> dict[str, list[BGPQuery]]:
        """Queries per shape; sizes sweep min..max cyclically (avg ~5.5,
        like the paper's 120-query workload)."""
        rng = random.Random(self.seed)
        out: dict[str, list[BGPQuery]] = {}
        sizes = list(range(self.min_patterns, self.max_patterns + 1))
        for shape in shapes:
            if shape not in SHAPES:
                raise ValueError(f"unknown shape {shape!r}")
            queries: list[BGPQuery] = []
            for i in range(self.queries_per_shape):
                n = sizes[i % len(sizes)]
                qname = f"{shape}-{i}-n{n}"
                if shape == "chain":
                    queries.append(chain_query(n, qname))
                elif shape == "star":
                    queries.append(star_query(n, qname))
                elif shape == "thin":
                    queries.append(random_query(n, dense=False, rng=rng, name=qname))
                else:
                    queries.append(random_query(n, dense=True, rng=rng, name=qname))
            out[shape] = queries
        return out
