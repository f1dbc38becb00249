"""Seeded input generators owned by the ledger.

Everything the benchmark feeds the program is made here from ``--seed``
as plain text and triples: the program's own workload generators are
used only for the fixed LUBM graph and its 14 query texts.  The shape
generator below replaces ``repro.workloads.synthetic`` on purpose (see
the README's findings: its dense generator can raise, and its equal-size
chains/stars are one template).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate

Triple = tuple[str, str, str]

# -- LUBM text rotation ---------------------------------------------------------


def shuffled_passes(
    names: list[str], passes: int, seed: int, client: int = 0
) -> list[list[str]]:
    """*passes* independently shuffled orders of *names* for one client."""
    rng = random.Random(f"passes:{seed}:{client}")
    out = []
    for _ in range(passes):
        order = list(names)
        rng.shuffle(order)
        out.append(order)
    return out


# -- Zipf constants + student batches (rw_zipf) -------------------------------------

#: The four parameterised read shapes; ``{uni}`` takes the Zipf-drawn
#: university IRI.  Q3-, Q2- and Q4-like, plus a graduate / degree /
#: department shape that joins on the constant from two sides.
ZIPF_SHAPES: dict[str, str] = {
    "Z3": "SELECT ?P ?S WHERE { ?P ub:worksFor ?D . ?S ub:memberOf ?D . "
    "?D ub:subOrganizationOf {uni} }",
    "Z2": "SELECT ?X WHERE { ?X rdf:type ub:AssistantProfessor . "
    "?X ub:doctoralDegreeFrom {uni} }",
    "Z4": "SELECT ?X ?Y WHERE { ?X rdf:type ub:Lecturer . ?Y rdf:type ub:Department . "
    "?X ub:worksFor ?Y . ?Y ub:subOrganizationOf {uni} }",
    "ZG": "SELECT ?X ?D WHERE { ?X rdf:type ub:GraduateStudent . "
    "?X ub:undergraduateDegreeFrom {uni} . ?X ub:memberOf ?D . "
    "?D ub:subOrganizationOf {uni} }",
}


def zipf_ranks(n: int, count: int, s: float, rng: random.Random) -> list[int]:
    """*count* draws from Zipf(s) over ranks ``0..n-1`` (inverse CDF)."""
    cdf = list(accumulate(1.0 / (rank + 1) ** s for rank in range(n)))
    total = cdf[-1]
    return [min(bisect_left(cdf, rng.random() * total), n - 1) for _ in range(count)]


def student_batch(index: int, universities: int, rng: random.Random) -> list[Triple]:
    """Five new graduate students (15 triples) for write number *index*."""
    triples: list[Triple] = []
    for k in range(5):
        student = f"<LedgerGrad{index}.{k}>"
        uni = rng.randrange(universities)
        dept = f"<Department{rng.randrange(5)}.University{uni}>"
        degree = f"<http://www.University{rng.randrange(universities)}.edu>"
        triples.append((student, "rdf:type", "ub:GraduateStudent"))
        triples.append((student, "ub:memberOf", dept))
        triples.append((student, "ub:undergraduateDegreeFrom", degree))
    return triples


def zipf_ops(
    count: int, universities: int, seed: int, write_every: int = 25, s: float = 1.1
) -> list[tuple]:
    """One rw_zipf round: ``("read", shape, text)`` or ``("write",)``;
    every *write_every*-th op is a write."""
    rng = random.Random(f"zipf:{seed}")
    # A seeded permutation decides which university is rank 0, so the hot
    # constant differs between seeds.
    order = list(range(universities))
    rng.shuffle(order)
    ranks = zipf_ranks(universities, count, s, rng)
    shapes = list(ZIPF_SHAPES)
    ops: list[tuple] = []
    for i in range(count):
        if (i + 1) % write_every == 0:
            ops.append(("write",))
            continue
        shape = shapes[rng.randrange(len(shapes))]
        uni = f"<http://www.University{order[ranks[i]]}.edu>"
        ops.append(("read", shape, ZIPF_SHAPES[shape].replace("{uni}", uni)))
    return ops


# -- random graph + thin/dense shapes (cold_shapes) -----------------------------------

PROPERTIES = tuple(f"x:p{i}" for i in range(1, 11))


def random_graph(seed: int, nodes: int = 100) -> list[Triple]:
    """One random permutation of the nodes per property: every node has
    exactly one out-edge and one in-edge of each property.

    Joins over such a graph are 1:1, so a tree-shaped query has exactly
    *nodes* answers and a cyclic one a handful, whatever the labels: the
    execution cost of a shape does not swing with the seed (on a plain
    random graph a 3-pattern shape ran 1 ms or 60 ms depending on which
    hub nodes its labels met)."""
    rng = random.Random(f"graph:{seed}")
    triples: list[Triple] = []
    for prop in PROPERTIES:
        targets = list(range(nodes))
        rng.shuffle(targets)
        triples.extend((f"<n{i}>", prop, f"<n{t}>") for i, t in enumerate(targets))
    return triples


#: Which fixed corpus the shapes come from.  The shapes are not seeded:
#: clique decomposition is exponential in the join structure, so seeded
#: skeletons move planning time 5x between seeds (the first 64 shapes of
#: corpora 0..15 sum to 0.9..4.5 s of optimizer time) and a single 1-2 s
#: monster would decide throughput; seeded labels alone still move one
#: shape's planning time 1.7x, through the canonical pattern order.
#: Corpus 12 sums to 1.05 s, its heaviest shape plans in 0.12 s and its
#: p95 sits on a plateau of five shapes between 78 and 94 ms.
#: ``--seed`` draws the data graph and the submission order, as it does
#: for the fixed LUBM queries.
SKELETON_CORPUS = 12


def thin_skeleton(n: int, rng: random.Random) -> list[tuple[str, str]]:
    """A random tree: each new pattern hangs off one earlier variable."""
    variables = ["?v0", "?v1"]
    edges = [("?v0", "?v1")]
    for _ in range(1, n):
        link = rng.choice(variables)
        fresh = f"?v{len(variables)}"
        variables.append(fresh)
        edges.append((link, fresh) if rng.random() < 0.5 else (fresh, link))
    return edges


def dense_skeleton(n: int, rng: random.Random) -> list[tuple[str, str]]:
    """Patterns over a small variable pool, grown connected: every new
    pattern reuses at least one variable already in the body."""
    pool = [f"?v{i}" for i in range(max(3, (n + 2) // 2))]
    used = rng.sample(pool, 2)
    edges = [(used[0], used[1])]
    while len(edges) < n:
        a = rng.choice(used)
        b = rng.choice([v for v in pool if v != a])
        if b not in used:
            used.append(b)
        edge = (a, b) if rng.random() < 0.5 else (b, a)
        if edge not in edges:
            edges.append(edge)
    return edges


def shape_stream(min_patterns: int = 3, max_patterns: int = 10):
    """Endless ``(class, text)`` candidates, alternating thin/dense and
    cycling sizes; the workload keeps the first N structurally distinct."""
    rng = random.Random(f"shapes:{SKELETON_CORPUS}")
    sizes = list(range(min_patterns, max_patterns + 1))
    i = 0
    while True:
        n = sizes[(i // 2) % len(sizes)]
        kind = "thin" if i % 2 == 0 else "dense"
        edges = (thin_skeleton if kind == "thin" else dense_skeleton)(n, rng)
        variables = sorted({v for edge in edges for v in edge})
        head = rng.sample(variables, min(len(variables), rng.randint(1, 3)))
        body = " . ".join(f"{s} {rng.choice(PROPERTIES)} {o}" for s, o in edges)
        bucket = "s" if n <= 5 else "m" if n <= 8 else "l"
        yield f"{kind}-{bucket}", f"SELECT {' '.join(head)} WHERE {{ {body} }}"
        i += 1
