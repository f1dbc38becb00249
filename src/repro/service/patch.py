"""The delta rule: a stale cached answer brought forward by the triples
written since it was computed, instead of recomputed.

The store is insert-only and a BGP answer is monotone under set
semantics (§2), so after the batches Δ logged since an answer's version
the answer is the old one plus, for each pattern, the bindings that
match it to a Δ triple and the other patterns over the live graph
(which holds Δ).  A pattern is tried only against the Δ triples under
the §5.1 file key its scan reads (every property's group for a
variable property); each that matches it seeds one run of a nested
loop of index lookups over the other patterns.  A row found twice is
one row.

The rule is run once per (template, logged batch), not once per cached
answer: every cached answer of one template — one key per binding of
its ``$s<slot>`` parameters — reads the same batches.  A
:class:`PatchProgram` is the rule compiled over the template's
patterns with each placeholder read as a variable, its columns the
answer's attrs followed by the parameter slots: per pattern its read
keys, its constant and repeated-variable checks as positions, the slots
a seed writes, the evaluator's join order of the other patterns
(:class:`_Join`) and the slots the answer and its parameter values are
read from.  A seed is checked and extended without a binding dict, and
every extension is written straight into an answer tuple, filed under
its parameter values.  A patch that finds a batch not yet joined for
its template joins it and publishes the index on the batch, with the
program (:attr:`LoggedBatch.joins`); every later key of the template
that patches across that batch reads its rows with one dict lookup.
The program is built once per template and carried from the newest
batch it joined to the next; it and the index leave with the batch when
the log drops it, so no cache of either is evicted.

Why the shared join is right.  Take a row that is an answer of the key
at version V but was not at the key's version v.  Let b be the batch of
the latest-written triple of a witness of it: b is in (v, V].  Every
triple of that witness exists at every version ≥ b, so the join of b,
run at any version between b and V, seeds the row's pattern with that
triple and extends it over the others to the row.  Insertion only ever
adds rows, so every row a join found at a version ≤ V is still an
answer at V.  Two patches that join one batch at once do so at one
graph version (writes hold the store exclusively, a patch its read
side), so they build equal indexes and either may be published.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple, Sequence

from repro.columnar.block import ColumnBlock, gather
from repro.partitioning.layout import FileKey, read_keys
from repro.rdf.graph import RDFGraph, Triple
from repro.rdf.terms import is_variable
from repro.sparql.ast import TriplePattern
from repro.sparql.evaluator import _Join

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.partitioning.triple_partitioner import PartitionedStore
    from repro.service.cache import ResultEntry
    from repro.sparql.canonical import QueryTemplate

#: the most delta work one (template, batch) join does — seeds plus the
#: bindings they extend to — before it gives up, and every answer that
#: patches across the batch is recomputed
PATCH_WORK_BOUND = 4096


class BatchJoin(NamedTuple):
    """One logged batch joined for one template."""

    #: the template's program, carried to the batches it joins next
    program: PatchProgram
    #: parameter values -> answer rows (None: the join passed
    #: :data:`PATCH_WORK_BOUND`)
    rows: dict[tuple, set[tuple]] | None


class LoggedBatch(NamedTuple):
    """One logged write: its new triples grouped by the §5.1 file keys
    they are written under, and the joins patches have run over them."""

    version: int
    size: int
    groups: dict[FileKey, list[Triple]]
    #: ``(template signature, answer attrs)`` -> the batch joined for
    #: that template, published by the first patch that joins it
    joins: dict[tuple, BatchJoin]


def _projector(slots: Sequence[int]) -> Callable[[list], tuple]:
    """Reads a tuple off a binding's slot list."""
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        (slot,) = slots
        return lambda values: (values[slot],)
    return lambda values: ()


class _Seeder:
    """One pattern of a :class:`PatchProgram`: which logged triples it
    reads, which of them match it, and the join that extends a match."""

    __slots__ = (
        "keys", "constants", "repeats", "seeded", "template", "steps", "row", "params",
    )

    def __init__(
        self,
        tp: TriplePattern,
        others: tuple[TriplePattern, ...],
        attrs: Sequence[str],
        params: Sequence[str],
    ) -> None:
        #: the file key the pattern's scan reads (None: every file)
        self.keys = read_keys((tp,))
        first: dict[str, int] = {}
        constants: list[tuple[int, str]] = []
        repeats: list[tuple[int, int]] = []
        for position, term in enumerate((tp.s, tp.p, tp.o)):
            if not is_variable(term):
                constants.append((position, term))
            elif term in first:
                repeats.append((first[term], position))
            else:
                first[term] = position
        #: ``(position, term)``: a matching triple holds the constant
        self.constants = tuple(constants)
        #: ``(position, position)``: a repeated variable meets one value
        self.repeats = tuple(repeats)
        join = _Join(others, frozenset(first))
        #: ``(position, slot)``: a match writes the pattern's variables
        #: into the join's seeded slots
        self.seeded = tuple((first[v], slot) for slot, v in enumerate(join.seeded))
        self.template = join.template
        self.steps = join.steps
        #: the answer tuple of a complete binding, and its parameter values
        self.row = _projector([join.names.index(a) for a in attrs])
        self.params = _projector([join.names.index(p) for p in params])


class PatchProgram:
    """The delta rule compiled for a template's *patterns*, its
    placeholders *params* read as variables, and the answer columns
    *attrs* (see the module docstring)."""

    __slots__ = ("seeders",)

    def __init__(
        self,
        patterns: Sequence[TriplePattern],
        params: Sequence[str],
        attrs: Sequence[str],
    ) -> None:
        lifted = {p: "?" + p for p in params}
        tps = tuple(
            TriplePattern(lifted.get(tp.s, tp.s), tp.p, lifted.get(tp.o, tp.o))
            for tp in patterns
        )
        columns = tuple(lifted[p] for p in params)
        self.seeders = tuple(
            _Seeder(tp, tps[:i] + tps[i + 1 :], attrs, columns)
            for i, tp in enumerate(tps)
        )

    def join(
        self, groups: dict[FileKey, list[Triple]], graph: RDFGraph
    ) -> tuple[dict[tuple, set[tuple]] | None, int, int]:
        """The answer rows one logged batch's new triples *groups* bring
        over *graph*, by parameter values; returns ``(index, tried,
        seeds)``: the logged triples checked against a pattern and those
        that matched it.  The index is None when the work passed
        :data:`PATCH_WORK_BOUND` (the join stopped where it passed it).
        """
        match = graph.match
        index: dict[tuple, set[tuple]] = {}
        tried = seeds = work = 0
        for seeder in self.seeders:
            constants, repeats = seeder.constants, seeder.repeats
            seeded, steps = seeder.seeded, seeder.steps
            row, params = seeder.row, seeder.params
            last = len(steps) - 1
            for triple in _logged(groups, seeder.keys):
                tried += 1
                if constants and any(triple[i] != term for i, term in constants):
                    continue
                if repeats and any(triple[a] != triple[b] for a, b in repeats):
                    continue
                seeds += 1
                work += 1
                if work > PATCH_WORK_BOUND:
                    return None, tried, seeds
                # the join's slots; only the constants are set until
                # the seed and the steps write the variables
                values: list[Any] = list(seeder.template)
                for position, slot in seeded:
                    values[slot] = triple[position]
                if last < 0:
                    index.setdefault(params(values), set()).add(row(values))
                    work += 1
                    if work > PATCH_WORK_BOUND:
                        return None, tried, seeds
                    continue
                # One match iterator per depth, as in the evaluator's
                # nested loop; a step's lookup reads the slots the steps
                # above it wrote for the triple they are on.
                s, p, o = steps[0][0]
                stack = [match(values[s], values[p], values[o])]
                while stack:
                    depth = len(stack) - 1
                    _, writes, checks = steps[depth]
                    for found in stack[depth]:
                        if checks and any(found[a] != found[b] for a, b in checks):
                            continue
                        for position, slot in writes:
                            values[slot] = found[position]
                        if depth == last:
                            index.setdefault(params(values), set()).add(row(values))
                            work += 1
                            if work > PATCH_WORK_BOUND:
                                return None, tried, seeds
                            continue
                        s, p, o = steps[depth + 1][0]
                        stack.append(match(values[s], values[p], values[o]))
                        break
                    else:
                        stack.pop()
        return index, tried, seeds


def _logged(
    groups: dict[FileKey, list[Triple]], keys: tuple[FileKey, ...] | None
) -> Iterator[Triple]:
    """The logged triples under the file key *keys* names (None: every
    property's group, where each triple is logged once)."""
    if keys is not None:
        yield from groups.get(keys[0], ())
        return
    for (_, cls), group in groups.items():
        if cls is None:
            yield from group


def _carried(log: Sequence[LoggedBatch], key: tuple) -> PatchProgram | None:
    """The program of the template *key* names that joined the newest
    logged batch joined by it, if the log still holds one."""
    for batch in reversed(log):
        join = batch.joins.get(key)
        if join is not None:
            return join.program
    return None


def patched(
    stale: ResultEntry,
    template: QueryTemplate,
    values: tuple[str, ...],
    log: Sequence[LoggedBatch],
    version: int,
    store: PartitionedStore,
    graph: RDFGraph,
) -> tuple[ResultEntry | None, dict[str, object]]:
    """*stale*, the answer of *template* bound to *values*, brought
    forward to *version* (or None when it cannot be: the log no longer
    reaches back to its version, or a batch's join passed the work
    bound) and the ``patch`` span's attrs.  The caller holds the store's
    read lock, so *log*, *store* and *graph* are at *version*.
    """
    if not log or log[0].version > stale.version + 1:
        return None, {"recomputed": "horizon"}
    # Log versions are consecutive: the batches since are a suffix.
    since = list(islice(log, stale.version + 1 - log[0].version, None))
    delta = sum(batch.size for batch in since)
    attrs = stale.attrs
    key = (template.signature, attrs)
    program: PatchProgram | None = None
    found: set[tuple] = set()
    tried = seeds = joined = reused = 0
    for batch in since:
        join = batch.joins.get(key)
        if join is None:
            if program is None:
                program = _carried(log, key) or PatchProgram(
                    template.query.patterns,
                    [param.placeholder for param in template.params],
                    attrs,
                )
            rows, batch_tried, batch_seeds = program.join(batch.groups, graph)
            tried += batch_tried
            seeds += batch_seeds
            joined += 1
            # A racing patch at this version built an equal index.
            join = batch.joins.setdefault(key, BatchJoin(program, rows))
        else:
            reused += 1
        if join.rows is None:
            return None, {
                "delta": delta, "tried": tried, "seeds": seeds,
                "joined": joined, "reused": reused, "recomputed": "bound",
            }
        found.update(join.rows.get(values, ()))
    added = found.difference(stale.rows)
    block = stale.block
    if added:
        # Every term of the live graph is numbered: store.add encoded
        # the new ones as they were written.  The rows added are none of
        # the block's, so the two concatenate without a duplicate.
        block = gather(
            attrs,
            [block, added],
            store.dictionary,
            partial(ColumnBlock.from_rows, mint=False),
        )
    entry = stale.patched(version, store.file_stamp(stale.footprint), block, added)
    return entry, {
        "delta": delta, "tried": tried, "seeds": seeds, "added": len(added),
        "joined": joined, "reused": reused,
    }
