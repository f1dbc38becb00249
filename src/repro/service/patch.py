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

A :class:`PatchProgram` is that rule compiled for one plan's patterns
and answer columns, once: per pattern its read keys, its constant and
repeated-variable checks as positions, the slots a seed writes, the
evaluator's join order of the other patterns (:class:`_Join`) and the
slots the answer's columns are read from.  A seed is then checked and
extended without a binding dict, and every extension is written
straight into an answer tuple.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.columnar.block import ColumnBlock, answer_block
from repro.partitioning.layout import FileKey, read_keys
from repro.rdf.graph import RDFGraph, Triple
from repro.rdf.terms import is_variable
from repro.sparql.ast import TriplePattern
from repro.sparql.evaluator import _Join

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.partitioning.triple_partitioner import PartitionedStore
    from repro.service.cache import ResultEntry

#: the most delta work a patch does — seeds plus the bindings they
#: extend to — before it gives up and the answer is recomputed
PATCH_WORK_BOUND = 4096

#: one logged write: ``(graph version, batch size, {file key: new triples})``
LogEntry = tuple[int, int, dict[FileKey, list[Triple]]]


def _projector(slots: Sequence[int]) -> Callable[[list], tuple]:
    """Reads the answer tuple off a binding's slot list."""
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        (slot,) = slots
        return lambda values: (values[slot],)
    return lambda values: ()


class _Seeder:
    """One pattern of a :class:`PatchProgram`: which logged triples it
    reads, which of them match it, and the join that extends a match."""

    __slots__ = ("keys", "constants", "repeats", "seeded", "template", "steps", "row")

    def __init__(
        self,
        tp: TriplePattern,
        others: tuple[TriplePattern, ...],
        attrs: Sequence[str],
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
        #: the answer tuple of a complete binding
        self.row = _projector([join.names.index(a) for a in attrs])


class PatchProgram:
    """The delta rule compiled for a plan's *patterns* and answer
    columns *attrs* (see the module docstring); built once per cached
    answer's plan and carried forward by every patch of it."""

    __slots__ = ("seeders",)

    def __init__(
        self, patterns: Sequence[TriplePattern], attrs: Sequence[str]
    ) -> None:
        tps = tuple(patterns)
        self.seeders = tuple(
            _Seeder(tp, tps[:i] + tps[i + 1 :], attrs) for i, tp in enumerate(tps)
        )

    def run(
        self, since: Sequence[LogEntry], graph: RDFGraph, added: set[tuple]
    ) -> tuple[int, int, bool]:
        """Add to *added* the answer rows the writes *since* bring over
        *graph*; returns ``(tried, seeds, within)``: the logged triples
        checked against a pattern, those that matched it, and whether
        the work stayed within :data:`PATCH_WORK_BOUND` (when not, the
        run stopped where it passed it)."""
        match = graph.match
        tried = seeds = work = 0
        for seeder in self.seeders:
            constants, repeats = seeder.constants, seeder.repeats
            seeded, steps, row = seeder.seeded, seeder.steps, seeder.row
            last = len(steps) - 1
            for triple in _logged(since, seeder.keys):
                tried += 1
                if constants and any(triple[i] != term for i, term in constants):
                    continue
                if repeats and any(triple[a] != triple[b] for a, b in repeats):
                    continue
                seeds += 1
                work += 1
                if work > PATCH_WORK_BOUND:
                    return tried, seeds, False
                # the join's slots; only the constants are set until
                # the seed and the steps write the variables
                values: list[Any] = list(seeder.template)
                for position, slot in seeded:
                    values[slot] = triple[position]
                if last < 0:
                    added.add(row(values))
                    work += 1
                    if work > PATCH_WORK_BOUND:
                        return tried, seeds, False
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
                            added.add(row(values))
                            work += 1
                            if work > PATCH_WORK_BOUND:
                                return tried, seeds, False
                            continue
                        s, p, o = steps[depth + 1][0]
                        stack.append(match(values[s], values[p], values[o]))
                        break
                    else:
                        stack.pop()
        return tried, seeds, True


def _logged(
    since: Sequence[LogEntry], keys: tuple[FileKey, ...] | None
) -> Iterator[Triple]:
    """The logged triples under the file key *keys* names (None: every
    property's group, where each triple is logged once)."""
    for _, _, groups in since:
        if keys is not None:
            yield from groups.get(keys[0], ())
            continue
        for (_, cls), group in groups.items():
            if cls is None:
                yield from group


def patched(
    stale: ResultEntry,
    log: Sequence[LogEntry],
    version: int,
    store: PartitionedStore,
    graph: RDFGraph,
) -> tuple[ResultEntry | None, dict[str, object]]:
    """*stale* brought forward to *version* (or None when it cannot be:
    the log no longer reaches back to its version, or the work bound
    was passed) and the ``patch`` span's attrs.  The caller holds the
    store's read lock, so *log*, *store* and *graph* are at *version*.
    """
    if not log or log[0][0] > stale.version + 1:
        return None, {"recomputed": "horizon"}
    since = [entry for entry in log if entry[0] > stale.version]
    delta = sum(size for _, size, _ in since)
    program = stale.program
    if program is None:
        program = PatchProgram(stale.plan.query.patterns, stale.attrs)
    found: set[tuple] = set()
    tried, seeds, within = program.run(since, graph, found)
    if not within:
        return None, {
            "delta": delta, "tried": tried, "seeds": seeds, "recomputed": "bound",
        }
    added = found.difference(stale.rows)
    block = stale.block
    if added:
        # Every term of the live graph is numbered: store.add encoded
        # the new ones as they were written.
        dictionary = store.dictionary
        attrs = stale.attrs
        block = answer_block(
            attrs,
            [block, ColumnBlock.from_rows(attrs, added, dictionary, mint=False)],
            dictionary,
        )
    entry = stale.patched(
        version, store.file_stamp(stale.footprint), block, added, program
    )
    return entry, {
        "delta": delta, "tried": tried, "seeds": seeds, "added": len(added),
    }
