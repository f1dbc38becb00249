"""Repo-specific AST lint: concurrency and protocol conventions, checked.

PRs 1–7 grew a concurrent system whose correctness rests on conventions
that review alone enforced.  This linter turns them into checked facts:

``LOCK001`` *guarded-by* — an attribute assigned with a trailing
    ``# guarded-by: _lock`` comment may only be read or written inside a
    ``with self._lock`` block (or via a local alias of that lock) in the
    same class.  ``__init__`` is exempt (construction happens-before
    publication).

``LOCK002`` *lock order* — lexically nested ``with`` acquisitions must
    respect the declared hierarchy (:mod:`repro.analysis.hierarchy`);
    acquiring an outer-tier lock while a ``with`` already holds an
    inner-tier one is an inversion.  The dynamic witness
    (:mod:`repro.analysis.locks`) enforces the same ranks across call
    boundaries at runtime.

``SPEC001`` *picklable specs* — every ``TaskSpec`` subclass that carries
    fields must be a frozen dataclass whose field types are picklable by
    reference: no ``Callable``/function types (including module-level
    aliases of ``Callable``) and no lambda defaults.

``FRAME001`` *frame exhaustiveness* — in a module declaring
    ``MESSAGE_TYPES``, every frame must appear in exactly one of the
    ``WORKER_HANDLED``/``CLIENT_HANDLED`` dispatch tables, every
    worker-handled frame must be matched by an ``isinstance`` check, and
    every frame must have a pickle-round-trip example registered in
    ``tests/test_rpc_frames.py`` — an unknown or unhandled frame is a
    lint error, not a runtime surprise.

``LINT000`` — a suppression without a justification.  Findings are
    suppressed line-by-line with ``# lint: disable=RULE — why``; the
    justification is mandatory and the linter errors on bare disables.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

RULES = ("LOCK001", "LOCK002", "SPEC001", "FRAME001", "LINT000")

_GUARD_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*disable=([A-Z0-9]+(?:\s*,\s*[A-Z0-9]+)*)\s*(.*)"
)
_LOCKISH_RE = re.compile(r"lock|cond|rwlock|mutex|sem", re.IGNORECASE)

#: Type names (and module-level aliases of them) that break pickling by
#: reference when they appear in a spec field annotation.
_UNPICKLABLE_TYPES = {"Callable", "FunctionType", "LambdaType", "MethodType"}

#: Bases that mark a class as a task spec (plus same-file transitivity).
_SPEC_BASES = {"TaskSpec", "MapTaskSpec", "ReduceTaskSpec"}


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass(frozen=True)
class _Suppression:
    line: int
    rules: tuple[str, ...]
    justified: bool


# -- comment handling ------------------------------------------------------


def _comments(source: str) -> dict[int, str]:
    """Line -> comment text, via tokenize (comments only, not strings)."""
    out: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                out[tok.start[0]] = tok.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        pass
    return out


def _suppressions(comments: dict[int, str]) -> dict[int, _Suppression]:
    out: dict[int, _Suppression] = {}
    for line, text in comments.items():
        m = _SUPPRESS_RE.search(text)
        if not m:
            continue
        rules = tuple(r.strip() for r in m.group(1).split(","))
        why = m.group(2).strip().lstrip("—–:-").strip()
        out[line] = _Suppression(line=line, rules=rules, justified=len(why) >= 8)
    return out


# -- lock-name extraction --------------------------------------------------


def _lock_names_in(expr: ast.expr, aliases: dict[str, str]) -> set[str]:
    """Lock attribute names mentioned by a ``with``-item expression.

    ``self._lock`` -> ``_lock``; ``self._rw.read()`` -> ``_rw``;
    ``self._shard_locks[i]`` -> ``_shard_locks``; a bare name resolves
    through the function-local alias map (``lock = self._x; with lock:``).
    """
    names: set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and _LOCKISH_RE.search(node.attr):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            if node.id in aliases:
                names.add(aliases[node.id])
            elif _LOCKISH_RE.search(node.id):
                names.add(node.id)
    return names


def _lock_aliases_in(fn: ast.AST) -> dict[str, str]:
    """``name -> attr`` for simple ``name = self.<attr>...`` lock aliases."""
    aliases: dict[str, str] = {}
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        for sub in ast.walk(node.value):
            if isinstance(sub, ast.Attribute) and _LOCKISH_RE.search(sub.attr):
                aliases[target.id] = sub.attr
                break
    return aliases


# -- LOCK001 / LOCK002 -----------------------------------------------------


def _guarded_attrs(cls: ast.ClassDef, comments: dict[int, str]) -> dict[str, str]:
    """Attribute -> guarding lock, from ``# guarded-by:`` annotations."""
    guards: dict[str, str] = {}
    for node in ast.walk(cls):
        m = None
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            comment = comments.get(node.lineno)
            m = _GUARD_RE.search(comment) if comment else None
        if not m:
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                guards[target.attr] = m.group(1)
    return guards


class _LockVisitor(ast.NodeVisitor):
    """Walks one method with a stack of lexically held locks."""

    def __init__(
        self,
        path: str,
        guards: dict[str, str],
        aliases: dict[str, str],
        rank_of: "Callable[[str], int | None]",
        findings: list[Finding],
    ) -> None:
        self.path = path
        self.guards = guards
        self.aliases = aliases
        self.rank_of = rank_of
        self.findings = findings
        self.held: list[str] = []

    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            acquired.extend(_lock_names_in(item.context_expr, self.aliases))
        for new in acquired:
            new_rank = self.rank_of(new)
            for outer in self.held:
                outer_rank = self.rank_of(outer)
                if (
                    new_rank is not None
                    and outer_rank is not None
                    and outer != new
                    and new_rank < outer_rank
                ):
                    self.findings.append(
                        Finding(
                            self.path,
                            node.lineno,
                            "LOCK002",
                            f"acquires {new!r} (tier {new_rank}) while "
                            f"holding {outer!r} (tier {outer_rank}); the "
                            "declared hierarchy orders outer tiers first",
                        )
                    )
        self.held.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        del self.held[len(self.held) - len(acquired):]

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in self.guards
        ):
            lock = self.guards[node.attr]
            if lock not in self.held:
                self.findings.append(
                    Finding(
                        self.path,
                        node.lineno,
                        "LOCK001",
                        f"access to {node.attr!r} (guarded by {lock!r}) "
                        f"outside `with self.{lock}`",
                    )
                )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs run on their own schedule (threads, callbacks):
        # a lock held at their *definition* site is not held at their
        # call site, so the held stack resets inside.
        saved, self.held = self.held, []
        self.generic_visit(node)
        self.held = saved

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]


def _check_locks(
    path: str, tree: ast.Module, comments: dict[int, str]
) -> list[Finding]:
    from repro.analysis.hierarchy import rank_of

    findings: list[Finding] = []
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        guards = _guarded_attrs(cls, comments)
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            aliases = _lock_aliases_in(fn)
            visitor = _LockVisitor(
                path,
                guards if fn.name != "__init__" else {},
                aliases,
                rank_of,
                findings,
            )
            for stmt in fn.body:
                visitor.visit(stmt)
    return findings


# -- SPEC001 ---------------------------------------------------------------


def _callable_aliases(tree: ast.Module) -> set[str]:
    """Module-level names aliasing ``Callable[...]`` types."""
    aliases: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and any(
                isinstance(sub, ast.Name) and sub.id in _UNPICKLABLE_TYPES
                for sub in ast.walk(node.value)
            ):
                aliases.add(target.id)
    return aliases


def _dataclass_frozen(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        if isinstance(dec, ast.Call):
            name = dec.func
            if (
                isinstance(name, ast.Name)
                and name.id == "dataclass"
                or isinstance(name, ast.Attribute)
                and name.attr == "dataclass"
            ):
                for kw in dec.keywords:
                    if (
                        kw.arg == "frozen"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
    return False


def _check_specs(path: str, tree: ast.Module) -> list[Finding]:
    findings: list[Finding] = []
    forbidden = _UNPICKLABLE_TYPES | _callable_aliases(tree)
    spec_classes = set(_SPEC_BASES)
    # Same-file transitivity: a class deriving from a spec class is one.
    changed = True
    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    flagged: list[ast.ClassDef] = []
    while changed:
        changed = False
        for cls in classes:
            if cls.name in spec_classes:
                continue
            base_names = {
                b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                for b in cls.bases
            }
            if base_names & spec_classes:
                spec_classes.add(cls.name)
                flagged.append(cls)
                changed = True
    for cls in flagged:
        fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)]
        if not fields:
            continue  # field-less mixins/abstract intermediates are exempt
        if not _dataclass_frozen(cls):
            findings.append(
                Finding(
                    path,
                    cls.lineno,
                    "SPEC001",
                    f"task spec {cls.name!r} with fields must be a "
                    "@dataclass(frozen=True)",
                )
            )
        for f in fields:
            bad = sorted(
                {
                    sub.id
                    for sub in ast.walk(f.annotation)
                    if isinstance(sub, ast.Name) and sub.id in forbidden
                }
                | {
                    sub.attr
                    for sub in ast.walk(f.annotation)
                    if isinstance(sub, ast.Attribute)
                    and sub.attr in _UNPICKLABLE_TYPES
                }
            )
            if bad:
                findings.append(
                    Finding(
                        path,
                        f.lineno,
                        "SPEC001",
                        f"spec field of {cls.name!r} has unpicklable type "
                        f"{'/'.join(bad)} (specs must pickle by reference)",
                    )
                )
            if f.value is not None and any(
                isinstance(sub, ast.Lambda) for sub in ast.walk(f.value)
            ):
                findings.append(
                    Finding(
                        path,
                        f.lineno,
                        "SPEC001",
                        f"spec field of {cls.name!r} defaults to a lambda",
                    )
                )
    return findings


# -- FRAME001 --------------------------------------------------------------


def _name_tuple(node: ast.expr) -> list[str] | None:
    if isinstance(node, (ast.Tuple, ast.List)):
        names = []
        for el in node.elts:
            if isinstance(el, ast.Name):
                names.append(el.id)
            elif isinstance(el, ast.Attribute):
                names.append(el.attr)
            else:
                return None
        return names
    return None


def _module_tuple_assign(tree: ast.Module, name: str) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == name:
                return _name_tuple(node.value)
    return None


def _isinstance_targets(tree: ast.Module) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            arg = node.args[1]
            names = _name_tuple(arg)
            if names is not None:
                out.update(names)
            elif isinstance(arg, ast.Name):
                out.add(arg.id)
            elif isinstance(arg, ast.Attribute):
                out.add(arg.attr)
    return out


def _frame_registry(root: Path) -> set[str] | None:
    """Frame names registered in tests/test_rpc_frames.py, or None."""
    reg = root / "tests" / "test_rpc_frames.py"
    if not reg.exists():
        return None
    try:
        tree = ast.parse(reg.read_text())
    except SyntaxError:  # pragma: no cover - broken test file
        return None
    for node in tree.body:
        targets = (
            node.targets
            if isinstance(node, ast.Assign)
            else [node.target]
            if isinstance(node, ast.AnnAssign) and node.value is not None
            else []
        )
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "FRAME_EXAMPLES"
                and isinstance(value, ast.Dict)
            ):
                keys: set[str] = set()
                for k in value.keys:
                    if isinstance(k, ast.Constant) and isinstance(k.value, str):
                        keys.add(k.value)
                    elif isinstance(k, ast.Name):
                        keys.add(k.id)
                    elif isinstance(k, ast.Attribute):
                        keys.add(k.attr)
                return keys
    return None


def _repo_root(path: Path) -> Path | None:
    for parent in [path, *path.parents]:
        if (parent / "src").is_dir() and (parent / "tests").is_dir():
            return parent
    return None


def _check_frames(path: str, tree: ast.Module) -> list[Finding]:
    frames = _module_tuple_assign(tree, "MESSAGE_TYPES")
    if frames is None:
        return []
    findings: list[Finding] = []
    line = next(
        (
            n.lineno
            for n in tree.body
            if isinstance(n, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "MESSAGE_TYPES"
                for t in n.targets
            )
        ),
        1,
    )
    worker = _module_tuple_assign(tree, "WORKER_HANDLED")
    client = _module_tuple_assign(tree, "CLIENT_HANDLED")
    if worker is None or client is None:
        findings.append(
            Finding(
                path,
                line,
                "FRAME001",
                "module declares MESSAGE_TYPES but no WORKER_HANDLED/"
                "CLIENT_HANDLED dispatch tables",
            )
        )
        return findings
    handled = set(worker) | set(client)
    for frame in frames:
        if frame not in handled:
            findings.append(
                Finding(
                    path,
                    line,
                    "FRAME001",
                    f"frame {frame!r} is in MESSAGE_TYPES but in neither "
                    "dispatch table (unhandled frames are a protocol bug)",
                )
            )
    for name in sorted(handled - set(frames)):
        findings.append(
            Finding(
                path,
                line,
                "FRAME001",
                f"dispatch table lists {name!r} which is not a declared "
                "frame (stale entry?)",
            )
        )
    matched = _isinstance_targets(tree)
    for frame in worker:
        if frame not in matched:
            findings.append(
                Finding(
                    path,
                    line,
                    "FRAME001",
                    f"worker-handled frame {frame!r} is never matched by "
                    "an isinstance() dispatch check",
                )
            )
    root = _repo_root(Path(path).resolve())
    if root is not None:
        registry = _frame_registry(root)
        if registry is not None:
            for frame in frames:
                if frame not in registry:
                    findings.append(
                        Finding(
                            path,
                            line,
                            "FRAME001",
                            f"frame {frame!r} has no pickle-round-trip "
                            "example in tests/test_rpc_frames.py "
                            "(FRAME_EXAMPLES)",
                        )
                    )
    return findings


# -- driver ----------------------------------------------------------------


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one python source string; returns surviving findings."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                path, exc.lineno or 1, "LINT000", f"syntax error: {exc.msg}"
            )
        ]
    comments = _comments(source)
    suppressions = _suppressions(comments)

    findings: list[Finding] = []
    findings.extend(_check_locks(path, tree, comments))
    findings.extend(_check_specs(path, tree))
    findings.extend(_check_frames(path, tree))

    kept: list[Finding] = []
    for finding in findings:
        sup = suppressions.get(finding.line)
        if sup is not None and finding.rule in sup.rules and sup.justified:
            continue
        kept.append(finding)
    for sup in suppressions.values():
        if not sup.justified:
            kept.append(
                Finding(
                    path,
                    sup.line,
                    "LINT000",
                    f"suppression of {','.join(sup.rules)} lacks a "
                    "justification (`# lint: disable=RULE — why`)",
                )
            )
    return sorted(kept)


def lint_file(path: Path) -> list[Finding]:
    return lint_source(path.read_text(), str(path))


def lint_paths(paths: list[Path]) -> list[Finding]:
    """Lint every ``*.py`` under the given files/directories."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_file(f))
    return findings
