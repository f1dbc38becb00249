"""Type-annotation ratchet for the strict modules declared in setup.cfg.

mypy is not part of the runtime environment, so this test enforces the
part of ``--strict`` that matters most — complete signatures
(``disallow_untyped_defs``/``disallow_incomplete_defs``) — with a pure
AST sweep.  When mypy *is* available (CI installs it), the full
configured check runs too.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: modules under the strict ratchet (mirrors the setup.cfg sections)
STRICT_GLOBS = [
    "src/repro/core/*.py",
    "src/repro/sparql/ast.py",
    "src/repro/analysis/*.py",
    "src/repro/service/patch.py",
    "src/repro/cluster/frames.py",
    "src/repro/cluster/fleet.py",
]


def _strict_files() -> list[Path]:
    files: list[Path] = []
    for pattern in STRICT_GLOBS:
        files.extend(sorted(REPO.glob(pattern)))
    assert files, "strict module globs matched nothing"
    return files


def _incomplete_defs(path: Path) -> list[str]:
    out: list[str] = []
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        names = args.posonlyargs + args.args + args.kwonlyargs
        missing = [
            a.arg
            for a in names
            if a.annotation is None and a.arg not in ("self", "cls")
        ]
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        if node.returns is None or missing:
            what = []
            if node.returns is None:
                what.append("return")
            what.extend(missing)
            out.append(
                f"{path.relative_to(REPO)}:{node.lineno} {node.name}"
                f" (unannotated: {', '.join(what)})"
            )
    return out


def test_strict_modules_have_complete_signatures():
    problems: list[str] = []
    for path in _strict_files():
        problems.extend(_incomplete_defs(path))
    assert not problems, "\n".join(problems)


@pytest.mark.skipif(
    shutil.which("mypy") is None, reason="mypy not installed (CI-only gate)"
)
def test_mypy_strict_ratchet():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "-p", "repro"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
