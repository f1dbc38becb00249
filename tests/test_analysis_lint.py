"""The repo lint, tested against itself: seeded-violation fixtures must
fire exactly their rule, pass fixtures must come back clean, and the
merged ``src/`` tree must lint clean end to end."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint import RULES, lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO = Path(__file__).resolve().parents[1]


def _lint_fixture(name: str):
    # The synthetic /fixtures path keeps FRAME001's cross-file registry
    # check (which resolves the repo root from the lint path) out of the
    # fixture runs — fixtures exercise one rule each, hermetically.  A
    # directory fixture is a small repo, for the census (REACH001,
    # REACH002).
    path = FIXTURES / name
    if path.is_dir():
        return lint_paths([path / "src"])
    return lint_source(path.read_text(), path=f"/fixtures/{name}")


FAIL_CASES = [
    ("lock001_fail.py", "LOCK001"),
    ("lock002_fail.py", "LOCK002"),
    ("spec001_fail.py", "SPEC001"),
    ("frame001_fail.py", "FRAME001"),
    ("lint000_fail.py", "LINT000"),
    ("reach001_fail", "REACH001"),
    ("reach002_fail", "REACH002"),
]

PASS_CASES = [
    "lock001_pass.py",
    "lock001_suppressed_pass.py",
    "lock002_pass.py",
    "spec001_pass.py",
    "frame001_pass.py",
    "reach001_pass",
    "reach002_pass",
]


@pytest.mark.parametrize("name,rule", FAIL_CASES)
def test_fail_fixture_fires_its_rule(name, rule):
    findings = _lint_fixture(name)
    assert rule in {f.rule for f in findings}, findings


@pytest.mark.parametrize("name", PASS_CASES)
def test_pass_fixture_is_clean(name):
    assert _lint_fixture(name) == []


def test_every_rule_has_a_fail_fixture():
    assert {rule for _, rule in FAIL_CASES} == set(RULES)


def test_unjustified_suppression_does_not_silence():
    findings = _lint_fixture("lint000_fail.py")
    rules = {f.rule for f in findings}
    assert {"LOCK001", "LINT000"} <= rules


def test_frame001_requires_registry_entry():
    # A frame module *inside the repo* must register every frame in
    # tests/test_rpc_frames.py::FRAME_EXAMPLES.
    source = (
        "class Zorp:\n    pass\n\n"
        "MESSAGE_TYPES = (Zorp,)\n"
        "WORKER_HANDLED = (Zorp,)\n"
        "CLIENT_HANDLED = ()\n\n"
        "def dispatch(msg):\n"
        "    return isinstance(msg, Zorp)\n"
    )
    findings = lint_source(source, path=str(REPO / "src" / "zorp_frames.py"))
    assert any(
        f.rule == "FRAME001" and "pickle-round-trip" in f.message
        for f in findings
    ), findings


def test_reach001_names_the_module_only_tests_reach():
    (finding,) = _lint_fixture("reach001_fail")
    assert finding.rule == "REACH001" and "pkg.orphan " in finding.message
    assert finding.path.endswith("orphan.py")


def test_reach002_names_each_def_only_tests_use():
    """A function and a method only a test calls, and a function only
    its own body calls, each by ``module.qualname``."""
    findings = _lint_fixture("reach002_fail")
    assert {f.rule for f in findings} == {"REACH002"}
    assert sorted(f.message.split()[0] for f in findings) == [
        "pkg.api.Engine.tune",
        "pkg.api.countdown",
        "pkg.api.only_tested",
    ]
    assert all(f.path.endswith("api.py") for f in findings)


def test_src_tree_lints_clean():
    assert lint_paths([REPO / "src"]) == []
