"""Static analysis & invariant checking for the repro codebase.

Three pillars (see the module docstrings for the details):

* :mod:`repro.analysis.lint` — AST lint for the repo's concurrency and
  protocol conventions (LOCK001 guarded-by, LOCK002 lock order, SPEC001
  picklable specs, FRAME001 frame exhaustiveness) and the census of what
  only tests reach (REACH001 modules, REACH002 functions);
* :mod:`repro.analysis.plan_check` — mechanical verification of the
  paper's structural plan invariants (flatness, HO-partiality, star-join
  agreement, job-DAG shape, level programs), also available as the ``REPRO_CHECK_PLANS=1``
  runtime assertion mode;
* :mod:`repro.analysis.locks` — a dynamic lock-order witness
  (``REPRO_LOCK_CHECK=1``) validating the hierarchy declared in
  :mod:`repro.analysis.hierarchy` at runtime.

CLI: ``python -m repro.analysis src/`` lints a tree (exit 0 iff clean);
``python -m repro.analysis --plans`` runs the plan-invariant corpus
sweep (LUBM 14 + randomized synthetic BGPs).
"""

# Re-exports are lazy: engine modules (cluster, backends, service) import
# repro.analysis.locks at startup, and a plain package __init__ would
# pull the whole plan checker — and with it repro.core / repro.physical
# — into every import chain, inviting cycles.
_EXPORTS = {
    "Finding": "repro.analysis.lint",
    "lint_paths": "repro.analysis.lint",
    "lint_source": "repro.analysis.lint",
    "PlanInvariantError": "repro.analysis.plan_check",
    "check_compiled_plan": "repro.analysis.plan_check",
    "check_level_program": "repro.analysis.plan_check",
    "check_logical_plan": "repro.analysis.plan_check",
    "check_physical_plan": "repro.analysis.plan_check",
    "check_plan_space": "repro.analysis.plan_check",
    "maybe_check": "repro.analysis.plan_check",
    "plans_checked": "repro.analysis.plan_check",
    "sweep_corpus": "repro.analysis.plan_check",
}


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = [
    "Finding",
    "lint_paths",
    "lint_source",
    "PlanInvariantError",
    "check_compiled_plan",
    "check_level_program",
    "check_logical_plan",
    "check_physical_plan",
    "check_plan_space",
    "maybe_check",
    "plans_checked",
    "sweep_corpus",
]
