"""``repro.lint``: the repo's contracts as machine-checked AST rules.

Six PRs of optimisation left correctness resting on conventions — one
environment-read site, deterministic cache keys, runtime-only knobs out of
job keys, registry-only dispatch, a layered import DAG, factory-built empty
reports.  This package turns each of those into a rule (`RL001`..`RL003`,
`RL005`..`RL007`, plus the `RL000` suppression-hygiene meta-rule)
over a single shared parse per file, runnable as ``python -m repro.lint``
or ``smash-repro lint`` and enforced by tier-1 (``tests/test_lint_repo.py``)
and CI.  DESIGN.md section 14 maps every rule to its contract and the PR
that motivated it.

The package is stdlib-only and imports nothing from the rest of the repo
(it sits at layer 0 of the very DAG it enforces), so it can lint a broken
checkout that no longer imports.
"""

from repro.lint.core import (
    LintResult,
    Rule,
    SourceFile,
    Suppression,
    Violation,
    lint_paths,
    lint_source,
    module_name_for,
)
from repro.lint.registry import all_rules, rule_ids, select_rules

__all__ = [
    "LintResult",
    "Rule",
    "SourceFile",
    "Suppression",
    "Violation",
    "all_rules",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "rule_ids",
    "select_rules",
]
