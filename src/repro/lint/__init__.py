"""``repro.lint``: domain-aware static analysis for this reproduction.

The test suite, the report artifact diff and the runtime contracts
(:mod:`repro.contracts`) check *results*; this package keeps only the
rules for defects none of them sees: forecasters that grow a per-instance
``__dict__``, swallowed service errors, undocumented metrics, journal
writes that tear on a crash, unlocked writes on thread-reachable paths,
and stale suppressions.  A rule whose seeded defect another gate already
catches is deleted rather than kept as a second opinion.  See
:mod:`repro.lint.rules` and :mod:`repro.lint.semantic` for the rule
catalogue.  Once callers have moved to a new entry point, the old one is
deleted rather than policed by a rule.

Programmatic use::

    from repro.lint import lint_paths
    result = lint_paths(["src/repro"])
    assert result.ok, "\\n".join(f.render() for f in result.findings)

Command line::

    nws-repro lint src/repro --format json
"""

from repro.lint import rules as _rules  # noqa: F401 -- registers the rules
from repro.lint import semantic as _semantic  # noqa: F401 -- registers project rules
from repro.lint.cache import LintCache
from repro.lint.findings import Finding
from repro.lint.registry import ModuleContext, Rule, all_rules, register, rule_ids
from repro.lint.reporters import render_json, render_text
from repro.lint.runner import (
    LintResult,
    UnknownRuleError,
    check_source,
    lint_paths,
    module_name_for,
)
from repro.lint.semantic import Project, ProjectRule, project_from_sources

__all__ = [
    "Finding",
    "LintCache",
    "LintResult",
    "ModuleContext",
    "Project",
    "ProjectRule",
    "Rule",
    "UnknownRuleError",
    "all_rules",
    "check_source",
    "lint_paths",
    "module_name_for",
    "project_from_sources",
    "register",
    "render_json",
    "render_text",
    "rule_ids",
]
