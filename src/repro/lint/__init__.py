"""``repro.lint``: domain-aware static analysis for this reproduction.

The test suite checks *results*; this package checks *invariants the
results silently depend on*: bit-reproducible simulations, fraction-typed
availability values, and the exact streaming-forecaster protocol of
paper Section 3.  See :mod:`repro.lint.rules` for the rule catalogue and
:mod:`repro.lint.contracts` for the runtime counterparts.  Once callers
have moved to a new entry point, the old one is deleted rather than
policed by a rule.

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
from repro.lint.contracts import (
    ContractError,
    checked_fraction,
    contracts_enabled,
    ensure_fraction,
)
from repro.lint.findings import Finding
from repro.lint.registry import ModuleContext, Rule, all_rules, register, rule_ids
from repro.lint.reporters import render_json, render_sarif, render_text
from repro.lint.runner import (
    LintResult,
    UnknownRuleError,
    check_source,
    lint_paths,
    module_name_for,
)
from repro.lint.semantic import Project, ProjectRule, project_from_sources

__all__ = [
    "ContractError",
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
    "checked_fraction",
    "contracts_enabled",
    "ensure_fraction",
    "lint_paths",
    "module_name_for",
    "project_from_sources",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_ids",
]
