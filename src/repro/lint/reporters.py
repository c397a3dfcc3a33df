"""Render a :class:`~repro.lint.runner.LintResult` as text or JSON."""

from __future__ import annotations

import json

from repro.lint.runner import LintResult

__all__ = ["render_text", "render_json"]

#: Schema version of the JSON report; bump on breaking changes.
JSON_VERSION = 1


def render_text(result: LintResult) -> str:
    """One ``path:line:col RULE message`` line per finding plus a summary."""
    lines = [finding.render() for finding in result.findings]
    noun = "file" if result.files_checked == 1 else "files"
    if result.ok:
        summary = f"clean: {result.files_checked} {noun} checked"
    else:
        count = len(result.findings)
        summary = (
            f"{count} finding{'s' if count != 1 else ''} "
            f"in {result.files_checked} {noun}"
        )
    if result.suppressed:
        summary += f" ({len(result.suppressed)} suppressed)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (stable schema, see ``JSON_VERSION``)."""
    payload = {
        "version": JSON_VERSION,
        "files_checked": result.files_checked,
        "rules_run": result.rules_run,
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": [finding.to_dict() for finding in result.suppressed],
        "ok": result.ok,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
