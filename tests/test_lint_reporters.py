"""Reporter edge cases: odd findings, empty runs."""

from __future__ import annotations

import json

from repro.cli import main
from repro.lint import Finding, LintResult, lint_paths, rule_ids
from repro.lint.reporters import JSON_VERSION, render_json, render_text


def _result(findings=(), suppressed=(), files=1):
    return LintResult(
        findings=list(findings),
        suppressed=list(suppressed),
        files_checked=files,
        rules_run=rule_ids(),
    )


def test_reporters_render_multiple_rules_on_same_line():
    findings = [
        Finding("src/x.py", 5, 0, "DUR001", "first"),
        Finding("src/x.py", 5, 8, "EXC001", "second"),
    ]
    text = render_text(_result(findings))
    assert "src/x.py:5:0 DUR001 first" in text
    assert "src/x.py:5:8 EXC001 second" in text
    payload = json.loads(render_json(_result(findings)))
    assert len(payload["findings"]) == 2


def test_empty_project_run_renders_cleanly(tmp_path, capsys):
    empty = tmp_path / "nothing_here"
    empty.mkdir()
    result = lint_paths([empty])
    assert result.ok and result.files_checked == 0
    assert "clean: 0 files checked" in render_text(result)
    assert json.loads(render_json(result))["findings"] == []
    assert main(["lint", str(empty), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["version"] == JSON_VERSION
