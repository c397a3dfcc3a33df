"""Reporter edge cases: SARIF output, odd findings, empty runs."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.lint import Finding, LintResult, lint_paths, rule_ids
from repro.lint.reporters import (
    SARIF_VERSION,
    render_json,
    render_sarif,
    render_text,
)


def _result(findings=(), suppressed=(), files=1):
    return LintResult(
        findings=list(findings),
        suppressed=list(suppressed),
        files_checked=files,
        rules_run=rule_ids(),
    )


def test_sarif_is_valid_schema_shaped_json():
    finding = Finding("src/x.py", 7, 4, "DET001", "wall-clock call")
    payload = json.loads(render_sarif(_result([finding])))
    assert payload["version"] == SARIF_VERSION
    (run,) = payload["runs"]
    (result,) = run["results"]
    assert result["ruleId"] == "DET001"
    assert result["message"]["text"] == "wall-clock call"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/x.py"
    # SARIF is 1-based in both axes; findings carry 0-based columns.
    assert location["region"] == {"startLine": 7, "startColumn": 5}


def test_sarif_rule_metadata_covers_registry_and_pseudo_rules():
    payload = json.loads(render_sarif(_result()))
    listed = {rule["id"] for rule in payload["runs"][0]["tool"]["driver"]["rules"]}
    assert listed >= set(rule_ids())
    assert {"LINT000", "LINT001"} <= listed


def test_sarif_finding_without_line_number_omits_region():
    finding = Finding("src/x.py", 0, 0, "LINT000", "cannot lint file")
    payload = json.loads(render_sarif(_result([finding])))
    location = payload["runs"][0]["results"][0]["locations"][0]["physicalLocation"]
    assert "region" not in location


def test_sarif_marks_suppressed_findings_in_source():
    kept = Finding("src/x.py", 3, 0, "DET001", "kept")
    silenced = Finding("src/x.py", 9, 0, "UNIT001", "silenced")
    payload = json.loads(render_sarif(_result([kept], [silenced])))
    results = payload["runs"][0]["results"]
    by_rule = {r["ruleId"]: r for r in results}
    assert "suppressions" not in by_rule["DET001"]
    assert by_rule["UNIT001"]["suppressions"] == [{"kind": "inSource"}]


def test_reporters_render_multiple_rules_on_same_line():
    findings = [
        Finding("src/x.py", 5, 0, "DET001", "first"),
        Finding("src/x.py", 5, 8, "UNIT001", "second"),
    ]
    text = render_text(_result(findings))
    assert "src/x.py:5:0 DET001 first" in text
    assert "src/x.py:5:8 UNIT001 second" in text
    sarif = json.loads(render_sarif(_result(findings)))
    assert len(sarif["runs"][0]["results"]) == 2
    payload = json.loads(render_json(_result(findings)))
    assert len(payload["findings"]) == 2


def test_empty_project_run_renders_cleanly(tmp_path, capsys):
    empty = tmp_path / "nothing_here"
    empty.mkdir()
    result = lint_paths([empty])
    assert result.ok and result.files_checked == 0
    assert "clean: 0 files checked" in render_text(result)
    assert json.loads(render_sarif(result))["runs"][0]["results"] == []
    assert main(["lint", str(empty), "--format", "sarif"]) == 0
    assert json.loads(capsys.readouterr().out)["version"] == SARIF_VERSION


def test_cli_sarif_round_trip_on_violation(tmp_path, capsys):
    pkg = tmp_path / "repro"
    (pkg / "sim").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "sim" / "__init__.py").write_text("")
    (pkg / "sim" / "engine.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n"
    )
    assert main(["lint", str(pkg), "--format", "sarif"]) == 1
    payload = json.loads(capsys.readouterr().out)
    (result,) = payload["runs"][0]["results"]
    assert result["ruleId"] == "DET001"
    assert result["locations"][0]["physicalLocation"]["artifactLocation"][
        "uri"
    ].endswith("engine.py")


def test_real_tree_sarif_acceptance(capsys, lint_cache_dir):
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    if not src.is_dir():  # pragma: no cover - sdist layouts
        import pytest

        pytest.skip("src/repro not present")
    assert (
        main(["lint", str(src), "--format", "sarif", "--cache-dir", str(lint_cache_dir)])
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    # The tree's only findings are the two justified suppressions.
    results = payload["runs"][0]["results"]
    assert all(r.get("suppressions") for r in results)
