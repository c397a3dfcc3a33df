"""CLI contract for ``nws-repro lint``: exit codes, text and JSON output."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint.reporters import JSON_VERSION

CLEAN_STORE = '''\
"""Fixture module: persistence through the durable helpers."""

from repro.nws.durable import atomic_replace_json


def save(path, state):
    atomic_replace_json(path, state)
'''

DIRTY_STORE = '''\
"""Fixture module: seeded DUR001 violation."""

import json


def save(path, state):
    path.write_text(json.dumps(state))
'''


def make_tree(root: Path, store_source: str) -> Path:
    """A miniature ``repro.nws`` package so scoped rules fire."""
    pkg = root / "repro"
    (pkg / "nws").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "nws" / "__init__.py").write_text("")
    (pkg / "nws" / "store.py").write_text(store_source)
    return pkg


def test_clean_tree_exits_zero(tmp_path, capsys):
    pkg = make_tree(tmp_path, CLEAN_STORE)
    assert main(["lint", str(pkg)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_violation_exits_one_with_rule_file_line(tmp_path, capsys):
    pkg = make_tree(tmp_path, DIRTY_STORE)
    assert main(["lint", str(pkg)]) == 1
    out = capsys.readouterr().out
    assert "DUR001" in out
    assert "store.py" in out
    # The write_text() call is on line 7 of the fixture.
    assert "store.py:7:" in out


def test_json_output_schema(tmp_path, capsys):
    pkg = make_tree(tmp_path, DIRTY_STORE)
    assert main(["lint", str(pkg), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == JSON_VERSION
    assert payload["ok"] is False
    assert payload["files_checked"] == 3
    assert set(payload["rules_run"]) >= {"DUR001", "EXC001", "PROTO001"}
    (finding,) = payload["findings"]
    assert finding["rule"] == "DUR001"
    assert finding["path"].endswith("store.py")
    assert finding["line"] == 7
    assert isinstance(finding["col"], int)
    assert "write_text" in finding["message"]
    assert payload["suppressed"] == []


def test_json_clean_tree(tmp_path, capsys):
    pkg = make_tree(tmp_path, CLEAN_STORE)
    assert main(["lint", str(pkg), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["findings"] == []


def test_suppressed_violation_exits_zero(tmp_path, capsys):
    source = DIRTY_STORE.replace(
        "path.write_text(json.dumps(state))",
        "path.write_text(json.dumps(state))  # lint: ignore[DUR001] -- fixture: torn write wanted",
    )
    pkg = make_tree(tmp_path, source)
    assert main(["lint", str(pkg)]) == 0
    assert "suppressed" in capsys.readouterr().out


def test_select_and_ignore(tmp_path, capsys):
    pkg = make_tree(tmp_path, DIRTY_STORE)
    assert main(["lint", str(pkg), "--select", "EXC001"]) == 0
    capsys.readouterr()
    assert main(["lint", str(pkg), "--ignore", "DUR001"]) == 0
    capsys.readouterr()
    assert main(["lint", str(pkg), "--select", "DUR001,EXC001"]) == 1


def test_unknown_rule_exits_two(tmp_path, capsys):
    pkg = make_tree(tmp_path, CLEAN_STORE)
    assert main(["lint", str(pkg), "--select", "NOPE999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_nonexistent_path_exits_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "missing")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("PROTO001", "EXC001", "OBS002", "DUR001", "THRD001"):
        assert rule_id in out


def test_lint_file_argument(tmp_path, capsys):
    pkg = make_tree(tmp_path, DIRTY_STORE)
    assert main(["lint", str(pkg / "nws" / "store.py")]) == 1
    assert "DUR001" in capsys.readouterr().out


def test_real_tree_acceptance(capsys, lint_cache_dir):
    """The shipped tree lints clean through the real CLI entry point."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    if not src.is_dir():  # pragma: no cover - sdist layouts
        pytest.skip("src/repro not present")
    assert main(["lint", str(src), "--cache-dir", str(lint_cache_dir)]) == 0
