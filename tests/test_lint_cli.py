"""CLI contract for ``nws-repro lint``: exit codes, text and JSON output."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint.reporters import JSON_VERSION

CLEAN_ENGINE = '''\
"""Fixture module: deterministic event push."""

import heapq
import itertools

_counter = itertools.count()


def push(heap, deadline, callback):
    heapq.heappush(heap, (deadline, next(_counter), callback))
'''

DIRTY_ENGINE = '''\
"""Fixture module: seeded DET001 violation."""

import time


def stamp():
    return time.time()
'''


def make_tree(root: Path, engine_source: str) -> Path:
    """A miniature ``repro.sim`` package so scoped rules fire."""
    pkg = root / "repro"
    (pkg / "sim").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "sim" / "__init__.py").write_text("")
    (pkg / "sim" / "engine.py").write_text(engine_source)
    return pkg


def test_clean_tree_exits_zero(tmp_path, capsys):
    pkg = make_tree(tmp_path, CLEAN_ENGINE)
    assert main(["lint", str(pkg)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_violation_exits_one_with_rule_file_line(tmp_path, capsys):
    pkg = make_tree(tmp_path, DIRTY_ENGINE)
    assert main(["lint", str(pkg)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "engine.py" in out
    # time.time() call is on line 7 of the fixture.
    assert "engine.py:7:" in out


def test_json_output_schema(tmp_path, capsys):
    pkg = make_tree(tmp_path, DIRTY_ENGINE)
    assert main(["lint", str(pkg), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == JSON_VERSION
    assert payload["ok"] is False
    assert payload["files_checked"] == 3
    assert set(payload["rules_run"]) >= {"DET001", "UNIT001", "PROTO001"}
    (finding,) = payload["findings"]
    assert finding["rule"] == "DET001"
    assert finding["path"].endswith("engine.py")
    assert finding["line"] == 7
    assert isinstance(finding["col"], int)
    assert "time.time" in finding["message"]
    assert payload["suppressed"] == []


def test_json_clean_tree(tmp_path, capsys):
    pkg = make_tree(tmp_path, CLEAN_ENGINE)
    assert main(["lint", str(pkg), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["findings"] == []


def test_suppressed_violation_exits_zero(tmp_path, capsys):
    source = DIRTY_ENGINE.replace(
        "time.time()",
        "time.time()  # lint: ignore[DET001] -- fixture: wall clock wanted",
    )
    pkg = make_tree(tmp_path, source)
    assert main(["lint", str(pkg)]) == 0
    assert "suppressed" in capsys.readouterr().out


def test_select_and_ignore(tmp_path, capsys):
    pkg = make_tree(tmp_path, DIRTY_ENGINE)
    assert main(["lint", str(pkg), "--select", "MUT001"]) == 0
    capsys.readouterr()
    assert main(["lint", str(pkg), "--ignore", "DET001"]) == 0
    capsys.readouterr()
    assert main(["lint", str(pkg), "--select", "DET001,MUT001"]) == 1


def test_unknown_rule_exits_two(tmp_path, capsys):
    pkg = make_tree(tmp_path, CLEAN_ENGINE)
    assert main(["lint", str(pkg), "--select", "NOPE999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_nonexistent_path_exits_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "missing")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "UNIT001", "PROTO001", "MUT001", "HEAP001", "EXC001"):
        assert rule_id in out


def test_lint_file_argument(tmp_path, capsys):
    pkg = make_tree(tmp_path, DIRTY_ENGINE)
    assert main(["lint", str(pkg / "sim" / "engine.py")]) == 1
    assert "DET001" in capsys.readouterr().out


def test_real_tree_acceptance(capsys, lint_cache_dir):
    """The shipped tree lints clean through the real CLI entry point."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    if not src.is_dir():  # pragma: no cover - sdist layouts
        pytest.skip("src/repro not present")
    assert main(["lint", str(src), "--cache-dir", str(lint_cache_dir)]) == 0
