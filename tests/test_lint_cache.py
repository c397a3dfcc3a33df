"""Content-addressed lint cache and the unused-suppression check."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.lint import lint_paths
from repro.lint.cache import LintCache, content_digest, file_key, run_key

DIRTY = "import json\n\n\ndef save(path, state):\n    path.write_text(json.dumps(state))\n"
CLEAN = "def save(path, state):\n    return state\n"


def make_pkg(root: Path, source: str = DIRTY) -> Path:
    pkg = root / "repro"
    (pkg / "nws").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "nws" / "__init__.py").write_text("")
    (pkg / "nws" / "store.py").write_text(source)
    return pkg


# ------------------------------------------------------------------- keys


def test_keys_change_with_content_selection_and_path():
    digest = content_digest(DIRTY)
    assert digest != content_digest(CLEAN)
    base = run_key([("a.py", digest)], None, None)
    assert base != run_key([("a.py", content_digest(CLEAN))], None, None)
    assert base != run_key([("a.py", digest)], ["DUR001"], None)
    assert base != run_key([("b.py", digest)], None, None)
    assert file_key("a.py", digest, ["DUR001"]) != file_key(
        "a.py", digest, ["DUR001", "EXC001"]
    )


# ------------------------------------------------------------- warm runs


def test_warm_run_returns_identical_result_from_cache(tmp_path):
    pkg = make_pkg(tmp_path)
    cache_dir = tmp_path / "cache"
    cold = lint_paths([pkg], cache_dir=cache_dir)
    warm = lint_paths([pkg], cache_dir=cache_dir)
    assert not cold.from_cache and warm.from_cache
    assert warm.findings == cold.findings
    assert warm.suppressed == cold.suppressed
    assert warm.files_checked == cold.files_checked
    assert warm.rules_run == cold.rules_run


def test_editing_a_file_invalidates_the_run_key(tmp_path):
    pkg = make_pkg(tmp_path)
    cache_dir = tmp_path / "cache"
    dirty = lint_paths([pkg], cache_dir=cache_dir)
    assert not dirty.ok
    (pkg / "nws" / "store.py").write_text(CLEAN)
    fixed = lint_paths([pkg], cache_dir=cache_dir)
    assert not fixed.from_cache
    assert fixed.ok
    # And the fixed tree warms up independently of the dirty entry.
    assert lint_paths([pkg], cache_dir=cache_dir).from_cache


def test_rule_selection_is_part_of_the_key(tmp_path):
    pkg = make_pkg(tmp_path)
    cache_dir = tmp_path / "cache"
    lint_paths([pkg], cache_dir=cache_dir)
    narrowed = lint_paths([pkg], select=["EXC001"], cache_dir=cache_dir)
    assert not narrowed.from_cache
    assert narrowed.ok  # DUR001 finding must not leak from the full run


def test_corrupt_cache_entry_is_a_miss_not_an_error(tmp_path):
    pkg = make_pkg(tmp_path)
    cache_dir = tmp_path / "cache"
    lint_paths([pkg], cache_dir=cache_dir)
    for entry in cache_dir.rglob("*.json"):
        entry.write_text("{not json")
    result = lint_paths([pkg], cache_dir=cache_dir)
    assert not result.from_cache
    assert [f.rule_id for f in result.findings] == ["DUR001"]


def test_cache_disabled_by_default(tmp_path):
    pkg = make_pkg(tmp_path)
    lint_paths([pkg])
    assert not (tmp_path / "cache").exists()


def test_cli_cache_dir_flag(tmp_path, capsys):
    pkg = make_pkg(tmp_path, CLEAN)
    cache_dir = tmp_path / "cache"
    assert main(["lint", str(pkg), "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()
    assert any(cache_dir.rglob("*.json"))
    assert main(["lint", str(pkg), "--cache-dir", str(cache_dir)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cache_store_and_load_round_trip(tmp_path):
    cache = LintCache(tmp_path / "c")
    cache.store("ab" + "0" * 62, {"findings": []})
    assert cache.load("ab" + "0" * 62) == {"findings": []}
    assert cache.load("cd" + "0" * 62) is None
    assert cache.hits == 1 and cache.misses == 1


# ------------------------------------------------- unused suppressions


def test_unused_suppression_reported_as_lint001(tmp_path):
    # The second input is the seeded defect: a suppression left on an
    # event-queue push that no rule flags.  Nothing but LINT001 sees it.
    sources = {
        "plain": "def save(path, state):\n"
        "    return state  # lint: ignore[DUR001] -- nothing fires here\n",
        "seeded": "def push(heap, time, callback):\n"
        "    heappush(heap, (time, next(COUNTER), callback))"
        "  # lint: ignore[HEAP001] -- counter is the tie-breaker\n",
    }
    for name, source in sources.items():
        result = lint_paths([make_pkg(tmp_path / name, source)])
        (finding,) = result.findings
        assert finding.rule_id == "LINT001"
        assert finding.line == 2
        assert "silences nothing" in finding.message


def test_used_suppression_not_reported(tmp_path):
    pkg = make_pkg(
        tmp_path,
        DIRTY.replace(
            "json.dumps(state))",
            "json.dumps(state))  # lint: ignore[DUR001] -- fixture wants a torn write",
        ),
    )
    result = lint_paths([pkg])
    assert result.ok
    assert [f.rule_id for f in result.suppressed] == ["DUR001"]


def test_unused_check_skipped_when_registry_is_narrowed(tmp_path):
    pkg = make_pkg(
        tmp_path,
        "def save(path, state):\n"
        "    return state  # lint: ignore[DUR001] -- nothing fires here\n",
    )
    assert lint_paths([pkg], select=["DUR001"]).ok
    assert lint_paths([pkg], ignore=["EXC001"]).ok


def test_docstring_suppression_examples_are_inert(tmp_path):
    # The pattern inside a docstring must neither suppress findings on
    # its line nor be flagged as an unused suppression.
    pkg = make_pkg(
        tmp_path,
        '"""Example: path.write_text(s)  # lint: ignore[DUR001] -- docs only."""\n'
        "import json\n\n\n"
        "def save(path, state):\n"
        "    path.write_text(json.dumps(state))\n",
    )
    result = lint_paths([pkg])
    assert [f.rule_id for f in result.findings] == ["DUR001"]
    assert result.suppressed == []


def test_lint001_survives_the_warm_cache(tmp_path):
    pkg = make_pkg(
        tmp_path,
        "def save(path, state):\n"
        "    return state  # lint: ignore[DUR001] -- nothing fires here\n",
    )
    cache_dir = tmp_path / "cache"
    cold = lint_paths([pkg], cache_dir=cache_dir)
    warm = lint_paths([pkg], cache_dir=cache_dir)
    assert warm.from_cache
    assert [f.rule_id for f in cold.findings] == ["LINT001"]
    assert warm.findings == cold.findings


def test_json_report_includes_lint001(tmp_path, capsys):
    pkg = make_pkg(
        tmp_path,
        "def save(path, state):\n"
        "    return state  # lint: ignore -- nothing fires here\n",
    )
    assert main(["lint", str(pkg), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["rule"] == "LINT001"
