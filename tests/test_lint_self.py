"""Meta-test: the shipped tree stays lint-clean.

This is the tier-1 regression gate for the invariants the linter
encodes: a PR that reintroduces wall clocks into the simulator, drops
``__slots__`` from a forecaster, or pushes an unstable heap entry fails
here with the exact file/line/rule in the assertion message.
"""

from __future__ import annotations

import pytest

from repro.lint import all_rules, lint_paths

from tests.conftest import SRC

pytestmark = pytest.mark.skipif(
    not SRC.is_dir(), reason="src/repro layout not present"
)


def test_src_tree_is_lint_clean(src_lint_result):
    result = src_lint_result
    report = "\n".join(finding.render() for finding in result.findings)
    assert result.ok, f"lint regressions in src/repro:\n{report}"
    assert result.files_checked > 50  # the walk really covered the tree


def test_all_domain_rules_ran(src_lint_result):
    assert set(src_lint_result.rules_run) >= {
        "DET001",
        "UNIT001",
        "PROTO001",
        "MUT001",
        "HEAP001",
        "EXC001",
        "DET002",
        "UNIT002",
        "THRD001",
    }


def test_service_layer_clean_under_race_detector():
    """Acceptance gate: the packages the threaded NWS server will touch
    carry no unsynchronized shared-state writes."""
    result = lint_paths(
        [SRC / "runner", SRC / "obs", SRC / "nws"], select=["THRD001"]
    )
    report = "\n".join(finding.render() for finding in result.findings)
    assert result.ok, f"THRD001 regressions:\n{report}"
    assert result.files_checked > 10


def test_no_stale_suppressions_in_tree(src_lint_result):
    """Every suppression in the tree silences a real finding (LINT001)."""
    result = src_lint_result
    stale = [f for f in result.findings if f.rule_id == "LINT001"]
    assert not stale, "\n".join(f.render() for f in stale)
    # The tree's deliberate suppressions are all exercised.
    assert {f.rule_id for f in result.suppressed} == {
        "DET001",
        "EXC001",
        "THRD001",
    }


def test_every_suppression_carries_a_justification():
    """``# lint: ignore[...]`` must say *why* (a trailing comment)."""
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if "lint: ignore" not in line:
                continue
            _, _, tail = line.partition("lint: ignore")
            tail = tail.partition("]")[2] if "[" in tail else tail
            assert tail.strip(), (
                f"{path}:{lineno}: suppression without a justification comment"
            )


def test_registry_metadata_complete():
    for rule in all_rules():
        assert rule.rule_id and rule.title and rule.rationale, rule
