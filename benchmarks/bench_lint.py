"""Benchmark guard: whole-program lint stays under the CI budget.

The lint pass runs on every ``scripts/check.sh`` invocation and inside
tier-1 via ``tests/test_lint_self.py``; this bench keeps it cheap enough
to stay there.  Two budgets:

* a **cold** full-tree run -- the per-file rules (PROTO001, EXC001,
  FAULT001, DUR001, OBS002) plus the THRD001 whole-program pass (symbol
  table, call graph, race reachability) -- must finish in < 10 s;
* a **warm** run against the content-addressed cache must finish in
  < 1 s, which is what makes the check.sh lint stage near-free when
  nothing changed.
"""

from __future__ import annotations

import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.lint import lint_paths

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Wall-time budget for one cold full-tree pass, in seconds.
BUDGET_SECONDS = 10.0

#: Wall-time budget for a warm (cache-hit) pass, in seconds.
CACHED_BUDGET_SECONDS = 1.0


def test_bench_full_tree_lint(benchmark):
    result = run_once(benchmark, lint_paths, [SRC])

    assert result.ok, [finding.render() for finding in result.findings]
    assert result.files_checked > 50
    assert benchmark.stats.stats.max < BUDGET_SECONDS, (
        f"full-tree lint took {benchmark.stats.stats.max:.2f}s, "
        f"budget is {BUDGET_SECONDS}s"
    )


def test_bench_warm_cache_lint(benchmark, tmp_path):
    cache_dir = tmp_path / "lint-cache"
    cold = lint_paths([SRC], cache_dir=cache_dir)
    assert cold.ok and not cold.from_cache

    start = time.perf_counter()
    warm = run_once(benchmark, lint_paths, [SRC], cache_dir=cache_dir)
    elapsed = time.perf_counter() - start

    assert warm.from_cache, "second run must be served from the cache"
    assert warm.findings == cold.findings
    assert warm.files_checked == cold.files_checked
    assert benchmark.stats.stats.max < CACHED_BUDGET_SECONDS, (
        f"warm lint took {benchmark.stats.stats.max:.2f}s "
        f"(outer wall {elapsed:.2f}s), budget is {CACHED_BUDGET_SECONDS}s"
    )
