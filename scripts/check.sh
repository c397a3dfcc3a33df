#!/bin/sh
# One-shot quality gate: ruff (if installed) + domain lint + tests +
# committed report artifacts + benchmarks.
#
# Usage: scripts/check.sh            (from the repository root)
# Exits non-zero on the first failing stage.

set -e

cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "==> ruff check"
    ruff check src tests benchmarks examples
else
    echo "==> ruff not installed; skipping (pip install ruff to enable)"
fi

# Domain lint: only the rules no later stage replaces -- PROTO001, EXC001,
# FAULT001, DUR001, OBS002, the THRD001 race pass, and LINT001 for stale
# suppressions.  Determinism, units and heap order are left to pytest,
# the report diffs below and the runtime contracts.
echo "==> nws-repro lint src/repro benchmarks examples (cached)"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli lint src/repro \
    benchmarks examples --cache-dir artifacts/lint-cache

echo "==> pytest"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q

echo "==> end-to-end benchmark harness self-test"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q benchmarks/e2e

echo "==> committed report artifacts match a fresh and a warm-cache default report"
report_dir=$(mktemp -d)
trap 'rm -rf "$report_dir"' EXIT
for run in fresh warm; do
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli report \
        "$report_dir/$run" --cache-dir "$report_dir/cache" --jobs 2 >/dev/null
    diff -r --exclude=cache --exclude=bench --exclude=lint-cache \
        "$report_dir/$run" artifacts
done

echo "==> observability overhead benchmark"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_obs.py

echo "==> runner speedup / cache benchmark"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_runner.py

echo "==> forecast engine speedup / parity benchmark"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_forecast.py

echo "==> fault-injection layer overhead benchmark"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_faults.py

echo "==> whole-program lint budget benchmark"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_lint.py

echo "==> profiler / telemetry-merge overhead benchmark"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_profile.py

echo "==> forecast server load / transport-parity benchmark"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_server.py

echo "==> kernel loop speedup vs the reference loop benchmark"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_sim.py

echo "==> durability recovery / publish-overhead benchmark"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_recovery.py

# Each benchmark above left a BENCH_<name>.json run record under
# artifacts/bench/.  When a committed baseline exists (copy a known-good
# artifacts/bench/ to benchmarks/baseline/ on this machine), diff
# against it and fail on regressions beyond the noise tolerance.
if [ -d benchmarks/baseline ]; then
    echo "==> perf regression diff vs benchmarks/baseline"
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli perf diff \
        benchmarks/baseline --current artifacts/bench
else
    echo "==> no benchmarks/baseline; skipping perf diff" \
         "(cp -r artifacts/bench benchmarks/baseline to enable)"
fi

echo "==> all checks passed"
