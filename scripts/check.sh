#!/bin/sh
# One-shot quality gate: ruff (if installed) + tests + committed report
# artifacts + benchmarks.
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
    diff -r --exclude=cache --exclude=bench \
        "$report_dir/$run" artifacts
done

echo "==> observability overhead benchmark"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_obs.py

echo "==> runner pool-overhead / cache benchmark"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_runner.py

echo "==> forecast engine speedup / streaming opcode-count benchmark"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_forecast.py

echo "==> fault-injection layer: untouched hosts get no injector"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_faults.py

echo "==> forecast server load / transport-parity benchmark"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_server.py

echo "==> kernel loop speedup vs the reference loop benchmark"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_sim.py

echo "==> durability recovery / publish-overhead benchmark"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q -p no:cacheprovider \
    --benchmark-disable-gc benchmarks/bench_recovery.py

echo "==> all checks passed"
