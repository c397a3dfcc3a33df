"""Benchmark configuration.

Table/figure benchmarks regenerate the paper's artifacts at full 24-hour
(or, for Figure 3, one-week) fidelity.  Each runs the experiment once via
``benchmark.pedantic`` -- the quantity of interest is the artifact and its
shape assertions, with wall time reported as a side benefit.  The
``repro.experiments.testbed`` run cache is shared across benches in one
session, so the six-host day is simulated once, not ten times.

Gates that assert a counted quantity or a ratio also write what they
assert as a ``BENCH_<name>.json`` record under ``artifacts/bench/`` via
:func:`record`: the measured value next to the budget it was held to.
Wall-clock verdicts between two trees come only from
``benchmarks/e2e/compare.py``, over alternating pairs of runs.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

import pytest

#: Seed used by every paper-artifact benchmark (same default as the CLI).
SEED = 7

#: Run records land at the repository root regardless of pytest's CWD.
BENCH_RECORD_DIR = Path(__file__).resolve().parent.parent / "artifacts" / "bench"


@pytest.fixture(scope="session")
def seed() -> int:
    return SEED


def _git_rev() -> str:
    """The current short revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5.0, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def record(name, value, *, metric, unit, budget, direction) -> None:
    """Write ``BENCH_<name>.json``: a gate's measured value and the budget it
    asserts, ``direction`` saying which side of the budget passes.

    The write is atomic (temp file plus rename), so an interrupted run never
    leaves a truncated record; re-recording a name overwrites it.
    """
    doc = {
        "name": name,
        "metric": metric,
        "value": float(value),
        "unit": unit,
        "budget": float(budget),
        "direction": direction,
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "git_rev": _git_rev(),
        "schema": 1,
    }
    BENCH_RECORD_DIR.mkdir(parents=True, exist_ok=True)
    path = BENCH_RECORD_DIR / f"BENCH_{name}.json"
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    os.replace(tmp, path)


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark clock and return it."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
