"""The committed benchmark ledger: every record states a budget its value meets.

``benchmarks/baseline/BENCH_*.json`` holds one record per gate that
asserts a counted quantity or a ratio (see ``benchmarks/conftest.py``).
A record is only worth keeping if it says what its gate asserts: a
numeric ``budget``, the ``direction`` that passes, and a ``value`` on
the passing side.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "baseline"
RECORDS = sorted(BASELINE.glob("BENCH_*.json"))


def test_ledger_is_not_empty():
    assert RECORDS, f"no BENCH_*.json under {BASELINE}"


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.stem)
def test_record_meets_its_budget(path):
    rec = json.loads(path.read_text())
    assert path.stem == f"BENCH_{rec['name']}"
    budget, value, direction = rec["budget"], rec["value"], rec["direction"]
    assert isinstance(budget, (int, float)) and math.isfinite(budget), (
        f"{path.name}: budget {budget!r} is not a number"
    )
    assert isinstance(value, (int, float)) and math.isfinite(value), (
        f"{path.name}: value {value!r} is not a number"
    )
    assert direction in ("lower", "higher"), f"{path.name}: direction {direction!r}"
    passes = value <= budget if direction == "lower" else value >= budget
    assert passes, f"{path.name}: {value} is not {direction} than budget {budget}"
