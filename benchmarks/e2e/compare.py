#!/usr/bin/env python3
"""Compare two sets of benchmark runs by the rules of the benchmark.

    python benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --json`` appended, one line per
invocation, untraced.  The i-th run of each file form a pair, so run the
two sides alternately (parent, change, change, parent, ...) with the same
seeds.  At least 10 pairs are needed.

For every end-to-end metric of ``BENCHMARK.json`` and every workload,
one row gives each side's median and quartiles, the change of the
median, how many pairs the change won, and a verdict:

* ``gain``: the change won at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  spread, with no more failed operations than the parent;
* ``unresolved``: a side's quartile spread exceeds the metric's bound,
  unless every run of the change reads better than every run of the
  parent;
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``no change`` otherwise.

Exits 1 when any row is a regression, 2 on unusable input.
"""

from __future__ import annotations

import json
import sys

from harness import benchmark_spec, quartiles

MIN_PAIRS = 10


def load_runs(path: str) -> dict[str, list[dict]]:
    """workload -> list of untraced result records, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for result in record["results"]:
                runs.setdefault(result["workload"], []).append(result)
    return runs


def verdict(parent, change, bound: float, lower_better: bool,
            more_failures: bool) -> tuple[str, dict]:
    """The row for one (metric, workload): statistics and a verdict."""
    q1a, meda, q3a = quartiles(parent)
    q1b, medb, q3b = quartiles(change)
    sign = 1.0 if lower_better else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0)
    worse = sign * (medb - meda) / meda if meda else 0.0
    spread = max((q3a - q1a) / meda if meda else 0.0, (q3b - q1b) / medb if medb else 0.0)
    every_better = (max(change) < min(parent)) if lower_better else (min(change) > max(parent))
    stats = {
        "parent": (meda, q1a, q3a),
        "change": (medb, q1b, q3b),
        "change_share": (medb - meda) / meda if meda else 0.0,
        "wins": wins,
        "pairs": len(parent),
        "spread": spread,
    }
    if (
        wins >= 0.9 * len(parent)
        and abs(medb - meda) > (q3a - q1a)
        and worse < 0
        and not more_failures
    ):
        return "gain", stats
    if spread > bound and not every_better:
        return "unresolved", stats
    if worse > bound:
        return "regression", stats
    return "no change", stats


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    metrics = benchmark_spec()["end_to_end"]
    rows = []
    status = 0
    for workload in sorted(set(parent) & set(change)):
        a_runs, b_runs = parent[workload], change[workload]
        pairs = min(len(a_runs), len(b_runs))
        if pairs < MIN_PAIRS:
            print(f"{workload}: {pairs} pairs, need at least {MIN_PAIRS}", file=sys.stderr)
            return 2
        a_runs, b_runs = a_runs[:pairs], b_runs[:pairs]
        failed_a = sum(r["failed"] for r in a_runs)
        failed_b = sum(r["failed"] for r in b_runs)
        incorrect = sum(not r["correct"] for r in a_runs + b_runs)
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name] for r in a_runs]
            b = [r["metrics"][name] for r in b_runs]
            result, stats = verdict(
                a, b, metric["bound"], metric["better"] == "lower", failed_b > failed_a
            )
            if result == "regression":
                status = 1
            rows.append((workload, name, metric, result, stats))
        if failed_a or failed_b or incorrect:
            print(f"{workload}: failed operations parent={failed_a} change={failed_b}, "
                  f"incorrect runs={incorrect}")
    if not rows:
        print("no workload appears in both files", file=sys.stderr)
        return 2
    header = (f"{'workload':<13} {'metric':<12} {'parent median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'change':>8} {'wins':>6} "
              f"{'spread':>7} {'bound':>6}  verdict")
    print(header)
    for workload, name, metric, result, s in rows:
        sides = [f"{m:.4g} [{q1:.4g}, {q3:.4g}]" for m, q1, q3 in (s["parent"], s["change"])]
        wins = f"{s['wins']}/{s['pairs']}"
        print(
            f"{workload:<13} {name:<12} {sides[0]:>30} {sides[1]:>30} "
            f"{100 * s['change_share']:>+7.2f}% {wins:>6} {s['spread']:>7.3f} "
            f"{metric['bound']:>6.2f}  {result}"
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
