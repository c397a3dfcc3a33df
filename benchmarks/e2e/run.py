#!/usr/bin/env python3
"""End-to-end benchmark: the paper report and the forecast service.

    python benchmarks/e2e/run.py [--workload W]... [--seed N] [--seconds S]
                                 [--trace [0|1]] [--json OUT]

Runs the named workloads (all four by default) against the program in
this checkout, checks every output, and prints each metric with its
unit and sample count.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--trace`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace`` a separate run times the calls into each layer and the
metrics are the per-layer ones.  ``--json OUT`` appends the full record
of this invocation to ``OUT`` as one JSON line (``compare.py`` reads
those files).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import harness
from harness import WORKLOADS, WorkloadResult, log


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: config.json default_seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--json", dest="json_out", default=None, metavar="OUT",
                        help="append this invocation's full record to OUT")
    return parser.parse_args(argv)


def run_workload(workload, seed, seconds, scale, trace, work, settings, shared, probe):
    """(result, per-layer metrics) of one workload."""
    import workload_report
    import workload_serve

    if workload.startswith("report"):
        if trace:
            return workload_report.run_traced(workload, seed, work, settings["report"], shared)
        result = workload_report.run(
            workload, seed, seconds, work, settings["report"], shared, probe
        )
        return result, {}
    return workload_serve.run(workload, seed, scale, work, settings["serve"], trace, probe)


def _format(value: float) -> str:
    return f"{value:.6g}" if abs(value) >= 1e-3 or value == 0 else f"{value:.3e}"


def render(outcomes, names: list[str], units: dict, trace: bool) -> tuple[list[str], dict]:
    """The human-readable lines and the metrics map of the result line.

    Untraced, each workload reports the end-to-end ``names`` it measured;
    traced, every per-layer name, where a layer the workload never
    enters reads 0.
    """
    lines, metrics = [], {}
    for result, layers in outcomes:
        measured = {**result.metrics, **layers}
        lines.append(f"== {result.workload} (seed {result.seed}{', traced' if trace else ''}) ==")
        for name in names:
            if name not in measured and not trace:
                continue
            value = float(measured.get(name, 0.0))
            samples = result.samples.get(name)
            count = f"  n={samples}" if samples is not None else ""
            lines.append(f"  {name:<28} {_format(value):>14} {units[name]}{count}")
            key = name if len(outcomes) == 1 else f"{result.workload}/{name}"
            metrics[key] = {"value": value, "unit": units[name]}
        if not trace and "host.slowdown" in result.metrics:
            lines.append(f"  (the program's core ran {result.metrics['host.slowdown']:.3f} "
                         "times slower than the reference)")
        error_rate = result.failed / result.attempted if result.attempted else 0.0
        golden = "digests checked against golden.json" if result.golden else "digests recorded"
        lines.append(f"  attempted={result.attempted} failed={result.failed} "
                     f"error_rate={error_rate:.4f} correct={result.correct} ({golden})")
        lines += [f"  problem: {problem}" for problem in result.problems]
    return lines, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.check_checkout()
        spec = harness.benchmark_spec()
    except (harness.SetupError, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    # Threads started from here on (the load generator) inherit this.
    os.sched_setaffinity(0, harness.LOAD_CPUS)
    settings = harness.load_json("config.json")
    seed = settings["default_seed"] if args.seed is None else args.seed
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    scale = seconds / float(spec["run_seconds"])
    workloads = list(dict.fromkeys(args.workload or WORKLOADS))
    trace = bool(args.trace)
    kind = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    units = harness.units()

    invocation = harness.WORK / f"run-{os.getpid()}"
    invocation.mkdir(parents=True)
    shared: dict = {}
    outcomes = []
    try:
        with harness.CoreProbe(invocation / "probe.txt", settings["reference_pass_s"]) as probe:
            for workload in workloads:
                work = invocation / workload
                work.mkdir()
                log(f"{workload}: seed {seed}, {seconds:g} s, "
                    f"{'traced' if trace else 'untraced'}")
                start = time.perf_counter()
                try:
                    result, layers = run_workload(
                        workload, seed, seconds, scale, trace, work, settings, shared, probe
                    )
                    end = time.perf_counter()
                    result.put("host.slowdown", probe.slowdown(start, end))
                except Exception as exc:  # reported as a failed workload
                    result, layers = WorkloadResult(workload, seed), {}
                    result.attempted = result.failed = 1
                    result.fail(f"{type(exc).__name__}: {exc}")
                log(f"{workload}: done in {time.perf_counter() - start:.1f} s")
                outcomes.append((result, layers))
    finally:
        shutil.rmtree(invocation, ignore_errors=True)

    lines, metrics = render(outcomes, names, units, trace)
    print("\n".join(lines))

    if args.json_out:
        record = {
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "host": harness.host_fingerprint(),
            "results": [
                {**result.record(), "layers": layers} for result, layers in outcomes
            ],
        }
        with open(args.json_out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    correct = all(result.correct for result, _ in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r, _ in outcomes),
        "failed": sum(r.failed for r, _ in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
