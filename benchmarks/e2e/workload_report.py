"""The report workloads: regenerate the paper report in fresh interpreters.

``report-cold`` runs ``nws-repro report``, at the trace lengths
``config.json`` gives, against an empty result cache, so every host is
simulated and stored; ``report-warm`` runs the same command against a
filled cache, so nothing is simulated and the outputs must be
byte-identical to the run that filled it.  Times are in reference
seconds (``harness.CoreProbe``).
"""

from __future__ import annotations

import csv
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

import spans
from harness import (
    ALL_CPUS,
    HERE,
    PROGRAM_CPUS,
    CoreProbe,
    WorkloadResult,
    golden_check,
    log,
    run_child,
    sha256_file,
)

#: What ``report`` imports before it does any work: the set-up a user
#: pays on every invocation.
SETUP_IMPORTS = (
    "import repro.cli, repro.experiments, repro.runner, repro.report.export"
)

HOSTS = ("thing2", "thing1", "conundrum", "beowulf", "gremlin", "kongo")
FIGURE_HOSTS = ("thing1", "thing2")
ARTIFACTS = sorted(
    ["REPORT.txt"]
    + [f"table{n}.{ext}" for n in range(1, 7) for ext in ("csv", "txt")]
    + [f"figure{n}.txt" for n in range(1, 5)]
    + [f"figure{n}_{h}.csv" for n in range(1, 5) for h in FIGURE_HOSTS]
)

_CELL = re.compile(r"^\*?(nan|-?\d+\.\d+)%(?: \((nan|-?\d+\.\d+)%\))?$")


def report_argv(out: Path, seed: int, cache: Path, report_args) -> list[str]:
    return [
        sys.executable, "-m", "repro.cli", "report", str(out),
        "--seed", str(seed), "--cache-dir", str(cache), *report_args,
    ]


def artifact_digests(out: Path) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(out.iterdir()) if p.is_file()}


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _acf(x: np.ndarray, nlags: int) -> np.ndarray:
    """Biased sample autocorrelation by direct sums (independent of the
    program's FFT implementation)."""
    centered = x - x.mean()
    denom = float(np.dot(centered, centered))
    out = np.zeros(nlags + 1)
    for k in range(min(nlags, x.size - 1) + 1):
        out[k] = np.dot(centered[: x.size - k], centered[k:]) / denom
    return out


def check_artifacts(out: Path, result: WorkloadResult) -> None:
    """Checks that hold for the report of any seed.

    Every artifact exists; each table has one row per testbed host with
    percentage cells; Table 2's parenthesized measurement errors equal
    Table 1; and Figure 2's autocorrelations match Figure 1's series.
    """
    missing = [name for name in ARTIFACTS if not (out / name).is_file()]
    if missing:
        result.fail(f"report is missing {missing}")
        return
    tables = {n: _rows(out / f"table{n}.csv") for n in range(1, 7)}
    for n, rows in tables.items():
        if tuple(r[0] for r in rows[1:]) != HOSTS:
            result.fail(f"table{n}.csv rows are not the testbed hosts")
            return
    for n in (1, 2, 3, 5, 6):
        for row in tables[n][1:]:
            if not all(_CELL.match(cell) for cell in row[1:]):
                result.fail(f"table{n}.csv has a malformed cell in {row}")
                return
    for row1, row2 in zip(tables[1][1:], tables[2][1:]):
        measured = [_CELL.match(cell).group(2) + "%" for cell in row2[1:]]
        if measured != row1[1:]:
            result.fail(f"table2 measurement errors differ from table1 for {row1[0]}")
    for host in FIGURE_HOSTS:
        series = np.array(
            [float(r[1]) for r in _rows(out / f"figure1_{host}.csv")[1:]]
        )
        reported = np.array(
            [float(r[1]) for r in _rows(out / f"figure2_{host}.csv")[1:]]
        )
        expected = _acf(series, reported.size - 1)
        if not np.allclose(reported, expected, rtol=0.0, atol=1e-9):
            result.fail(f"figure2 autocorrelations for {host} do not match figure1")


def _setup(result: WorkloadResult, work: Path, imports: int, probe: CoreProbe) -> None:
    intervals = []
    for i in range(imports):
        child = run_child([sys.executable, "-c", SETUP_IMPORTS], work / f"import{i}.log")
        result.attempted += 1
        if child.returncode != 0:
            result.failed += 1
            result.fail(f"importing the report modules exited {child.returncode}")
        intervals.append((child.start, child.end))
    result.put_reference("setup_s", intervals, probe)


def _report(result: WorkloadResult, argv: list[str], log_path: Path, cpus=PROGRAM_CPUS):
    child = run_child(argv, log_path, cpus)
    result.attempted += 1
    if child.returncode != 0:
        result.failed += 1
        tail = log_path.read_text(errors="replace")[-400:]
        result.fail(f"report exited {child.returncode}: {tail}")
    return child


def _reference(
    result: WorkloadResult, seed: int, work: Path, shared: dict, report_args
) -> tuple[Path, dict]:
    """A filled cache for ``seed`` and the outputs of the run that filled it."""
    key = (seed, *report_args)
    if key in shared:
        return shared[key]
    cache, out = work / "cache", work / "fill"
    log(f"  filling the result cache (untimed, seed {seed})")
    _report(result, report_argv(out, seed, cache, [*report_args, "--jobs", "2"]),
            work / "fill.log", ALL_CPUS)
    shared[key] = (cache, artifact_digests(out))
    return shared[key]


def run(
    workload: str,
    seed: int,
    seconds: float,
    work: Path,
    settings: dict,
    shared: dict,
    probe: CoreProbe,
) -> WorkloadResult:
    """One untimed-set-up, timed-report run of ``report-cold`` or
    ``report-warm``.

    ``shared`` carries a filled cache from ``report-cold`` to a
    ``report-warm`` at the same seed within one invocation.
    """
    result = WorkloadResult(workload, seed)
    report_args = settings["args"]
    _setup(result, work, settings["setup_imports"], probe)
    cold = workload == "report-cold"
    if not cold:
        cache, reference = _reference(result, seed, work, shared, report_args)
    runs, outs = [], []
    measured = 0.0
    while True:
        i = len(runs)
        out = work / f"out{i}"
        run_cache = work / f"cache{i}" if cold else cache
        child = _report(result, report_argv(out, seed, run_cache, report_args),
                        work / f"run{i}.log")
        runs.append(child)
        outs.append(out)
        measured += child.wall
        log(f"  {workload} run {i}: {child.wall:.3f} s")
        if child.returncode != 0:
            break
        enough = len(runs) >= (1 if cold else settings["warm_min_runs"])
        if enough and measured + child.wall > seconds:
            break
    result.put_reference("wall_s", [(r.start, r.end) for r in runs], probe)
    result.put_median("peak_rss_mb", [r.rss_mb for r in runs])
    if result.failed:
        return result
    digests = artifact_digests(outs[0])
    if cold:
        shared[(seed, *report_args)] = (work / "cache0", digests)
        reference = digests
    for out in outs:
        if artifact_digests(out) != reference:
            result.fail(f"{out.name} differs from the reference report")
    check_artifacts(outs[0], result)
    golden_check(result, "report", seed, digests)
    return result


def run_traced(
    workload: str, seed: int, work: Path, settings: dict, shared: dict
) -> tuple[WorkloadResult, dict]:
    """One in-process report under the layer wrappers; returns the
    result and the per-layer metrics."""
    result = WorkloadResult(workload, seed)
    report_args = settings["args"]
    if workload == "report-cold":
        cache = work / "traced-cache"
    else:
        cache, _ = _reference(result, seed, work, shared, report_args)
    out, trace = work / "traced", work / "spans.json"
    argv = [
        sys.executable, str(HERE / "spans.py"), str(trace), "--",
        *report_argv(out, seed, cache, report_args)[3:],
    ]
    start = time.perf_counter()
    _report(result, argv, work / "traced.log")
    log(f"  {workload} traced run: {time.perf_counter() - start:.3f} s")
    if result.failed:
        return result, {}
    check_artifacts(out, result)
    with open(trace) as fh:
        layers = spans.layer_metrics(json.load(fh))
    return result, layers
