"""Shared pieces of the end-to-end benchmark: paths, statistics, child
processes, digests and the result record every workload returns."""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The checkout the benchmark runs against (two levels above this file).
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Scratch space for state directories, caches and report outputs.
WORK = HERE / ".work"

WORKLOADS = ("report-cold", "report-warm", "serve-ingest", "serve-query")


def _split_cpus() -> tuple[set[int], set[int], set[int]]:
    cpus = set(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus, cpus
    first = min(cpus)
    return {first}, cpus - {first}, cpus


#: The program runs on one core and the benchmark (the load generator)
#: on the others, except in closed-loop phases (see README, "Pinned
#: cores").
PROGRAM_CPUS, LOAD_CPUS, ALL_CPUS = _split_cpus()


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program to measure)."""


def check_checkout() -> None:
    """Fail fast when the program's sources are not beside the benchmark."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise SetupError(
            f"no program under {SRC}: run the benchmark from a full checkout"
        )


def load_json(name: str) -> dict:
    with open(HERE / name) as fh:
        return json.load(fh)


def benchmark_spec() -> dict:
    """``BENCHMARK.json`` at the checkout root."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def units() -> dict[str, str]:
    """Metric name -> unit, for every metric ``BENCHMARK.json`` declares."""
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def child_env() -> dict[str, str]:
    """Environment for program processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


# -------------------------------------------------------------- statistics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[rank]


#: Percentiles the tail helper may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least 10 of ``n`` samples
    beyond it, or None when even the median has fewer."""
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            return q
    return None


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics`` gives
    them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------- processes


@dataclass
class ChildRun:
    start: float
    end: float
    rss_mb: float
    returncode: int

    @property
    def wall(self) -> float:
        return self.end - self.start


def spawn(argv: list[str], out, cpus: set[int] = PROGRAM_CPUS) -> subprocess.Popen:
    """Start a process on ``cpus``, output to the file ``out``.

    The affinity is set before the child's interpreter has started any
    thread, so every thread and process it creates inherits it.
    """
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=out, stderr=subprocess.STDOUT
    )
    try:
        os.sched_setaffinity(proc.pid, cpus)
    except ProcessLookupError:
        pass  # already gone; its exit status tells the caller why
    return proc


def run_child(
    argv: list[str], log: Path, cpus: set[int] = PROGRAM_CPUS, timeout: float = 170.0
) -> ChildRun:
    """Run a program process to completion; its wall time and peak RSS.

    Output goes to ``log`` (one file, never a pipe that could fill).
    Peak RSS comes from the child's own ``rusage`` via ``wait4``.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = spawn(argv, out, cpus)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(start, end, usage.ru_maxrss / 1024.0, proc.returncode)


def proc_peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class CoreProbe:
    """How fast the program's core ran over an interval (``probe.py``).

    On a shared host another tenant can slow a core by half for seconds
    at a time, and the program slows with it.  The probe process shares
    the program's core and times a fixed pass every 20 ms.  An
    interval's *slowdown* is the mean pass time inside it over
    ``reference_pass_s``, the pass time on an idle core; its *reference
    seconds* are its wall seconds over its slowdown, the time it would
    have taken at the reference speed (see README, "Reference seconds").
    Use as a context manager: leaving it stops the probe process.
    """

    #: Fewest passes an interval is judged by; a shorter interval is
    #: widened to its nearest passes.
    MIN_PASSES = 3

    def __init__(self, path: Path, reference_pass_s: float):
        self.path = Path(path)
        self.reference_pass_s = reference_pass_s
        self._times: list[float] = []
        self._passes: list[float] = []
        self._read_to = 0
        self.path.touch()
        self.proc = spawn([sys.executable, str(HERE / "probe.py"), str(self.path)],
                          subprocess.DEVNULL)
        try:
            self._wait_past(time.perf_counter(), timeout=30.0)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "CoreProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()

    def _read(self) -> None:
        with open(self.path, "rb") as fh:
            fh.seek(self._read_to)
            data = fh.read()
        complete = data[: data.rfind(b"\n") + 1]
        self._read_to += len(complete)
        for line in complete.splitlines():
            at, seconds = line.split()
            self._times.append(float(at))
            self._passes.append(float(seconds))

    def _wait_past(self, moment: float, timeout: float = 5.0) -> None:
        """Wait until a pass after ``moment`` is on file."""
        deadline = time.perf_counter() + timeout
        while True:
            self._read()
            if self._times and self._times[-1] > moment:
                return
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("the core probe stopped reporting")
            time.sleep(0.005)

    def slowdown(self, start: float, end: float) -> float:
        """Mean pass time in [start, end] over the reference pass time."""
        self._wait_past(end)
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        while hi - lo < self.MIN_PASSES and (lo > 0 or hi < len(self._times)):
            lo, hi = max(0, lo - 1), min(len(self._times), hi + 1)
        return statistics.fmean(self._passes[lo:hi]) / self.reference_pass_s


def host_fingerprint() -> dict:
    return {
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# ------------------------------------------------------------------ digests


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def golden_check(result: "WorkloadResult", key: str, seed: int, digest) -> None:
    """Compare ``digest`` with ``golden.json[key][seed]`` when one exists.

    Seeds without a golden only record the digest, so a parent run and a
    change run at the same seed can still be compared.
    """
    result.digests[key] = digest
    expected = load_json("golden.json").get(key, {}).get(str(seed))
    if expected is None:
        return
    result.golden = True
    if expected != digest:
        if isinstance(expected, dict) and isinstance(digest, dict):
            wrong = sorted(
                k for k in set(expected) | set(digest) if expected.get(k) != digest.get(k)
            )
            result.fail(f"{key} digests differ from golden.json for {wrong}")
        else:
            result.fail(f"{key} digest differs from golden.json")


# ------------------------------------------------------------------- result


@dataclass
class WorkloadResult:
    """What one workload measured and whether its outputs were right."""

    workload: str
    seed: int
    metrics: dict[str, float] = field(default_factory=dict)
    #: Sample count behind each metric, printed beside it.
    samples: dict[str, int] = field(default_factory=dict)
    #: The repetitions behind each median, for diagnosis.
    raw: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    golden: bool = False

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = int(samples)

    def put_median(self, name: str, values: list[float]) -> None:
        """The median of repeated measurements, keeping the repetitions."""
        self.put(name, statistics.median(values), len(values))
        self.raw[name] = [float(v) for v in values]

    def put_reference(self, name: str, intervals, probe: CoreProbe) -> None:
        """The median of the timed ``intervals`` [(start, end)] on the
        program's core, each in reference seconds.

        The wall times and the core's slowdowns are kept for diagnosis.
        """
        walls = [end - start for start, end in intervals]
        slowdowns = [probe.slowdown(start, end) for start, end in intervals]
        values = [wall / slow for wall, slow in zip(walls, slowdowns)]
        self.put(name, statistics.median(values), len(values))
        self.raw[name] = values
        self.raw[f"{name}.wall"] = walls
        self.raw[f"{name}.slowdown"] = slowdowns

    def fail(self, problem: str) -> None:
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def record(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "metrics": self.metrics,
            "samples": self.samples,
            "raw": self.raw,
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.correct,
            "problems": self.problems,
            "digests": self.digests,
            "golden_checked": self.golden,
        }


def log(message: str) -> None:
    """Progress to stderr; stdout carries the results."""
    print(message, file=sys.stderr, flush=True)
