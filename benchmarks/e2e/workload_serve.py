"""The serve workloads: a forecast server process under a seeded load.

``serve-ingest`` brings 1,000 fresh series online and replays the
``repro.nws.loadtest`` operation mix over their shallow histories;
``serve-query`` restores a generated state directory of day-long series
and mostly queries and fetches them.  Both run, in order: set-up (launch
until ``/v1/health`` answers), a warm-up phase, an open-loop ``light``
and ``heavy`` phase at fixed Poisson rates, and closed-loop ``capacity``
batches of a fixed size, a third after each of those three phases.  The
traced run adds a ``sustained`` search.

The load comes from one process with two threads.  Each thread owns one
connection and a disjoint half of the series, so the order of operations
on every series, and with it every response, is fixed by the seed.  Each
thread keeps a shadow copy of what its series must hold and checks every
response against it; the canonical response bytes of the fixed phases
are folded into a SHA-256 digest.  The open-loop phases send from the
other core, the closed-loop ones from the program's core (``run_closed``);
set-up, warm-up and capacity times are in reference seconds
(``harness.CoreProbe``).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
from harness import (
    HERE,
    LOAD_CPUS,
    PROGRAM_CPUS,
    CoreProbe,
    WorkloadResult,
    golden_check,
    log,
    percentile,
    proc_peak_rss_mb,
    spawn,
    tail_percentile,
)

TENANT = "default"
#: Samples a series retains: the server's default memory capacity.
CAPACITY = 8640
#: Seconds between a series' measurements (the paper's sensor cadence).
CADENCE = 10.0
#: TTL of the generator's registrations: effectively immortal, so no
#: response depends on when a request ran.
TTL = 1.0e12
#: Stream tags keeping each phase's draws independent of the others.
_PHASES = {"warmup": 1, "light": 2, "heavy": 3, "capacity": 4, "probe": 5, "state": 6}
_URL = re.compile(rb"forecast server at (http://\S+)")


@dataclass(frozen=True)
class Op:
    kind: str
    series: str = ""
    time: float = 0.0
    value: float = 0.0
    limit: int = 0


class _Job(threading.Event):
    error: BaseException | None = None


class Worker:
    """One generator thread: a connection, a share of the series and a
    shadow of what the server must hold for them.

    The thread lives for the whole run, so its keep-alive connection
    does too.  ``execute`` runs one operation, checks the response
    against the shadow, and returns the canonical response bytes (or an
    error marker) for the digest.
    """

    def __init__(self, index: int, url: str, series: list[str], sensors: list[str]):
        from repro.nws import NWSClient

        self.index = index
        self.client = NWSClient.connect(url)
        self.series = series
        self.sensors = sensors
        self.times: dict[str, list[float]] = {s: [] for s in series}
        self.values: dict[str, list[float]] = {s: [] for s in series}
        # Where each series' data clock stands once every planned op ran.
        self.planned: dict[str, float] = {}
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._jobs: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._serve_jobs, daemon=True)
        self._thread.start()

    def _serve_jobs(self) -> None:
        while True:
            item = self._jobs.get()
            if item is None:
                return
            body, job = item
            try:
                body(self)
            except BaseException as exc:  # re-raised on the submitting thread
                job.error = exc
            finally:
                job.set()

    def submit(self, body) -> _Job:
        """Run ``body(self)`` on this worker's thread."""
        job = _Job()
        self._jobs.put((body, job))
        return job

    def problem(self, text: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(text)

    def call(self, op: Op):
        c = self.client
        if op.kind == "publish":
            return c.publish(op.series, time=op.time, value=op.value)
        if op.kind == "query":
            return c.query(op.series)
        if op.kind == "fetch":
            return c.fetch(op.series, limit=op.limit)
        if op.kind == "register":
            return c.register(op.series, "sensor", {"host": op.series, "resource": "cpu"}, ttl=TTL)
        if op.kind == "lookup":
            return c.lookup("sensor", host=op.series)
        raise ValueError(f"unknown op {op.kind!r}")

    def check(self, op: Op, response) -> bytes:
        """Verify ``response`` against the shadow; canonical bytes."""
        from repro.nws.wire import canonical, encode_fetch, encode_registration, encode_report

        if op.kind == "publish":
            times, values = self.times[op.series], self.values[op.series]
            times.append(op.time)
            values.append(op.value)
            if len(times) > CAPACITY:
                del times[0], values[0]
            if response != len(times):
                self.problem(f"publish {op.series}: count {response} != {len(times)}")
            return canonical({"series": op.series, "count": response})
        if op.kind == "query":
            times = self.times[op.series]
            if (
                response.n_measurements != len(times)
                or response.as_of != times[-1]
                or not math.isfinite(response.forecast)
                or response.stale
            ):
                self.problem(f"query {op.series}: unexpected report {response}")
            return canonical(encode_report(response))
        if op.kind == "fetch":
            times, values = response
            if (
                list(times) != self.times[op.series][-op.limit:]
                or list(values) != self.values[op.series][-op.limit:]
            ):
                self.problem(f"fetch {op.series}: samples differ from those published")
            return canonical(encode_fetch(op.series, times, values))
        if op.kind == "register":
            if response.name != op.series or response.kind != "sensor":
                self.problem(f"register {op.series}: got {response}")
            return canonical(encode_registration(response))
        names = [entry.name for entry in response]
        if names != [op.series]:
            self.problem(f"lookup {op.series}: got {names}")
        return canonical({"registrations": [encode_registration(e) for e in response]})

    def execute(self, op: Op) -> tuple[bytes, float]:
        """(response bytes, seconds the call took)."""
        from repro.nws.wire import canonical, code_for_exception

        self.attempted += 1
        start = time.perf_counter()
        try:
            response = self.call(op)
        except Exception as exc:  # any failure is counted, never fatal
            seconds = time.perf_counter() - start
            self.problem(f"{op.kind} {op.series}: {type(exc).__name__}: {exc}")
            return canonical({"error": code_for_exception(exc), "op": op.kind}), seconds
        seconds = time.perf_counter() - start
        return self.check(op, response), seconds

    def close(self) -> None:
        """Close the connection on its own thread, then end the thread."""
        self.submit(lambda worker: worker.client.close()).wait(timeout=10.0)
        self._jobs.put(None)
        self._thread.join(timeout=10.0)


# ----------------------------------------------------------------- planning


def _rng(seed: int, worker: int, phase: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, worker, _PHASES[phase], index, 0x53525645])


def _draw(worker: Worker, rng: np.random.Generator, mix: dict, fetch_limit) -> Op:
    """One operation from the mix, on a series this worker owns."""
    roll = rng.random()
    kind = next((k for k, p in _cumulative(mix) if roll < p), "publish")
    if kind == "lookup":
        return Op(kind, worker.sensors[int(rng.integers(len(worker.sensors)))])
    series = worker.series[int(rng.integers(len(worker.series)))]
    if kind == "publish":
        return Op("publish", series, _next_stamp(worker, series), float(rng.random()))
    if kind == "fetch":
        low, high = fetch_limit
        return Op("fetch", series, limit=int(rng.integers(low, high + 1)))
    return Op("query", series)


def _cumulative(mix: dict) -> list[tuple[str, float]]:
    total, out = 0.0, []
    for kind in sorted(mix):
        total += mix[kind]
        out.append((kind, total))
    return out


def plan_open(worker, seed, phase, rate, seconds, mix, fetch_limit, index=0, count=0):
    """Poisson arrivals at ``rate`` for ``seconds`` and at least ``count``
    requests: [(due, op)]."""
    rng = _rng(seed, worker.index, phase, index)
    plan, due = [], 0.0
    while True:
        due += rng.exponential(1.0 / rate)
        if due >= seconds and len(plan) >= count:
            return plan
        plan.append((due, _draw(worker, rng, mix, fetch_limit)))


def plan_closed(worker, seed, phase, count, mix, fetch_limit, index=0):
    rng = _rng(seed, worker.index, phase, index)
    return [_draw(worker, rng, mix, fetch_limit) for _ in range(count)]


# ---------------------------------------------------------------- execution


def _in_threads(workers: list[Worker], body) -> None:
    """Run ``body(worker)`` on every worker's own thread and wait."""
    jobs = [worker.submit(body) for worker in workers]
    for job in jobs:
        if not job.wait(timeout=170.0):
            raise RuntimeError("a generator thread did not finish")
    for job in jobs:
        if job.error is not None:
            raise job.error


class PhaseLog:
    """Latencies, send lags and call times of one phase, all workers,
    and when it started and ended."""

    def __init__(self):
        self.latencies: list[float] = []
        self.lags: list[float] = []
        self.calls: list[float] = []
        self.offered = 0
        self.completed = 0
        self.start = self.end = 0.0
        self.lock = threading.Lock()

    def add(self, latencies, lags, calls, offered, completed) -> None:
        with self.lock:
            self.latencies += latencies
            self.lags += lags
            self.calls += calls
            self.offered += offered
            self.completed += completed


def run_closed(workers, plans, digest: bool) -> PhaseLog:
    """Each worker sends its ops back to back, from the program's core.

    A closed loop is a chain of request, response, next request.  With
    the generator on another core every link waits for a wake-up across
    cores, and on a shared host those waits, not the work, set the pace.
    On the program's core the chain is the work of both ends, which the
    core probe measures.
    """
    phase = PhaseLog()

    def body(worker):
        os.sched_setaffinity(0, PROGRAM_CPUS)
        try:
            calls = []
            for op in plans[worker.index]:
                payload, seconds = worker.execute(op)
                calls.append(seconds)
                if digest:
                    worker.digest.update(payload)
            phase.add(calls, [], calls, len(calls), len(calls))
        finally:
            os.sched_setaffinity(0, LOAD_CPUS)

    phase.start = time.perf_counter()
    _in_threads(workers, body)
    phase.end = time.perf_counter()
    return phase


def run_open(workers, plans, digest: bool, cutoff: float | None = None) -> PhaseLog:
    """Each worker sends its ops when due, whatever the server's pace.

    A request's latency is measured from when it was due, so a stall
    also charges the requests queued behind it; how late each was sent
    is recorded as the generator's lag.  With ``cutoff`` (seconds after
    the start) ops not sent by then are abandoned, not completed.
    """
    phase = PhaseLog()
    start = time.perf_counter() + 0.01

    def body(worker):
        latencies, lags, calls = [], [], []
        for due, op in plans[worker.index]:
            target = start + due
            now = time.perf_counter()
            if now < target:
                time.sleep(target - now)
                now = time.perf_counter()
            if cutoff is not None and now - start > cutoff:
                break
            payload, seconds = worker.execute(op)
            done = time.perf_counter()
            latencies.append(done - target)
            lags.append(now - target)
            calls.append(seconds)
            if digest:
                worker.digest.update(payload)
        plan = plans[worker.index]
        phase.add(latencies, lags, calls, len(plan), len(latencies))

    _in_threads(workers, body)
    return phase


# ------------------------------------------------------------------- server


class Server:
    """One ``nws-repro serve`` process, launched and stopped by the run."""

    def __init__(self, state_dir: Path, log_path: Path, interval: float, trace: Path | None):
        cli = ["serve", "--port", "0", "--state-dir", str(state_dir),
               "--maintenance-interval", repr(interval)]
        if trace is None:
            argv = [sys.executable, "-m", "repro.cli", *cli]
        else:
            argv = [sys.executable, str(HERE / "spans.py"), str(trace), "--", *cli]
        self.trace = trace
        self.log_path = log_path
        self.start = time.perf_counter()
        with open(log_path, "wb") as out:
            self.proc = spawn(argv, out)
        try:
            self.url = self._wait_url(self.start + 60.0)
            self._wait_health(self.start + 60.0)
        except BaseException:
            self.stop()
            raise
        self.ready = time.perf_counter()

    def _wait_url(self, deadline: float) -> str:
        while time.perf_counter() < deadline:
            match = _URL.search(self.log_path.read_bytes())
            if match:
                return match.group(1).decode()
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"server did not start: {self.log_path.read_text()[-400:]}")

    def _wait_health(self, deadline: float) -> None:
        host, port = self.url.removeprefix("http://").split(":")
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
            try:
                conn.request("GET", "/v1/health")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise RuntimeError("server never answered /v1/health")

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def snapshot(self) -> dict:
        """The traced server's spans so far (SIGUSR1 snapshot)."""
        path = Path(f"{self.trace}.phases")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 30.0
        while not path.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError("traced server wrote no span snapshot")
            time.sleep(0.01)
        with open(path) as fh:
            return json.load(fh)

    def stop(self) -> int:
        """SIGINT (a clean drain and journal sync), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            return self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9


# ------------------------------------------------------------------ workload


def _series_names(count: int) -> list[str]:
    return [f"load.{i:05d}" for i in range(count)]


def generate_state(state_dir: Path, seed: int, count: int, samples: int) -> dict:
    """A restorable state directory of ``count`` day-long series.

    Written through the program's own ``ServiceCore`` so the layout is
    whatever the program restores.  Values follow a seeded AR(1) around
    an availability of 0.6, clipped to [0, 1].
    """
    from repro.nws import ServiceCore

    rng = np.random.default_rng([seed, _PHASES["state"], 0x53525645])
    history = {}
    core = ServiceCore(directory=state_dir, journal_flush_lines=samples)
    try:
        for name in _series_names(count):
            noise = rng.normal(0.0, 0.05, samples)
            values = np.empty(samples)
            level = 0.6
            for i in range(samples):
                level = min(1.0, max(0.0, 0.6 + 0.95 * (level - 0.6) + noise[i]))
                values[i] = level
            times = np.arange(samples) * CADENCE
            for t, v in zip(times.tolist(), values.tolist()):
                core.publish(TENANT, name, t, v)
            history[name] = (times.tolist(), values.tolist())
    finally:
        core.close()
    return history


def _workers(url: str, names: list[str], sensors: list[str], history: dict) -> list[Worker]:
    workers = [Worker(i, url, names[i::2], sensors[i::2]) for i in range(2)]
    for worker in workers:
        for name in worker.series:
            times, values = history.get(name, ([], []))
            worker.times[name], worker.values[name] = list(times), list(values)
            worker.planned[name] = times[-1] if times else -CADENCE
    return workers


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _latency_metrics(result: WorkloadResult, name: str, phase: PhaseLog) -> None:
    n = len(phase.latencies)
    result.put(f"{name}.p50_ms", _ms(percentile(phase.latencies, 50.0)), n)
    result.put(f"{name}.p99_ms", _ms(percentile(phase.latencies, 99.0)), n)
    tail = tail_percentile(n)
    if tail is None or tail < 99.0:
        log(f"  {name}: only {n} samples, p99 is not supported (highest: p{tail})")


def _probe_ok(phase: PhaseLog, limit_ms: float) -> bool:
    if not phase.latencies or phase.offered == 0:
        return False
    return (
        _ms(percentile(phase.latencies, 99.0)) <= limit_ms
        and phase.completed / phase.offered >= 0.98
        and _ms(max(phase.lags[-max(1, len(phase.lags) // 10):])) <= limit_ms
    )


def _sustained(workers, seed, settings, shape, light_rate) -> float:
    """Bisect for the highest rate with p99 within the limit, at least
    98% of the offered requests completed and no growing backlog.

    The search starts from twice the heavy rate, about 1.2 times what
    the server handles with the generator on the other core.
    """
    limit = settings["p99_limit_ms"]
    low, high = light_rate, max(light_rate, 2.0 * shape["heavy_rps"])
    for index in range(settings["probes"]):
        rate = (low + high) / 2.0
        plans = [
            plan_open(w, seed, "probe", rate / 2.0, settings["probe_seconds"],
                      shape["mix"], shape["fetch_limit"], index)
            for w in workers
        ]
        phase = run_open(workers, plans, digest=False,
                         cutoff=settings["probe_seconds"] + limit / 1000.0)
        passed = _probe_ok(phase, limit)
        log(f"  sustained probe {index}: {rate:.0f} req/s "
            f"{'meets' if passed else 'misses'} the limit")
        if passed:
            low = rate
        else:
            high = rate
    return low


def _launch(result: WorkloadResult, work: Path, settings: dict, state: Path | None,
            trace: bool) -> tuple[Server, list[tuple[float, float]]]:
    """Launch the server ``launches`` times (once when traced) and keep
    the last one; also returns each launch's (start, ready) times.

    ``state`` is the directory every launch restores; without one each
    launch gets a fresh empty state directory.
    """
    launches = 1 if trace else settings["launches"]
    setups = []
    for i in range(launches):
        server = Server(
            state if state is not None else work / f"state{i}",
            work / f"server{i}.log",
            settings["maintenance_interval"],
            work / "spans.json" if trace else None,
        )
        setups.append((server.start, server.ready))
        if i + 1 < launches and server.stop() != 0:
            result.fail("server exited uncleanly on SIGINT")
    return server, setups


def _warm_up(workers: list[Worker], seed: int, ingest: bool) -> PhaseLog:
    """Bring every series online, or replay each restored day once."""
    if not ingest:
        return run_closed(workers, [[Op("query", s) for s in w.series] for w in workers],
                          digest=True)
    # One worker at a time: concurrent registrations race on the server's
    # registration snapshot (see README, "Known issues").
    for worker in workers:
        register = [[], []]
        register[worker.index] = [Op("register", s) for s in worker.sensors]
        run_closed([worker], register, digest=True)
    plans = []
    for w in workers:
        values = _rng(seed, w.index, "warmup").random(len(w.series))
        plans.append([
            Op("publish", s, _next_stamp(w, s), float(v)) for s, v in zip(w.series, values)
        ])
    return run_closed(workers, plans, digest=True)


def run(workload: str, seed: int, scale: float, work: Path, settings: dict,
        trace: bool, probe: CoreProbe) -> tuple[WorkloadResult, dict]:
    """One run of ``serve-ingest`` or ``serve-query``.

    Returns the result and, when ``trace``, the per-layer metrics of the
    traced server over the fixed phases.
    """
    result = WorkloadResult(workload, seed)
    shape = settings[workload]
    ingest = workload == "serve-ingest"
    names = _series_names(shape["series"])
    sensors = [f"sensor.load.{c:03d}" for c in range(shape.get("sensors", 0))]
    history, state = {}, None
    if not ingest:
        log(f"  generating {len(names)} x {shape['samples']} samples")
        state = work / "state"
        history = generate_state(state, seed, len(names), shape["samples"])

    server, setups = _launch(result, work, settings, state, trace)
    workers: list[Worker] = []
    layers: dict = {}
    try:
        result.put_reference("setup_s", setups, probe)
        workers = _workers(server.url, names, sensors, history)
        warm_log = _warm_up(workers, seed, ingest)
        result.put_reference("join_s" if ingest else "cold_query_s",
                             [(warm_log.start, warm_log.end)], probe)

        mix, fetch_limit = shape["mix"], shape["fetch_limit"]
        light_rate, heavy_rate = shape["light_rps"], shape["heavy_rps"]
        # Capacity: fixed-size closed-loop batches, a third after each
        # phase, so the state they see spans the run.
        per_worker = max(1, round(shape["capacity_batch"] / 2))
        count = max(3, round(shape["capacity_batches"] * scale))
        batches = []

        def capacity(share: int) -> None:
            for _ in range(share):
                batches.append(run_closed(workers, [
                    plan_closed(w, seed, "capacity", per_worker, mix, fetch_limit, len(batches))
                    for w in workers], digest=True))

        capacity(count // 3)
        light = run_open(workers, [
            plan_open(w, seed, "light", light_rate / 2.0, shape["light_seconds"] * scale,
                      mix, fetch_limit, count=round(shape["light_requests"] * scale / 2))
            for w in workers], digest=True)
        capacity(count // 3)
        heavy = run_open(workers, [
            plan_open(w, seed, "heavy", heavy_rate / 2.0, shape["heavy_seconds"] * scale,
                      mix, fetch_limit) for w in workers], digest=True)
        capacity(count - 2 * (count // 3))
        result.put_reference("wall_s", [(b.start, b.end) for b in batches], probe)
        result.put("peak_rss_mb", server.peak_rss_mb(), 1)
        _latency_metrics(result, "light", light)
        _latency_metrics(result, "heavy", heavy)
        result.put("capacity_rps", 2 * per_worker / result.metrics["wall_s"], len(batches))
        phases = (warm_log, light, heavy, *batches)
        lags = light.lags + heavy.lags
        result.put("gen.send_lag_p99_ms", _ms(percentile(lags, 99.0)), len(lags))
        result.put("gen.requests", sum(len(p.calls) for p in phases), 1)
        result.put("client.call_s", sum(sum(p.calls) for p in phases), 1)
        digest = hashlib.sha256()
        for worker in workers:
            digest.update(worker.digest.hexdigest().encode())

        if trace:
            layers = spans.layer_metrics(server.snapshot())
            light_ok = _ms(percentile(light.latencies, 99.0)) <= settings["p99_limit_ms"]
            result.put("sustained_rps", _sustained(
                workers, seed, settings, shape, light_rate if light_ok else 0.0),
                settings["probes"])
        if scale == 1.0:
            golden_check(result, workload, seed, digest.hexdigest())
        else:
            result.digests[workload] = digest.hexdigest()
    finally:
        for worker in workers:
            result.attempted += worker.attempted
            result.failed += worker.failed
            result.problems += worker.problems
            worker.close()
        if server.stop() != 0:
            result.fail("server exited uncleanly on SIGINT")
    return result, layers


def _next_stamp(worker: Worker, series: str) -> float:
    """The next measurement time on ``series``' data clock."""
    stamp = worker.planned[series] + CADENCE
    worker.planned[series] = stamp
    return stamp
