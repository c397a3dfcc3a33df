"""The parallel experiment runner.

:class:`Runner` is the single entry point for monitored testbed runs.  It
layers three result stores in front of the simulator:

1. an in-process memo (same object back, free),
2. the content-addressed on-disk :class:`~repro.runner.cache.ResultCache`
   (survives interpreter restarts; optional),
3. :func:`~repro.experiments.testbed.simulate_host`, fanned out across
   worker processes when ``jobs > 1``.

Results are byte-identical regardless of ``jobs`` because every host's
seed is derived from ``(config.seed, host index)`` inside the simulation
itself -- workers share nothing and inherit no RNG state.  Every lookup
and simulation is tallied both on :attr:`Runner.stats` (plain ints, for
programmatic checks) and on the installed metrics registry
(``repro_runner_*`` series) so cache behaviour is observable.

Telemetry is recorded where the simulation runs.  On the serial path
(``jobs=1``, the default of every command) a simulation records straight
into whatever registry and tracer the caller installed, like all other
instrumented code.  A pool worker records into its own process's sinks,
which stay there.  The runner itself observes each simulated host's wall
time (``repro_runner_host_seconds``) in the parent, whichever path ran
it.  Cache hits (memory or disk) return stored results and record no
simulation telemetry.

A disk entry also carries the backtests the tables computed from its run
(``HostRun._forecasts``), which exist only after the run is simulated.
So :meth:`Runner.run` only memoizes a fresh run, and
:meth:`Runner.persist` stores each memoized run that is not on disk yet,
or whose backtests grew since it was stored or loaded: each entry is
written once, with its backtests.  Every command with a cache calls it
once at the end, and a warm report then forecasts nothing.

Worker failures do not take the batch down: a host whose worker raised --
or whose pool broke entirely (``BrokenProcessPool``, e.g. an OOM-killed
child) -- is re-simulated in-process under a bounded
:class:`~repro.faults.policy.RetryPolicy`; only when the retries are
exhausted does :class:`HostSimulationError` surface, naming the host
instead of an opaque pool traceback.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from repro.experiments.testbed import HostRun, TestbedConfig, simulate_host
from repro.faults.policy import RetryError, RetryPolicy
from repro.obs.metrics import get_registry
from repro.runner.cache import ResultCache
from repro.runner.keys import config_digest
from repro.workload.profiles import profile_names

__all__ = [
    "HostSimulationError",
    "Runner",
    "RunnerStats",
    "default_runner",
    "parallel_map",
]

#: Retries per failed host beyond its first attempt (satellite contract:
#: "retry the failed host up to 2x").
MAX_HOST_RETRIES = 2

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Bucket bounds for per-host simulation wall time (seconds, real clock).
_WALL_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0)


@dataclass
class RunnerStats:
    """Cumulative tallies of one runner's cache and simulation activity.

    ``misses`` counts distinct simulations actually performed;
    ``sim_seconds`` sums per-host wall time (CPU-side, so with ``jobs > 1``
    it exceeds elapsed wall time -- the ratio is worker utilisation).
    ``backtests_loaded`` counts backtests read with disk hits and
    ``backtests_stored`` those written that their entry did not hold.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    corrupt: int = 0
    retries: int = 0
    backtests_loaded: int = 0
    backtests_stored: int = 0
    sim_seconds: float = 0.0
    host_seconds: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable rendering (the CLI's stats line)."""
        return (
            f"memory_hits={self.memory_hits} disk_hits={self.disk_hits} "
            f"misses={self.misses} corrupt={self.corrupt} "
            f"retries={self.retries} "
            f"backtests_loaded={self.backtests_loaded} "
            f"backtests_stored={self.backtests_stored} "
            f"sim_seconds={self.sim_seconds:.3f}"
        )


class HostSimulationError(RuntimeError):
    """One host's simulation kept failing after bounded retries.

    Attributes
    ----------
    host:
        The host whose simulation failed.
    attempts:
        Total attempts made (first try + retries).
    """

    def __init__(self, host: str, attempts: int, cause: BaseException | None):
        super().__init__(
            f"simulation of host {host!r} failed after {attempts} "
            f"attempt(s): {cause!r}"
        )
        self.host = host
        self.attempts = attempts


def _simulate_one(name: str, config: TestbedConfig) -> tuple[HostRun, float]:
    """Simulate one host; returns ``(run, wall_seconds)``.

    The retry unit of :class:`Runner`, serial and pooled alike.  It
    calls the module-global :func:`simulate_host`, so a wrapper
    installed on that name sees every simulation.  Module-level so it
    pickles into :class:`ProcessPoolExecutor` workers.
    """
    start = time.perf_counter()
    run = simulate_host(name, config)
    return run, time.perf_counter() - start


def parallel_map(
    fn: Callable[[_T], _R], items: Iterable[_T], *, jobs: int = 1
) -> list[_R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Order is preserved.  ``fn`` and the items must pickle (top-level
    functions and ``functools.partial`` of them are fine).  With ``jobs
    <= 1`` or fewer than two items this is a plain list comprehension --
    no pool, no overhead.
    """
    work = list(items)
    if jobs <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
        return list(pool.map(fn, work))


class Runner:
    """Unified facade over memoization, the disk cache, and simulation.

    A simulation in this process (``jobs=1``, or a failed host's
    in-process retry) records into the registry and tracer installed
    while :meth:`run` executes.  A failed attempt's partial telemetry
    stays there too: the retry adds its own on top.

    Parameters
    ----------
    jobs:
        Maximum worker processes for cache misses (1 = simulate in
        process; results are identical either way).
    cache:
        On-disk cache: a :class:`ResultCache`, a directory path, or None
        to keep results in memory only.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: ResultCache | str | Path | None = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        if cache is None or isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        self.stats = RunnerStats()
        self._memo: dict[str, HostRun] = {}
        # digest -> how many backtests its disk entry holds
        self._on_disk: dict[str, int] = {}
        registry = get_registry()
        self._obs_hits = {
            layer: registry.counter("repro_runner_cache_hits_total", layer=layer)
            for layer in ("memory", "disk")
        }
        self._obs_misses = registry.counter("repro_runner_cache_misses_total")
        self._obs_corrupt = registry.counter("repro_runner_cache_corrupt_total")
        self._obs_sims = {
            mode: registry.counter("repro_runner_simulations_total", mode=mode)
            for mode in ("serial", "parallel")
        }
        self._obs_jobs = registry.gauge("repro_runner_jobs")
        self._obs_utilization = registry.gauge("repro_runner_worker_utilization")
        self._obs_retries = registry.counter("repro_runner_retries_total")
        self._obs_jobs.set(float(self.jobs))
        # No sleeping between attempts: a failed host is re-simulated
        # immediately in-process (the failure mode is worker death, not a
        # transient remote, so backing off buys nothing).
        self._retry_policy = RetryPolicy(
            retries=MAX_HOST_RETRIES, base_delay=0.0, jitter=0.0, sleep=None
        )

    # ------------------------------------------------------------ running

    def run(
        self,
        hosts: str | Iterable[str] | None = None,
        config: TestbedConfig | None = None,
    ) -> HostRun | list[HostRun]:
        """Run (or fetch) monitored simulations.

        Parameters
        ----------
        hosts:
            A single host name (returns one :class:`HostRun`), an iterable
            of names (returns a list in the same order), or None for the
            full testbed in the paper's table order.
        config:
            Run configuration; default :class:`TestbedConfig`.
        """
        config = config if config is not None else TestbedConfig()
        single = isinstance(hosts, str)
        if single:
            names = [hosts]
        elif hosts is None:
            names = profile_names()
        else:
            names = [str(name) for name in hosts]

        results: dict[int, HostRun] = {}
        pending: dict[str, list[int]] = {}  # digest -> indices wanting it
        pending_names: dict[str, str] = {}
        for i, name in enumerate(names):
            digest = config_digest(name, config)
            if digest in pending:
                pending[digest].append(i)
                continue
            run = self._lookup(digest)
            if run is not None:
                results[i] = run
            else:
                self.stats.misses += 1
                self._obs_misses.inc()
                pending[digest] = [i]
                pending_names[digest] = name

        if pending:
            for digest, run in self._simulate(pending_names, config).items():
                self._memo[digest] = run
                for i in pending[digest]:
                    results[i] = run

        ordered = [results[i] for i in range(len(names))]
        return ordered[0] if single else ordered

    def run_one(self, host: str, config: TestbedConfig | None = None) -> HostRun:
        """Convenience: :meth:`run` for exactly one host."""
        result = self.run(host, config)
        assert isinstance(result, HostRun)
        return result

    # ----------------------------------------------------------- internals

    def _lookup(self, digest: str) -> HostRun | None:
        run = self._memo.get(digest)
        if run is not None:
            self.stats.memory_hits += 1
            self._obs_hits["memory"].inc()
            return run
        if self.cache is None:
            return None
        run, outcome = self.cache.lookup(digest)
        if outcome == "corrupt":
            self.stats.corrupt += 1
            self._obs_corrupt.inc()
        if run is not None:
            self.stats.disk_hits += 1
            self.stats.backtests_loaded += len(run._forecasts)
            self._obs_hits["disk"].inc()
            self._memo[digest] = run
            self._on_disk[digest] = len(run._forecasts)
        return run

    def _simulate(
        self, jobs_by_digest: dict[str, str], config: TestbedConfig
    ) -> dict[str, HostRun]:
        """Simulate every ``digest -> host`` pair, in-process or pooled."""
        digests = list(jobs_by_digest)
        workers = min(self.jobs, len(digests))
        use_pool = workers > 1
        batch_start = time.perf_counter()
        out: dict[str, HostRun] = {}
        if use_pool:
            failed: dict[str, BaseException] = {}
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_simulate_one, jobs_by_digest[d], config): d
                    for d in digests
                }
                remaining = set(futures)
                while remaining:
                    done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for future in done:
                        digest = futures[future]
                        try:
                            run, wall = future.result()
                        except Exception as exc:
                            # Worker raised, or the pool broke under it
                            # (BrokenProcessPool): note it, retry in-process
                            # once the pool is drained.
                            failed[digest] = exc
                        else:
                            self._record_sim(
                                jobs_by_digest[digest], wall, "parallel"
                            )
                            out[digest] = run
            for digest in sorted(failed):
                name = jobs_by_digest[digest]
                run, wall = self._retry_host(name, config)
                self._record_sim(name, wall, "serial")
                out[digest] = run
        else:
            for digest in digests:
                name = jobs_by_digest[digest]
                try:
                    run, wall = _simulate_one(name, config)
                except Exception:
                    run, wall = self._retry_host(name, config)
                self._record_sim(name, wall, "serial")
                out[digest] = run
        batch_wall = time.perf_counter() - batch_start
        if use_pool and batch_wall > 0.0:
            busy = sum(self.stats.host_seconds[jobs_by_digest[d]] for d in digests)
            self._obs_utilization.set(min(1.0, busy / (batch_wall * workers)))
        return out

    def _retry_host(
        self, name: str, config: TestbedConfig
    ) -> tuple[HostRun, float]:
        """Re-simulate a failed host in-process, up to MAX_HOST_RETRIES times.

        The first attempt already happened (in a worker or serially), so
        the policy's remaining budget is consumed as retries.  Raises
        :class:`HostSimulationError` -- naming the host -- when they are
        exhausted.
        """

        def count_retry(attempt: int, exc: BaseException | None, delay: float) -> None:
            self.stats.retries += 1
            self._obs_retries.inc()

        try:
            return self._retry_policy.call(
                _simulate_one,
                name,
                config,
                describe=f"simulation of host {name!r}",
                on_retry=count_retry,
                attempts_used=1,
            )
        except RetryError as exc:
            raise HostSimulationError(
                name, MAX_HOST_RETRIES + 1, exc.__cause__
            ) from exc

    def _record_sim(self, host: str, wall: float, mode: str) -> None:
        self.stats.sim_seconds += wall
        self.stats.host_seconds[host] = wall
        self._obs_sims[mode].inc()
        get_registry().histogram(
            "repro_runner_host_seconds", buckets=_WALL_BUCKETS, host=host
        ).observe(wall)

    def persist(self) -> int:
        """Store every memoized run not on disk yet, or whose backtests
        grew since it was stored or loaded; returns the entries written
        (0 with no cache).

        Entries that did not grow are left alone, so a report over a
        filled cache writes nothing.
        """
        if self.cache is None:
            return 0
        written = 0
        for digest, run in self._memo.items():
            held = self._on_disk.get(digest)
            if held is None or len(run._forecasts) > held:
                self.cache.store(digest, run)
                self.stats.backtests_stored += len(run._forecasts) - (held or 0)
                self._on_disk[digest] = len(run._forecasts)
                written += 1
        return written

    # ------------------------------------------------------------ hygiene

    def clear_memory(self) -> None:
        """Drop the in-process memo (the disk cache is untouched; runs
        not yet :meth:`persist`-ed are lost)."""
        self._memo.clear()
        self._on_disk.clear()

    def clear_disk(self) -> int:
        """Delete every on-disk entry; returns entries removed (0 if no cache)."""
        return self.cache.clear() if self.cache is not None else 0


_default: Runner | None = None


def default_runner() -> Runner:
    """The process-wide runner the table/figure generators use when no
    runner is passed explicitly.

    Memory-memoized only (``jobs=1``, no disk cache); build an explicit
    :class:`Runner` for parallelism or persistence.
    """
    global _default
    if _default is None:
        _default = Runner()
    return _default
