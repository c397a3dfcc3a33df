"""Runner engine benchmarks: pool overhead and cache-hit latency.

Two contracts worth numbers:

* fanning cache misses across worker processes must cost little beyond
  the slowest worker's own simulation (the pool's start-up, pickling and
  shutdown), while staying bit-identical to the serial path;
* serving a warm on-disk cache entry must be at least an order of
  magnitude cheaper than re-simulating -- otherwise the cache is
  decoration.

The fan-out gate does not assert a speedup.  The hosts' costs differ
about twofold, and on a small shared VM two simulations running at once
each slow down by more than half, so the speedup a 2-worker pool reaches
is set by the VM, not by the runner.  Parallel wall time minus the
slowest worker's ``host_seconds`` is what the pool itself adds; a pool
that ran the hosts one after another would add the faster host's whole
simulation.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import record, run_once
from repro.experiments.testbed import DAY, TestbedConfig
from repro.runner import Runner

HOSTS = ("thing1", "conundrum")

#: Seconds a 2-worker pool may add beyond its slowest worker's simulation.
MAX_POOL_OVERHEAD_S = 0.15


def _identical(a, b) -> None:
    for run_a, run_b in zip(a, b):
        assert run_a.host == run_b.host
        for method in run_a.series:
            np.testing.assert_array_equal(
                run_a.series[method].values, run_b.series[method].values
            )
        np.testing.assert_array_equal(run_a.observed(), run_b.observed())


def test_parallel_pool_overhead(benchmark):
    """2-host fan-out: the pool adds <= MAX_POOL_OVERHEAD_S to its slowest
    worker, and the results are byte-identical to the serial path."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a 2-worker pool needs >= 2 CPUs")
    # Long enough that either host's simulation dwarfs the budget; a seed
    # no other bench uses, so nothing is pre-memoized anywhere.
    config = TestbedConfig(duration=2 * DAY, seed=4099)
    runner = Runner(jobs=2)

    start = time.perf_counter()
    parallel = run_once(benchmark, runner.run, HOSTS, config)
    parallel_s = time.perf_counter() - start
    serial = Runner(jobs=1).run(HOSTS, config)
    _identical(serial, parallel)

    slowest = max(runner.stats.host_seconds.values())
    overhead = parallel_s - slowest
    print()
    print(f"parallel {parallel_s:8.3f} s   slowest worker {slowest:8.3f} s")
    print(f"pool overhead {overhead:8.3f} s")
    record(
        "runner_pool_overhead",
        overhead,
        metric="pool_overhead",
        unit="s",
        budget=MAX_POOL_OVERHEAD_S,
        direction="lower",
    )
    assert overhead <= MAX_POOL_OVERHEAD_S, (
        f"pool overhead {overhead:.3f} s > {MAX_POOL_OVERHEAD_S} s"
    )


def test_parallel_matches_serial_on_one_cpu(benchmark):
    """The identity contract holds even where the speedup bench skips."""
    config = TestbedConfig(duration=3 * 3600.0, seed=4099)
    parallel = run_once(benchmark, lambda: Runner(jobs=2).run(HOSTS, config))
    serial = Runner(jobs=1).run(HOSTS, config)
    _identical(serial, parallel)


def test_cache_hit_speedup(benchmark, tmp_path):
    """Warm disk hits >= 10x faster than simulating, per batch."""
    config = TestbedConfig(duration=12 * 3600.0, seed=5003)
    cache_dir = tmp_path / "cache"

    def simulate_cold():
        runner = Runner(cache=cache_dir)
        runs = runner.run(HOSTS, config)
        runner.persist()
        return runs

    start = time.perf_counter()
    cold = run_once(benchmark, simulate_cold)
    simulate_s = time.perf_counter() - start

    # Fresh Runner per round models a fresh interpreter: only the files
    # on disk carry over.  min-of-3 shakes off filesystem cache warm-up.
    hit_s = float("inf")
    for _ in range(3):
        runner = Runner(cache=cache_dir)
        start = time.perf_counter()
        warm = runner.run(HOSTS, config)
        hit_s = min(hit_s, time.perf_counter() - start)
        assert runner.stats.misses == 0, "expected pure disk hits"
    _identical(cold, warm)

    speedup = simulate_s / hit_s
    print()
    print(f"simulate {simulate_s:8.3f} s")
    print(f"disk hit {hit_s:8.3f} s   speedup {speedup:.1f}x")
    assert speedup >= 10.0, f"cache hit speedup {speedup:.1f}x < 10x"
