"""Sim engine benchmarks: batch speedup and event-path dispatch overhead.

Three contracts worth numbers:

* the batch engine must beat the event engine by >= 5x on a day-long
  (86 400 s) single-host trace of the busiest profile (kongo) while
  staying byte-identical;
* it must also beat it, by >= 1.1x, on a day of thing2, the churn host
  whose callbacks and process completions dominate the paper report's
  simulation time, again byte-identical; and
* the engine-dispatch block added to ``simulate_host`` (support check,
  ``repro_sim_engine_*`` metrics, wall timer) must cost < 5 % versus the
  bare pre-dispatch body when the event path runs.

Both persist ``BENCH_*.json`` run records under ``artifacts/bench/`` so
``nws-repro perf diff`` can flag regressions against a saved baseline.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import BENCH_RECORD_DIR, run_once
from repro.experiments.testbed import TestbedConfig, simulate_host
from repro.obs.instrument import observe_kernel
from repro.perf import record
from repro.sensors.suite import METHODS, MeasurementSuite
from repro.sim.batch import run_batch
from repro.workload.profiles import build_host, profile_names

#: One simulated day, the paper's trace length.
DAY = 86_400.0


def _host_and_suite(name: str = "kongo"):
    """A freshly seeded host + suite pair (same seed every call)."""
    host = build_host(name, seed=np.random.SeedSequence([7, 3]))
    suite = MeasurementSuite(host=name).attach(host)
    return host, suite


def _kernel_fingerprint(kernel) -> bytes:
    state = [
        kernel.time,
        kernel.load_average,
        kernel.cum_user,
        kernel.cum_sys,
        kernel.cum_idle,
        kernel.cum_nrun_time,
        float(kernel.n_ticks),
        float(kernel.n_dispatches),
    ]
    for proc in kernel.processes:
        state += [proc.cpu_time, proc.sys_time, proc.user_time, proc.estcpu]
    return np.asarray(state).tobytes()


def _best_of(fn, rounds: int):
    result = None
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_batch_engine_speedup(benchmark):
    """Batch >= 5x over the event engine on a day of kongo, byte-identical."""

    def event_day():
        host, suite = _host_and_suite()
        host.run_until(DAY)  # lint: ignore[VEC002] -- the event engine is the reference being timed
        return _kernel_fingerprint(host.kernel), suite

    def batch_day():
        host, suite = _host_and_suite()
        run_batch(host.kernel, DAY, suite=suite)
        return _kernel_fingerprint(host.kernel), suite

    start = time.perf_counter()
    event_print, event_suite = run_once(benchmark, event_day)
    event_s = time.perf_counter() - start

    batch_s, (batch_print, batch_suite) = _best_of(batch_day, 3)

    assert event_print == batch_print
    for method in METHODS:
        _, values_e = event_suite.series(method)
        _, values_b = batch_suite.series(method)
        assert np.asarray(values_e).tobytes() == np.asarray(values_b).tobytes()

    speedup = event_s / batch_s
    print()
    print(f"event {event_s:8.3f} s")
    print(f"batch {batch_s:8.3f} s   speedup {speedup:.2f}x")
    try:
        record(
            "sim_batch_speedup",
            speedup,
            metric="speedup",
            unit="x",
            direction="higher",
            directory=BENCH_RECORD_DIR,
        )
    except OSError:
        pass
    assert speedup >= 5.0, f"batch engine speedup {speedup:.2f}x < 5x"


def _run_state(name: str, engine: str):
    """One simulated day of ``name`` on ``engine``: kernel bytes + suite."""
    host, suite = _host_and_suite(name)
    if engine == "event":
        host.run_until(DAY)  # lint: ignore[VEC002] -- the event engine is the reference being timed
    else:
        run_batch(host.kernel, DAY, suite=suite)
    observed = np.asarray([o.observed for o in suite.all_test_observations])
    series = [np.asarray(suite.series(m)[1]).tobytes() for m in METHODS]
    return _kernel_fingerprint(host.kernel), series, observed.tobytes()


def test_batch_engine_speedup_thing2(benchmark):
    """Batch >= 1.1x over the event engine on a day of thing2, byte-identical.

    thing2 is the churn host: console bursts complete and respawn all day,
    so nearly every stretch between events ends in a callback.  Both
    engines get the best of two runs.
    """

    def measured():
        event_s, event_state = _best_of(lambda: _run_state("thing2", "event"), 2)
        batch_s, batch_state = _best_of(lambda: _run_state("thing2", "batch"), 2)
        return event_s, batch_s, event_state, batch_state

    event_s, batch_s, event_state, batch_state = run_once(benchmark, measured)
    assert event_state == batch_state

    speedup = event_s / batch_s
    print()
    print(f"event {event_s:8.3f} s")
    print(f"batch {batch_s:8.3f} s   speedup {speedup:.2f}x")
    try:
        record(
            "sim_batch_speedup_thing2",
            speedup,
            metric="speedup",
            unit="x",
            budget=1.1,
            direction="higher",
            directory=BENCH_RECORD_DIR,
        )
    except OSError:
        pass
    assert speedup >= 1.1, f"thing2 batch speedup {speedup:.2f}x < 1.1x"


def _legacy_simulate_host(name: str, config: TestbedConfig):
    """The pre-dispatch ``simulate_host`` hot section: suite + run_until.

    Mirrors what the function did before engine dispatch existed, so the
    difference against ``simulate_host(..., sim_engine="event")`` is
    exactly the dispatch block (support check, metrics, wall timer).
    """
    host_index = profile_names().index(name)
    host = build_host(name, seed=np.random.SeedSequence([config.seed, host_index]))
    suite = MeasurementSuite(
        measure_period=config.measure_period,
        probe_period=config.probe_period,
        test_period=config.test_period,
        test_duration=config.test_duration,
        warmup=config.warmup,
        host=name,
    ).attach(host)
    observe_kernel(host.kernel, host=name)
    host.run_until(config.duration)  # lint: ignore[VEC002] -- the bare event baseline
    return {m: suite.series(m) for m in METHODS}


def test_event_dispatch_overhead(benchmark):
    """Engine dispatch costs < 5 % when the event path is forced."""
    config = TestbedConfig(duration=7200.0, sim_engine="event")

    def measured():
        legacy_s, _ = _best_of(lambda: _legacy_simulate_host("kongo", config), 3)
        dispatch_s, _ = _best_of(lambda: simulate_host("kongo", config), 3)
        return legacy_s, dispatch_s

    legacy_s, dispatch_s = run_once(benchmark, measured)
    overhead = dispatch_s / legacy_s - 1.0
    print()
    print(f"bare event    {legacy_s:8.3f} s")
    print(f"with dispatch {dispatch_s:8.3f} s   overhead {100 * overhead:+.1f}%")
    try:
        record(
            "sim_dispatch_overhead",
            max(overhead, 0.0),
            metric="overhead_fraction",
            unit="ratio",
            directory=BENCH_RECORD_DIR,
        )
    except OSError:
        pass
    assert overhead < 0.05, f"dispatch adds {100 * overhead:.1f}% to the event path"
