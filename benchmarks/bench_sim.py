"""Kernel benchmarks: the fused ``Kernel.run_until`` against the plain loop.

Two contracts worth numbers, both against ``reference_run_until`` (the
unfused event loop kept in ``tests/sim_reference.py``):

* ``Kernel.run_until`` must be >= 5x faster on a day-long (86 400 s)
  single-host trace of the busiest profile (kongo) while staying
  byte-identical; and
* >= 1.1x faster on a day of thing2, the churn host whose callbacks and
  process completions dominate the paper report's simulation time, again
  byte-identical.

Both record the measured speedup with the floor it is held to as
``BENCH_*.json`` under ``artifacts/bench/``.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import record, run_once
from repro.sensors.suite import METHODS, MeasurementSuite
from repro.sim.kernel import Kernel
from repro.workload.profiles import build_host
from tests.sim_reference import reference_run_until

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
    """Kernel >= 5x over the reference loop on a day of kongo, byte-identical."""

    def ref_day():
        host, suite = _host_and_suite()
        reference_run_until(host.kernel, DAY)
        return _kernel_fingerprint(host.kernel), suite

    def kernel_day():
        host, suite = _host_and_suite()
        host.kernel.run_until(DAY)
        return _kernel_fingerprint(host.kernel), suite

    start = time.perf_counter()
    ref_print, ref_suite = run_once(benchmark, ref_day)
    ref_s = time.perf_counter() - start

    kernel_s, (kernel_print, kernel_suite) = _best_of(kernel_day, 3)

    assert ref_print == kernel_print
    for method in METHODS:
        _, values_r = ref_suite.series(method)
        _, values_k = kernel_suite.series(method)
        assert np.asarray(values_r).tobytes() == np.asarray(values_k).tobytes()

    speedup = ref_s / kernel_s
    print()
    print(f"reference {ref_s:8.3f} s")
    print(f"kernel    {kernel_s:8.3f} s   speedup {speedup:.2f}x")
    record(
        "sim_batch_speedup",
        speedup,
        metric="speedup",
        unit="x",
        budget=5.0,
        direction="higher",
    )
    assert speedup >= 5.0, f"kernel speedup {speedup:.2f}x < 5x"


def _run_state(name: str, loop):
    """One simulated day of ``name`` advanced by ``loop``: kernel bytes + suite."""
    host, suite = _host_and_suite(name)
    loop(host.kernel, DAY)
    observed = np.asarray([o.observed for o in suite.all_test_observations])
    series = [np.asarray(suite.series(m)[1]).tobytes() for m in METHODS]
    return _kernel_fingerprint(host.kernel), series, observed.tobytes()


def test_batch_engine_speedup_thing2(benchmark):
    """Kernel >= 1.1x over the reference loop on a day of thing2, byte-identical.

    thing2 is the churn host: console bursts complete and respawn all day,
    so nearly every stretch between events ends in a callback.  Both loops
    get the best of two runs.
    """

    def measured():
        ref_s, ref_state = _best_of(
            lambda: _run_state("thing2", reference_run_until), 2
        )
        kernel_s, kernel_state = _best_of(
            lambda: _run_state("thing2", Kernel.run_until), 2
        )
        return ref_s, kernel_s, ref_state, kernel_state

    ref_s, kernel_s, ref_state, kernel_state = run_once(benchmark, measured)
    assert ref_state == kernel_state

    speedup = ref_s / kernel_s
    print()
    print(f"reference {ref_s:8.3f} s")
    print(f"kernel    {kernel_s:8.3f} s   speedup {speedup:.2f}x")
    record(
        "sim_batch_speedup_thing2",
        speedup,
        metric="speedup",
        unit="x",
        budget=1.1,
        direction="higher",
    )
    assert speedup >= 1.1, f"thing2 kernel speedup {speedup:.2f}x < 1.1x"

