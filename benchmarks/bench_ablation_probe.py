"""Ablation: hybrid probe frequency -- intrusiveness vs accuracy.

Paper Section 2.1: the probe runs 1.5 s per minute (2.5 % overhead),
"much less frequently" than the cheap measurements, because it is the only
intrusive part of the sensor.  This bench sweeps the probe period on
conundrum (the host whose accuracy *depends* on probing) and reports both
sides of the trade:

* hybrid measurement error -- should degrade when probes become rare
  (stale bias) and improve with frequency;
* measured probe overhead (probe CPU time / wall time) -- grows inversely
  with the period, matching the paper's 2.5 % at 60 s.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.sensors.suite import MeasurementSuite
from repro.workload.profiles import build_host

HOURS6 = 6 * 3600.0


def _run(probe_period: float | None, seed: int):
    host = build_host("conundrum", seed=np.random.SeedSequence([seed, 2]))
    # probe_period=None: model "never probes" with an effectively infinite
    # period (the suite requires one).
    suite = MeasurementSuite(
        probe_period=probe_period if probe_period is not None else 1e9
    ).attach(host)
    host.run_until(HOURS6)
    obs = suite.test_observations
    truth = np.array([o.observed for o in obs])
    hybrid = np.array([o.premeasurements["nws_hybrid"] for o in obs])
    error = float(np.abs(hybrid - truth).mean())
    probe_cpu = sum(r.cpu_time for r in suite.hybrid.probe.results)
    overhead = probe_cpu / HOURS6
    return error, overhead


def test_probe_ablation(benchmark, seed):
    periods = (15.0, 60.0, 300.0, None)

    def sweep():
        return {p: _run(p, seed) for p in periods}

    results = run_once(benchmark, sweep)
    print()
    print(f"{'probe period':>13s} {'hybrid error':>13s} {'overhead':>9s}")
    for period, (error, overhead) in results.items():
        label = f"{period:.0f}s" if period else "never"
        print(f"{label:>13s} {100 * error:12.1f}% {100 * overhead:8.2f}%")

    # Without probes the hybrid degenerates to raw load average and
    # inherits conundrum's ~50 % error; with the paper's 60 s probing it
    # is accurate.
    assert results[None][0] > 0.25
    assert results[60.0][0] < 0.10
    # Overhead scales inversely with the period and matches the paper's
    # ~2.5 % at the default (1.5 s probe / 60 s period).
    assert results[60.0][1] < 0.04
    assert results[15.0][1] > 2.0 * results[60.0][1]
    assert results[None][1] == 0.0
