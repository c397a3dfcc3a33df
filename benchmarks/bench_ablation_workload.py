"""Ablation: the workload's Pareto tail index controls the traces' Hurst.

DESIGN.md substitutes real user load with superposed heavy-tailed ON/OFF
sources, justified by the Willinger et al. limit H = (3 - alpha) / 2.
This bench sweeps alpha and checks the measured availability-trace Hurst
parameter moves the right way: heavier tails (smaller alpha) give larger
H, and exponential (light-tailed) ON/OFF pushes H toward 1/2.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis.hurst import hurst_rs
from repro.sensors.suite import MeasurementSuite
from repro.sim.host import SimHost
from repro.workload.distributions import Exponential, Pareto
from repro.workload.sessions import OnOffSession

HOURS12 = 12 * 3600.0


def _trace_hurst(on_dist_factory, seed: int) -> float:
    host = SimHost("ablation", seed=seed)
    sources = [
        OnOffSession(
            f"u{i}",
            on_time=on_dist_factory(),
            off_time=on_dist_factory(),
            io_interval=None,
        )
        for i in range(8)
    ]
    host.attach(*sources)
    suite = MeasurementSuite(test_period=None).attach(host)
    host.run_until(HOURS12)
    _, values = suite.series("load_average")
    return hurst_rs(values).value


def test_workload_ablation(benchmark, seed):
    def sweep():
        results = {}
        for alpha in (1.2, 1.6, 1.95):
            results[f"pareto_{alpha}"] = _trace_hurst(
                lambda a=alpha: Pareto(a, 20.0), seed
            )
        results["exponential"] = _trace_hurst(lambda: Exponential(53.0), seed)
        return results

    results = run_once(benchmark, sweep)
    print()
    for name, hurst in results.items():
        expected = (
            f"(theory H={(3 - float(name.split('_')[1])) / 2:.2f})"
            if name.startswith("pareto")
            else "(light-tailed)"
        )
        print(f"  {name:14s} H = {hurst:.3f} {expected}")

    # Heavier tail => larger Hurst; exponential is the smallest.
    assert results["pareto_1.2"] > results["pareto_1.95"]
    assert results["exponential"] < results["pareto_1.2"]
    # Every Pareto case lands in the self-similar band.
    for alpha in (1.2, 1.6, 1.95):
        assert 0.5 < results[f"pareto_{alpha}"] < 1.0
