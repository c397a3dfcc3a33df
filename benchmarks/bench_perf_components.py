"""Throughput microbenchmarks of the library's hot components.

These use pytest-benchmark's normal multi-round timing (unlike the
artifact benches, which run once).  They guard against performance
regressions in the pieces that dominate experiment wall time:

* the simulator kernel under contention;
* the NWS mixture's per-measurement update;
* FFT ACF and R/S analysis on day-length traces;
* Davies-Harte fGn synthesis.
"""

import numpy as np

from repro.analysis.acf import acf
from repro.analysis.fgn import fgn
from repro.analysis.rs import pox_plot_data
from repro.core.mixture import AdaptiveForecaster
from repro.sim.kernel import Kernel
from repro.sim.process import Process


def test_kernel_contended_hour(benchmark):
    """Simulate one contended hour (3 CPU-bound processes)."""

    def run():
        k = Kernel()
        for i in range(3):
            k.spawn(Process(f"hog{i}"))
        k.run_until(3600.0)
        return k.time

    result = benchmark(run)
    assert result > 3600.0 - 1e-6


def test_kernel_idle_day(benchmark):
    """An idle simulated day must be nearly free (fluid fast path)."""

    def run():
        k = Kernel()
        k.run_until(86400.0)
        return k.time

    result = benchmark(run)
    assert result > 86400.0 - 1e-6


def test_mixture_updates(benchmark):
    """1000 streaming mixture updates (the per-measurement cost)."""
    rng = np.random.default_rng(0)
    values = np.clip(rng.normal(0.7, 0.1, size=1000), 0.0, 1.0)

    def run():
        model = AdaptiveForecaster()
        for v in values:
            model.update(float(v))
        return model.forecast()

    result = benchmark(run)
    assert 0.0 <= result <= 1.0


def test_acf_day_trace(benchmark):
    """360-lag ACF of a day of 10 s measurements (8640 samples)."""
    x = fgn(8640, 0.7, rng=1)
    result = benchmark(acf, x, 360)
    assert result[0] == 1.0


def test_pox_week_trace(benchmark):
    """Pox-plot analysis of a week of 10 s measurements (60480 samples)."""
    x = fgn(60480, 0.7, rng=2)
    result = benchmark(pox_plot_data, x)
    assert 0.5 < result.hurst < 1.0


def test_fgn_synthesis(benchmark):
    """Exact synthesis of 2^16 fGn samples."""
    result = benchmark(fgn, 1 << 16, 0.75, rng=3)
    assert result.shape == (1 << 16,)
