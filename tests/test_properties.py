"""Cross-cutting property-based tests (hypothesis) on system invariants.

These generate random workloads, series and parameters and assert the
invariants that everything else in the library silently relies on:
CPU-time conservation in the kernel, bounded sensor outputs, forecast
bounds, and aggregation linearity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.aggregate import aggregate_series
from repro.core.mixture import AdaptiveForecaster, forecast_series
from repro.sensors.loadavg import LoadAverageSensor
from repro.sensors.vmstat import VmstatSensor
from repro.sim.kernel import Kernel, KernelConfig
from repro.sim.process import Process

# Compact workload description: list of (spawn_time, demand, nice).
workload_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.5, max_value=30.0),
        st.integers(min_value=0, max_value=19),
    ),
    min_size=0,
    max_size=8,
)


class TestKernelConservation:
    @given(workload=workload_strategy, ncpu=st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_cpu_time_is_conserved(self, workload, ncpu):
        """user + sys + idle == ncpu * elapsed, for any workload."""
        k = Kernel(KernelConfig(ncpu=ncpu))
        for at, demand, nice in workload:
            k.at(at, lambda d=demand, n=nice: k.spawn(Process("p", cpu_demand=d, nice=n)))
        horizon = 80.0
        k.run_until(horizon)
        total = k.cum_user + k.cum_sys + k.cum_idle
        assert total == pytest.approx(ncpu * horizon, rel=1e-6)

    @given(workload=workload_strategy)
    @settings(max_examples=30, deadline=None)
    def test_per_process_time_matches_global(self, workload):
        """Sum of per-process CPU time == global busy counters."""
        k = Kernel()
        spawned = []

        def make(d, n):
            p = k.spawn(Process("p", cpu_demand=d, nice=n))
            spawned.append(p)

        for at, demand, nice in workload:
            k.at(at, lambda d=demand, n=nice: make(d, n))
        k.run_until(80.0)
        per_process = sum(p.cpu_time for p in spawned)
        assert per_process == pytest.approx(k.cum_user + k.cum_sys, abs=1e-6)

    @given(workload=workload_strategy)
    @settings(max_examples=20, deadline=None)
    def test_no_process_exceeds_demand(self, workload):
        k = Kernel()
        spawned = []

        def make(d, n):
            spawned.append(k.spawn(Process("p", cpu_demand=d, nice=n)))

        for at, demand, nice in workload:
            k.at(at, lambda d=demand, n=nice: make(d, n))
        k.run_until(200.0)
        for p in spawned:
            assert p.cpu_time <= p.cpu_demand + 1e-6

    @given(workload=workload_strategy)
    @settings(max_examples=20, deadline=None)
    def test_load_average_nonnegative_and_bounded(self, workload):
        k = Kernel()
        for at, demand, nice in workload:
            k.at(at, lambda d=demand, n=nice: k.spawn(Process("p", cpu_demand=d, nice=n)))
        peaks = []
        k.on_tick(lambda kern: peaks.append(kern.load_average))
        k.run_until(100.0)
        assert all(0.0 <= la <= len(workload) + 1 for la in peaks)


class TestSensorBounds:
    @given(workload=workload_strategy)
    @settings(max_examples=20, deadline=None)
    def test_sensors_always_in_unit_interval(self, workload):
        k = Kernel()
        la = LoadAverageSensor()
        vm = VmstatSensor()
        vm.prime(k)
        for at, demand, nice in workload:
            k.at(at, lambda d=demand, n=nice: k.spawn(Process("p", cpu_demand=d, nice=n)))
        for stop in (10.0, 30.0, 60.0, 90.0):
            k.run_until(stop)
            assert 0.0 <= la.read_availability(k) <= 1.0
            assert 0.0 <= vm.read_availability(k) <= 1.0


class TestForecastBounds:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=80
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_mixture_forecasts_within_data_hull(self, values):
        out = forecast_series(np.asarray(values), AdaptiveForecaster())
        finite = out[1:]
        assert np.all(finite >= min(values) - 1e-9)
        assert np.all(finite <= max(values) + 1e-9)

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=60
        ),
        m=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_aggregation_is_linear_and_mean_preserving(self, values, m):
        arr = np.asarray(values)
        if arr.size < m:
            return
        # Linearity: agg(a*x + b) == a*agg(x) + b.
        left = aggregate_series(2.0 * arr + 0.25, m)
        right = 2.0 * aggregate_series(arr, m) + 0.25
        np.testing.assert_allclose(left, right, atol=1e-12)


class TestFailureInjection:
    def test_constant_trace_forecasts_exactly(self):
        values = np.full(200, 0.42)
        out = forecast_series(values)
        np.testing.assert_allclose(out[1:], 0.42)

    def test_square_wave_bounded_error(self):
        # Worst realistic case: availability flips 0 <-> 1 every sample.
        values = np.tile([0.0, 1.0], 150).astype(float)
        out = forecast_series(values)
        err = np.abs(out[1:] - values[1:]).mean()
        assert err <= 1.0  # never worse than maximal
        # The mixture should settle near the best achievable (~0.5 via
        # means) rather than last-value's 1.0.
        assert err < 0.75

    def test_kernel_with_huge_event_burst(self):
        # 500 events at the same instant must all fire, in order.
        k = Kernel()
        fired = []
        for i in range(500):
            k.at(5.0, lambda i=i: fired.append(i))
        k.run_until(6.0)
        assert fired == list(range(500))

    def test_vmstat_survives_time_standing_still(self):
        k = Kernel()
        vm = VmstatSensor()
        vm.prime(k)
        first = vm.read_availability(k)  # zero-length interval at t=0
        assert 0.0 <= first <= 1.0

    def test_process_completing_exactly_at_tick_boundary(self):
        k = Kernel()
        p = k.spawn(Process("p", cpu_demand=1.0))  # finishes exactly at t=1
        k.run_until(2.0)
        assert p.done
        assert p.end_time == pytest.approx(1.0, abs=1e-6)
