"""Tests for repro.workload.replay (trace-driven background load)."""

import numpy as np
import pytest

from repro.sensors.loadavg import LoadAverageSensor
from repro.sim.host import SimHost
from repro.trace.series import TraceSeries
from repro.workload.replay import TraceReplayWorkload


def step_trace(levels, step=60.0):
    times = step * np.arange(len(levels))
    return TraceSeries("src", "load_average", times, np.asarray(levels))


class TestValidation:
    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            TraceReplayWorkload(step_trace([0.5]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TraceReplayWorkload(step_trace([0.5, 1.5]))


class TestReplayFidelity:
    def _replayed_availability(self, levels, settle=240.0, step=300.0):
        """Replay a piecewise-constant trace; sample the load-average
        availability near the end of each segment."""
        host = SimHost("replay", seed=0)
        host.attach(TraceReplayWorkload(step_trace(levels, step)))
        sensor = LoadAverageSensor()
        readings = []
        for i in range(len(levels)):
            host.run_until(i * step + settle + 50.0)
            readings.append(sensor.read_availability(host.kernel))
        return readings

    def test_full_availability_segment(self):
        readings = self._replayed_availability([1.0, 1.0])
        for r in readings:
            assert r == pytest.approx(1.0, abs=0.05)

    def test_half_availability_segment(self):
        # availability 0.5 <=> one competing spinner.
        readings = self._replayed_availability([0.5, 0.5])
        for r in readings:
            assert r == pytest.approx(0.5, abs=0.07)

    def test_third_availability_segment(self):
        readings = self._replayed_availability([1.0 / 3.0, 1.0 / 3.0])
        for r in readings:
            assert r == pytest.approx(1.0 / 3.0, abs=0.07)

    def test_fractional_load_reproduced(self):
        # availability 0.8 <=> implied load 0.25: duty-cycled process.
        readings = self._replayed_availability([0.8, 0.8])
        for r in readings:
            assert r == pytest.approx(0.8, abs=0.1)

    def test_tracks_level_changes(self):
        readings = self._replayed_availability([1.0, 0.5, 1.0])
        assert readings[0] > 0.9
        assert readings[1] == pytest.approx(0.5, abs=0.1)
        assert readings[2] > 0.85


class TestReplayLifecycle:
    def test_stops_at_trace_end(self):
        host = SimHost("replay", seed=0)
        workload = TraceReplayWorkload(step_trace([0.5, 0.5], step=100.0))
        host.attach(workload)
        host.run_until(500.0)
        # After the trace ends, the machine drains to idle.
        assert host.kernel.run_queue_length == 0
        assert workload.samples_replayed == 2

    def test_loop_restarts(self):
        host = SimHost("replay", seed=0)
        workload = TraceReplayWorkload(step_trace([0.5, 0.5], step=100.0), loop=True)
        host.attach(workload)
        host.run_until(850.0)
        assert workload.samples_replayed >= 6
        assert host.kernel.run_queue_length >= 1
