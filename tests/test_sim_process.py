"""Tests for repro.sim.process."""

import math

import pytest

from repro.sim.kernel import Kernel
from repro.sim.process import Process, ProcessState


class TestValidation:
    def test_nice_range(self):
        Process("ok", nice=0)
        Process("ok", nice=19)
        with pytest.raises(ValueError):
            Process("bad", nice=-1)
        with pytest.raises(ValueError):
            Process("bad", nice=20)

    def test_cpu_demand_positive(self):
        with pytest.raises(ValueError):
            Process("bad", cpu_demand=0.0)
        with pytest.raises(ValueError):
            Process("bad", cpu_demand=-1.0)

    def test_sys_fraction_range(self):
        with pytest.raises(ValueError):
            Process("bad", sys_fraction=1.5)


class TestAccounting:
    def test_charge_splits_user_sys(self):
        kernel = Kernel()
        p = kernel.spawn(Process("p", sys_fraction=0.25))
        kernel.run_until(4.0)
        assert p.cpu_time == pytest.approx(4.0)
        assert p.sys_time == pytest.approx(1.0)
        assert p.user_time == pytest.approx(3.0)

    def test_remaining(self):
        p = Process("p", cpu_demand=10.0)
        p.cpu_time = 3.0
        assert p.remaining == pytest.approx(7.0)

    def test_infinite_demand_never_finishes(self):
        p = Process("daemon")
        p.cpu_time = 1e9
        assert p.remaining == math.inf

    def test_observed_availability(self):
        p = Process("p", cpu_demand=5.0)
        p.start_time = 0.0
        p.cpu_time = 5.0
        p.end_time = 10.0
        assert p.observed_availability == pytest.approx(0.5)

    def test_observed_availability_requires_completion(self):
        p = Process("p")
        with pytest.raises(ValueError):
            p.observed_availability

    def test_initial_state(self):
        p = Process("p")
        assert p.state is ProcessState.RUNNABLE
        assert p.pid == -1
        assert p.runnable and not p.done
