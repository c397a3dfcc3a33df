"""Tests for repro.sensors (load average, vmstat, probe, hybrid)."""

import pytest

from repro.sensors.base import clamp_fraction
from repro.sensors.hybrid import HybridSensor
from repro.sensors.loadavg import LoadAverageSensor
from repro.sensors.probe import ProbeRunner
from repro.sensors.testprocess import TestProcessRunner
from repro.sensors.vmstat import VmstatSensor
from repro.sim.kernel import Kernel, KernelConfig
from repro.sim.process import Process


class TestClamp:
    def test_clamps(self):
        assert clamp_fraction(-0.5) == 0.0
        assert clamp_fraction(1.5) == 1.0
        assert clamp_fraction(0.3) == 0.3


class TestLoadAverageSensor:
    def test_idle_machine_reads_one(self):
        k = Kernel()
        k.run_until(10.0)
        sensor = LoadAverageSensor()
        assert sensor.read_availability(k) == pytest.approx(1.0, abs=0.01)

    def test_one_hog_reads_half(self):
        k = Kernel()
        k.spawn(Process("hog"))
        k.run_until(400.0)
        sensor = LoadAverageSensor()
        assert sensor.read_availability(k) == pytest.approx(0.5, abs=0.01)

    def test_formula_is_one_over_load_plus_one(self):
        k = Kernel()
        for i in range(3):
            k.spawn(Process(f"hog{i}"))
        k.run_until(600.0)
        sensor = LoadAverageSensor()
        expected = 1.0 / (k.load_average + 1.0)
        assert sensor.read_availability(k) == pytest.approx(expected)

    def test_ncpu_aware_variant(self):
        k = Kernel(KernelConfig(ncpu=4))
        k.spawn(Process("hog"))
        k.run_until(400.0)
        aware = LoadAverageSensor(ncpu_aware=True)
        # load ~1 on 4 CPUs: a newcomer still gets a full CPU.
        assert aware.read_availability(k) == pytest.approx(1.0)

    def test_last_reading(self):
        k = Kernel()
        sensor = LoadAverageSensor()
        with pytest.raises(ValueError):
            sensor.last_availability
        reading = sensor.read_availability(k)
        assert sensor.last_availability == reading


class TestVmstatSensor:
    def test_idle_machine_reads_one(self):
        k = Kernel()
        sensor = VmstatSensor()
        sensor.prime(k)
        k.run_until(10.0)
        assert sensor.read_availability(k) == pytest.approx(1.0, abs=0.02)

    def test_one_hog_reads_near_half(self):
        k = Kernel()
        sensor = VmstatSensor()
        k.spawn(Process("hog", sys_fraction=0.0))
        k.run_until(60.0)
        sensor.prime(k)
        k.run_until(120.0)
        # idle = 0, user = 1, rq -> 1: avail = (1 + 1*0)/2 = 0.5.
        assert sensor.read_availability(k) == pytest.approx(0.5, abs=0.05)

    def test_interval_fractions_tracked(self):
        k = Kernel()
        sensor = VmstatSensor()
        sensor.prime(k)
        k.spawn(Process("hog", sys_fraction=0.3))
        k.run_until(100.0)
        sensor.read_availability(k)
        assert sensor.last_sys == pytest.approx(0.3, abs=0.02)
        assert sensor.last_user == pytest.approx(0.7, abs=0.02)
        assert sensor.last_idle == pytest.approx(0.0, abs=0.02)

    def test_gateway_system_time_not_credited(self):
        # All-system load (w = user = 0): the sys share contributes
        # nothing, so availability equals idle + 0.
        k = Kernel()
        sensor = VmstatSensor()
        sensor.prime(k)
        k.spawn(Process("gateway", sys_fraction=1.0))
        k.run_until(100.0)
        avail = sensor.read_availability(k)
        assert avail == pytest.approx(0.0, abs=0.05)

    def test_double_read_same_instant_reuses_fractions(self):
        k = Kernel()
        sensor = VmstatSensor()
        sensor.prime(k)
        k.run_until(10.0)
        first = sensor.read_availability(k)
        second = sensor.read_availability(k)  # zero-length interval
        assert second == pytest.approx(first, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            VmstatSensor(smoothing=0.0)


class TestProbe:
    def test_probe_measures_idle_machine(self):
        k = Kernel()
        runner = ProbeRunner(duration=1.5)
        results = []
        runner.launch(k, results.append)
        k.run_until(5.0)
        assert len(results) == 1
        assert results[0].availability == pytest.approx(1.0, abs=0.01)
        assert results[0].end_time - results[0].start_time == pytest.approx(1.5, abs=0.11)

    def test_probe_shares_against_equal_process(self):
        k = Kernel()
        k.spawn(Process("fresh"))  # same age as probe
        runner = ProbeRunner()
        results = []
        runner.launch(k, results.append)
        k.run_until(5.0)
        assert results[0].availability == pytest.approx(0.5, abs=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbeRunner(duration=0.0)


class TestTestProcess:
    def test_observes_share(self):
        k = Kernel()
        k.spawn(Process("hog"))
        k.run_until(600.0)
        runner = TestProcessRunner(duration=10.0)
        runs = []
        runner.launch(k, runs.append)
        k.run_until(620.0)
        assert len(runs) == 1
        assert 0.4 < runs[0].observed < 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            TestProcessRunner(duration=-1.0)


class TestHybridSensor:
    def _make(self, kernel):
        la = LoadAverageSensor()
        vm = VmstatSensor()
        vm.prime(kernel)
        return la, vm, HybridSensor(la, vm, ProbeRunner(duration=1.5))

    def test_defaults_to_loadavg_before_first_probe(self):
        k = Kernel()
        la, vm, hybrid = self._make(k)
        k.run_until(10.0)
        la.read_availability(k)
        vm.read_availability(k)
        assert hybrid.trusted_method == "load_average"
        assert hybrid.bias == 0.0
        assert hybrid.read_availability(k) == pytest.approx(
            la.last_availability
        )

    def test_probe_corrects_nice_blindness(self):
        # The conundrum mechanism: soaker inflates cheap methods; probe
        # experiences ~1.0; hybrid reads near 1.0 afterwards.
        k = Kernel()
        la, vm, hybrid = self._make(k)
        k.spawn(Process("soak", nice=19))
        k.run_until(300.0)
        la.read_availability(k)
        vm.read_availability(k)
        hybrid.run_probe(k)
        k.run_until(305.0)
        la.read_availability(k)
        vm.read_availability(k)
        value = hybrid.read_availability(k)
        assert value > 0.9
        assert len(hybrid.arbitrations) == 1
        assert hybrid.bias > 0.3

    def test_probe_misled_by_aged_hog(self):
        # The kongo mechanism: probe preempts the hog, bias pushes the
        # hybrid far above what a 10 s process would see (~0.55).
        k = Kernel()
        la, vm, hybrid = self._make(k)
        k.spawn(Process("hog", nice=0))
        k.run_until(1800.0)
        la.read_availability(k)
        vm.read_availability(k)
        hybrid.run_probe(k)
        k.run_until(1805.0)
        la.read_availability(k)
        vm.read_availability(k)
        value = hybrid.read_availability(k)
        assert value > 0.7  # overestimate vs the ~0.55 truth

    def test_readings_clamped(self):
        k = Kernel()
        la, vm, hybrid = self._make(k)
        k.run_until(10.0)
        la.read_availability(k)
        vm.read_availability(k)
        hybrid._bias = 0.9  # force overshoot
        assert hybrid.read_availability(k) <= 1.0
