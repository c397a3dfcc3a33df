"""SMP-specific kernel and sensor behaviour (the ncpu > 1 extension)."""

import pytest

from repro.sensors.loadavg import LoadAverageSensor
from repro.sim.kernel import Kernel, KernelConfig
from repro.sim.process import Process


class TestSmpDispatch:
    def test_three_procs_two_cpus_share(self):
        k = Kernel(KernelConfig(ncpu=2))
        procs = [k.spawn(Process(f"p{i}", cpu_demand=40.0)) for i in range(3)]
        k.run_until(70.0)
        # 3 procs on 2 CPUs: each gets ~2/3 of a CPU (quantum rotation
        # leaves a little asymmetry, and whoever finishes first briefly
        # frees capacity for the rest).
        for p in procs:
            assert p.done
            assert p.observed_availability == pytest.approx(2.0 / 3.0, abs=0.09)
        # Work conservation: 120 CPU-seconds over 2 CPUs = 60 s wall.
        assert max(p.end_time for p in procs) == pytest.approx(60.0, abs=1.0)

    def test_load_average_counts_all_runnable(self):
        k = Kernel(KernelConfig(ncpu=4))
        for i in range(3):
            k.spawn(Process(f"hog{i}"))
        k.run_until(400.0)
        # Load average is run-queue length, independent of CPU count.
        assert k.load_average == pytest.approx(3.0, abs=0.05)

    def test_no_multi_dispatch_of_one_process(self):
        # A single process must never consume more than 1 CPU-second per
        # wall second even with idle CPUs available.
        k = Kernel(KernelConfig(ncpu=4))
        p = k.spawn(Process("p"))
        k.run_until(50.0)
        assert p.cpu_time == pytest.approx(50.0, rel=0.01)

    def test_throughput_scales_with_ncpu(self):
        done_counts = {}
        for ncpu in (1, 2):
            k = Kernel(KernelConfig(ncpu=ncpu))
            finished = []
            for i in range(8):
                k.spawn(
                    Process(f"job{i}", cpu_demand=10.0, on_done=finished.append)
                )
            k.run_until(45.0)
            done_counts[ncpu] = len(finished)
        assert done_counts[2] >= 2 * done_counts[1] - 1


class TestSmpSensing:
    def test_plain_formula_underestimates_on_smp(self):
        k = Kernel(KernelConfig(ncpu=4))
        k.spawn(Process("hog"))
        k.run_until(400.0)
        plain = LoadAverageSensor(ncpu_aware=False).read_availability(k)
        aware = LoadAverageSensor(ncpu_aware=True).read_availability(k)
        # Truth: three CPUs idle -> a newcomer gets a full CPU.
        assert plain == pytest.approx(0.5, abs=0.02)
        assert aware == pytest.approx(1.0, abs=0.02)

    def test_aware_formula_saturates_at_one(self):
        k = Kernel(KernelConfig(ncpu=2))
        k.run_until(10.0)
        assert LoadAverageSensor(ncpu_aware=True).read_availability(k) == 1.0

    def test_aware_formula_below_one_when_oversubscribed(self):
        k = Kernel(KernelConfig(ncpu=2))
        for i in range(4):
            k.spawn(Process(f"hog{i}"))
        k.run_until(400.0)
        aware = LoadAverageSensor(ncpu_aware=True).read_availability(k)
        # Load 4 on 2 CPUs: newcomer expects 2/(4+1) = 0.4.
        assert aware == pytest.approx(0.4, abs=0.03)
