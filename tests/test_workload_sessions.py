"""Tests for repro.workload.sessions and jobs."""

import numpy as np
import pytest

from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.workload.distributions import Exponential, Fixed
from repro.workload.jobs import BatchJobStream, Daemon, PeriodicJob
from repro.workload.sessions import InteractiveSession, OnOffSession, attach_io_pattern
from repro.workload.arrivals import PoissonArrivals


class TestOnOffSession:
    def test_alternates_on_off(self):
        k = Kernel()
        session = OnOffSession(
            "u",
            on_time=Fixed(5.0),
            off_time=Fixed(10.0),
            initial_delay=0.0,
            io_interval=None,
        )
        session.start(k, np.random.default_rng(0))
        k.run_until(100.0)
        # Cycle = 5 s ON (alone, full speed) + 10 s OFF = 15 s.
        assert session.bursts_started == pytest.approx(100 / 15.0, abs=1.5)
        # Machine busy exactly during ON periods.
        assert k.cum_user + k.cum_sys == pytest.approx(session.bursts_started * 5.0, rel=0.25)

    def test_processes_named_by_user(self):
        k = Kernel()
        session = OnOffSession("alice", on_time=Fixed(100.0), initial_delay=0.0)
        session.start(k, np.random.default_rng(1))
        k.run_until(1.0)
        assert any(p.name == "alice:on" for p in k.processes)

    def test_nice_passed_through(self):
        k = Kernel()
        session = OnOffSession("u", nice=19, on_time=Fixed(100.0), initial_delay=0.0)
        session.start(k, np.random.default_rng(2))
        k.run_until(1.0)
        assert k.processes[0].nice == 19


class TestInteractiveSession:
    def test_bursts_happen_within_sessions(self):
        k = Kernel()
        session = InteractiveSession(
            "u",
            session_time=Fixed(50.0),
            logout_time=Fixed(50.0),
            burst=Fixed(1.0),
            think=Exponential(2.0),
        )
        session.start(k, np.random.default_rng(3))
        k.run_until(500.0)
        assert session.sessions_started >= 3
        assert session.bursts_started > session.sessions_started

    def test_idle_while_logged_out(self):
        k = Kernel()
        session = InteractiveSession(
            "u",
            session_time=Fixed(10.0),
            logout_time=Fixed(1000.0),
            burst=Fixed(0.5),
            think=Exponential(1.0),
        )
        session.start(k, np.random.default_rng(4))
        k.run_until(900.0)  # still inside the first logout period
        assert k.cum_user + k.cum_sys == 0.0


class TestIoPattern:
    def test_process_sleeps_periodically(self):
        k = Kernel()
        p = k.spawn(Process("job"))
        attach_io_pattern(k, p, interval=1.0, wait=0.5)
        k.run_until(30.0)
        # With 1 s run / 0.5 s wait the job accrues ~2/3 of wall time.
        assert p.cpu_time == pytest.approx(20.0, rel=0.15)

    def test_stops_after_completion(self):
        k = Kernel()
        p = k.spawn(Process("job", cpu_demand=2.0))
        attach_io_pattern(k, p, interval=1.0, wait=0.2)
        k.run_until(60.0)  # must not raise after the job exits
        assert p.done

    def test_validation(self):
        k = Kernel()
        p = k.spawn(Process("job"))
        with pytest.raises(ValueError):
            attach_io_pattern(k, p, interval=0.0, wait=0.1)


class TestDaemon:
    def test_spawns_at_attach_and_accrues_cpu(self):
        k = Kernel()
        d = Daemon("soaker")
        d.start(k, np.random.default_rng(5))
        assert d.process is not None
        k.run_until(10.0)
        assert d.process.cpu_time == pytest.approx(10.0, rel=0.1)


class TestBatchJobStream:
    def test_jobs_arrive_and_run(self):
        k = Kernel()
        stream = BatchJobStream(
            "b",
            arrivals=PoissonArrivals(1.0 / 20.0),
            demand=Fixed(2.0),
            io_interval=None,
        )
        stream.start(k, np.random.default_rng(6))
        k.run_until(1000.0)
        assert stream.jobs_started == pytest.approx(50, abs=20)
        assert k.cum_user + k.cum_sys == pytest.approx(stream.jobs_started * 2.0, rel=0.05)

    def test_admission_cap(self):
        k = Kernel()
        stream = BatchJobStream(
            "b",
            arrivals=PoissonArrivals(1.0),  # one per second
            demand=Fixed(1000.0),  # never finishes within the run
            max_concurrent=3,
            io_interval=None,
        )
        stream.start(k, np.random.default_rng(7))
        k.run_until(60.0)
        assert sum(1 for p in k.processes if p.name == "b:job") == 3
        assert stream.jobs_dropped > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchJobStream("b", max_concurrent=0)


class TestPeriodicJob:
    def test_fires_every_period(self):
        k = Kernel()
        job = PeriodicJob("cron", period=100.0, demand=1.0, offset=0.0)
        job.start(k, np.random.default_rng(8))
        k.run_until(950.0)
        assert job.runs == 10  # t = 0, 100, ..., 900

    def test_skips_if_previous_still_running(self):
        k = Kernel()
        # Demand exceeds the period on an otherwise idle machine? No --
        # make contention: a hog halves the cron job's speed.
        k.spawn(Process("hog"))
        job = PeriodicJob("cron", period=10.0, demand=9.0, offset=0.0)
        job.start(k, np.random.default_rng(9))
        k.run_until(100.0)
        # Each run needs ~18 s of wall; roughly every other firing skips.
        assert job.runs <= 7

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicJob("x", period=0.0, demand=1.0)
        with pytest.raises(ValueError):
            PeriodicJob("x", period=10.0, demand=-1.0)
        with pytest.raises(ValueError):
            PeriodicJob("x", period=10.0, demand=1.0, offset=-1.0)
