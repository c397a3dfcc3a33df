"""Tests for repro.runner: facade forms, parallelism, layering, metrics."""

from __future__ import annotations

import numpy as np
import pytest

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

from repro.experiments.testbed import HostRun, TestbedConfig
from repro.obs import Tracer, deterministic_view, traced
from repro.obs.metrics import MetricsRegistry, installed
from repro.runner import HostSimulationError, Runner, default_runner, parallel_map
from repro.runner import engine
from repro.workload.profiles import profile_names

#: Tiny config for tests that must actually simulate (not hit the shared
#: memo): half an hour past warmup keeps each run well under 100 ms.
TINY = TestbedConfig(duration=1800.0, seed=31)


def same_run(a: HostRun, b: HostRun) -> None:
    assert a.host == b.host
    assert a.config == b.config
    assert set(a.series) == set(b.series)
    for method in a.series:
        np.testing.assert_array_equal(a.series[method].times, b.series[method].times)
        np.testing.assert_array_equal(a.series[method].values, b.series[method].values)
    assert len(a.observations) == len(b.observations)
    np.testing.assert_array_equal(a.observed(), b.observed())
    for method in a.series:
        np.testing.assert_array_equal(
            a.premeasurements(method), b.premeasurements(method)
        )


class TestFacadeForms:
    def test_single_name_returns_hostrun(self):
        run = Runner().run("thing1", TINY)
        assert isinstance(run, HostRun)
        assert run.host == "thing1"

    def test_iterable_preserves_order(self):
        runs = Runner().run(("conundrum", "thing1"), TINY)
        assert [r.host for r in runs] == ["conundrum", "thing1"]

    def test_none_means_full_testbed_in_table_order(self, short_config):
        runs = default_runner().run(None, short_config)
        assert [r.host for r in runs] == profile_names()

    def test_duplicate_hosts_simulated_once(self):
        runner = Runner()
        runs = runner.run(("thing1", "thing1"), TINY)
        assert runs[0] is runs[1]
        assert runner.stats.misses == 1

    def test_run_one(self):
        runner = Runner()
        assert runner.run_one("thing1", TINY).host == "thing1"

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            Runner(jobs=0)


class TestParallelIdentity:
    def test_parallel_matches_serial_bitwise(self):
        serial = Runner(jobs=1).run(("thing1", "conundrum"), TINY)
        parallel = Runner(jobs=2).run(("thing1", "conundrum"), TINY)
        for s, p in zip(serial, parallel):
            same_run(s, p)

    def test_parallel_map_preserves_order(self):
        assert parallel_map(abs, [-3, 1, -2], jobs=2) == [3, 1, 2]

    def test_parallel_map_serial_path(self):
        assert parallel_map(abs, [-3], jobs=4) == [3]


class TestLayering:
    def test_memoization_returns_same_object(self):
        runner = Runner()
        a = runner.run("thing1", TINY)
        b = runner.run("thing1", TINY)
        assert a is b
        assert runner.stats.memory_hits == 1
        assert runner.stats.misses == 1

    def test_disk_cache_shared_across_runners(self, tmp_path):
        first = Runner(cache=tmp_path / "cache")
        run = first.run("thing1", TINY)
        assert first.persist() == 1
        second = Runner(cache=tmp_path / "cache")
        again = second.run("thing1", TINY)
        assert second.stats.disk_hits == 1
        assert second.stats.misses == 0
        same_run(run, again)

    def test_clear_memory_forces_disk_hit(self, tmp_path):
        runner = Runner(cache=tmp_path / "cache")
        runner.run("thing1", TINY)
        runner.persist()
        runner.clear_memory()
        runner.run("thing1", TINY)
        assert runner.stats.disk_hits == 1
        assert runner.stats.misses == 1

    def test_clear_disk_reports_removed(self, tmp_path):
        runner = Runner(cache=tmp_path / "cache")
        runner.run(("thing1", "conundrum"), TINY)
        runner.persist()
        assert runner.clear_disk() == 2
        assert runner.clear_disk() == 0

    def test_no_cache_runner_clear_disk_is_zero(self):
        assert Runner().clear_disk() == 0

    def test_stats_summary_format(self):
        runner = Runner()
        runner.run("thing1", TINY)
        summary = runner.stats.summary()
        assert "misses=1" in summary
        assert "sim_seconds=" in summary


def _flaky_simulate_one(failures: int):
    """A `_simulate_one` stand-in that fails ``failures`` times, then works."""
    real = engine._simulate_one
    remaining = {"n": failures}

    def job(name, config):
        if remaining["n"] > 0:
            remaining["n"] -= 1
            raise OSError(f"worker for {name} died")
        return real(name, config)

    return job


class _BrokenPool:
    """ProcessPoolExecutor stand-in whose every future is already broken."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_exception(BrokenProcessPool("a child process terminated"))
        return future


class TestRetries:
    def test_serial_failure_retried_and_counted(self, monkeypatch):
        monkeypatch.setattr(engine, "_simulate_one", _flaky_simulate_one(1))
        with installed(MetricsRegistry()) as registry:
            runner = Runner()
            run = runner.run_one("thing1", TINY)
        assert run.host == "thing1"
        assert runner.stats.retries == 1
        assert "retries=1" in runner.stats.summary()
        snap = registry.snapshot()
        assert snap["repro_runner_retries_total"]["samples"][0]["value"] == 1.0

    def test_retried_result_is_bit_identical(self, monkeypatch):
        clean = Runner().run_one("thing1", TINY)
        monkeypatch.setattr(engine, "_simulate_one", _flaky_simulate_one(2))
        retried = Runner().run_one("thing1", TINY)
        same_run(clean, retried)

    def test_exhausted_retries_name_the_host(self, monkeypatch):
        def always_fail(name, config):
            raise OSError(f"worker for {name} died")

        monkeypatch.setattr(engine, "_simulate_one", always_fail)
        runner = Runner()
        with pytest.raises(HostSimulationError, match="'conundrum'") as info:
            runner.run_one("conundrum", TINY)
        assert info.value.host == "conundrum"
        assert info.value.attempts == engine.MAX_HOST_RETRIES + 1
        assert runner.stats.retries == engine.MAX_HOST_RETRIES

    def test_broken_pool_falls_back_to_in_process(self, monkeypatch):
        clean = Runner(jobs=1).run(("thing1", "conundrum"), TINY)
        monkeypatch.setattr(engine, "ProcessPoolExecutor", _BrokenPool)
        runner = Runner(jobs=2)
        runs = runner.run(("thing1", "conundrum"), TINY)
        # Pool attempts count against the budget: one retry per host.
        assert runner.stats.retries == 2
        for c, r in zip(clean, runs):
            same_run(c, r)


class TestRunnerMetrics:
    def test_counters_track_cache_outcomes(self, tmp_path):
        registry = MetricsRegistry()
        with installed(registry):
            runner = Runner(cache=tmp_path / "cache")
            runner.run("thing1", TINY)
            runner.run("thing1", TINY)
        snap = registry.snapshot()
        misses = snap["repro_runner_cache_misses_total"]["samples"]
        assert misses[0]["value"] == 1.0
        hits = {
            s["labels"]["layer"]: s["value"]
            for s in snap["repro_runner_cache_hits_total"]["samples"]
        }
        assert hits["memory"] == 1.0
        assert snap["repro_runner_jobs"]["samples"][0]["value"] == 1.0
        hist = snap["repro_runner_host_seconds"]["samples"][0]
        assert hist["labels"]["host"] == "thing1"
        assert hist["count"] == 1


class TestTelemetry:
    """A simulation records into the sinks its own process has installed."""

    HOSTS = ("thing1", "conundrum")

    def test_serial_run_records_into_the_installed_sinks(self):
        registry = MetricsRegistry()
        tracer = Tracer(clock=lambda: 0.0)
        with installed(registry), traced(tracer):
            Runner().run(self.HOSTS, TINY)
        kernel = [s for s in tracer.spans if s.name == "kernel.run"]
        assert [s.attrs["host"] for s in kernel] == list(self.HOSTS)
        assert all(s.end == pytest.approx(TINY.duration) for s in kernel)
        ticks = registry.snapshot()["repro_sim_ticks_total"]["samples"]
        assert [s["labels"]["host"] for s in ticks] == sorted(self.HOSTS)
        assert all(s["value"] > 0.0 for s in ticks)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_host_seconds_observation_per_simulated_host(self, jobs):
        registry = MetricsRegistry()
        runner = Runner(jobs=jobs)
        with installed(registry):
            runner.run(self.HOSTS, TINY)
        snapshot = registry.snapshot()
        samples = snapshot["repro_runner_host_seconds"]["samples"]
        assert {s["labels"]["host"]: s["count"] for s in samples} == {
            host: 1 for host in self.HOSTS
        }
        assert all(s["sum"] > 0.0 for s in samples)
        assert "repro_runner_host_seconds" not in deterministic_view(snapshot)
        # A pool worker's own telemetry stays in the worker.
        assert ("repro_sim_ticks_total" in snapshot) == (jobs == 1)
