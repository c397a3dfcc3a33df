"""End-to-end observability: instrumented sim + NWS runs.

Covers the obs acceptance criteria: the Prometheus export of an
instrumented run covers the sim, sensor, forecaster and memory layers, and
two runs with the same seed produce byte-identical JSON-lines traces.
"""

import pytest

from repro.nws import NWSSystem
from repro.obs import (
    MetricsRegistry,
    Tracer,
    installed,
    observe_kernel,
    render_jsonl,
    render_prometheus,
    traced,
)
from repro.obs.dashboard import render_dashboard
from repro.sim.kernel import Kernel
from repro.sim.process import Process

HOURS = 0.25  # simulated; enough for probes, tests and forecaster scoring


def _instrumented_run(seed: int = 7, hours: float = HOURS):
    registry = MetricsRegistry()
    with installed(registry):
        system = NWSSystem(["thing1"], seed=seed)
        tracer = Tracer(clock=lambda: system.clock)
        with traced(tracer):
            system.advance(hours * 3600.0)
            reports = system.forecaster.query_all()
    return registry, tracer, system, reports


@pytest.fixture(scope="module")
def run():
    return _instrumented_run()


class TestKernelInstrumentation:
    def test_collect_gauges_track_kernel_state(self):
        registry = MetricsRegistry()
        with installed(registry):
            kernel = Kernel()
            observe_kernel(kernel, host="h")
            kernel.spawn(Process("spin", cpu_demand=5.0))
            kernel.run_until(30.0)
        snap = registry.snapshot()

        def value(name):
            return snap[name]["samples"][0]["value"]

        assert value("repro_sim_time_seconds") == 30.0
        assert value("repro_sim_ticks_total") == 30
        assert value("repro_sim_processes_spawned_total") == 1
        assert value("repro_sim_processes_completed_total") == 1
        assert snap["repro_sim_time_seconds"]["samples"][0]["labels"] == {
            "host": "h"
        }

    def test_cpu_seconds_split_by_mode(self):
        registry = MetricsRegistry()
        with installed(registry):
            kernel = Kernel()
            observe_kernel(kernel)
            kernel.spawn(Process("spin", cpu_demand=4.0, sys_fraction=0.25))
            kernel.run_until(10.0)
        samples = registry.snapshot()["repro_sim_cpu_seconds_total"]["samples"]
        by_mode = {s["labels"]["mode"]: s["value"] for s in samples}
        assert by_mode["user"] == pytest.approx(3.0)
        assert by_mode["sys"] == pytest.approx(1.0)
        assert by_mode["idle"] == pytest.approx(6.0)

    def test_two_kernels_of_one_host_add_their_counters(self):
        # A report simulates one host per run configuration into the
        # same registry: counters add, gauges follow the newest kernel.
        registry = MetricsRegistry()
        with installed(registry):
            for until in (30.0, 20.0):
                kernel = Kernel()
                observe_kernel(kernel, host="h")
                kernel.run_until(until)
        snap = registry.snapshot()
        [ticks] = snap["repro_sim_ticks_total"]["samples"]
        [clock] = snap["repro_sim_time_seconds"]["samples"]
        assert ticks["value"] == 50
        assert clock["value"] == 20.0

    def test_uninstrumented_kernel_costs_nothing_extra(self):
        # With the null registry installed (the default), the same run
        # works and no metric state accumulates anywhere.
        kernel = Kernel()
        observe_kernel(kernel)
        kernel.spawn(Process("spin", cpu_demand=1.0))
        kernel.run_until(5.0)
        assert kernel.n_ticks == 5  # always-on tallies still advance


class TestSystemCoverage:
    def test_prometheus_covers_all_layers(self, run):
        registry, _, _, _ = run
        text = render_prometheus(registry)
        for family in (
            "repro_sim_time_seconds",
            "repro_sim_events_fired_total",
            "repro_sensor_readings_total",
            "repro_sensor_probes_total",
            "repro_sensor_probe_availability_bucket",
            "repro_forecaster_updates_total",
            "repro_forecaster_wins",
            "repro_memory_publishes_total",
            "repro_nameserver_registrations_total",
            "repro_nws_publish_rounds_total",
        ):
            assert family in text, family

    def test_sensible_magnitudes(self, run):
        registry, _, system, _ = run
        snap = registry.snapshot()
        rounds = snap["repro_nws_publish_rounds_total"]["samples"][0]["value"]
        # One reading per 10 s measure period.
        assert rounds == pytest.approx(HOURS * 3600.0 / 10.0, abs=2)
        publishes = sum(
            s["value"] for s in snap["repro_memory_publishes_total"]["samples"]
        )
        assert publishes == rounds * 3  # three methods per round
        probes = snap["repro_sensor_probes_total"]["samples"][0]["value"]
        assert probes == pytest.approx(HOURS * 3600.0 / 60.0, abs=2)

    def test_forecaster_telemetry_present_per_member(self, run):
        registry, _, _, reports = run
        snap = registry.snapshot()
        wins = snap["repro_forecaster_wins"]["samples"]
        series_seen = {s["labels"]["series"] for s in wins}
        assert series_seen == set(reports)
        total_wins = sum(s["value"] for s in wins)
        assert total_wins > 0

    def test_spans_recorded_from_sim_clock(self, run):
        _, tracer, _, _ = run
        names = {s.name for s in tracer.spans}
        assert {"nws.advance", "nws.query", "sensor.probe"} <= names
        assert all(s.end >= s.start >= 0.0 for s in tracer.spans)

    def test_dashboard_renders(self, run):
        registry, tracer, system, reports = run
        text = render_dashboard(
            registry, tracer=tracer, memory=system.memory, reports=reports
        )
        assert "OBSERVABILITY DASHBOARD" in text
        assert "Forecaster battery" in text
        assert "Spans" in text


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self):
        first = _instrumented_run(seed=11)
        second = _instrumented_run(seed=11)
        a = render_jsonl(first[0], first[1])
        b = render_jsonl(second[0], second[1])
        assert a == b

    def test_different_seeds_differ(self):
        # thing1's workload needs a while to diverge: the load-average
        # filter smooths out the first few stochastic decisions.
        a = _instrumented_run(seed=11, hours=2.0)
        b = _instrumented_run(seed=12, hours=2.0)
        assert render_jsonl(a[0], a[1]) != render_jsonl(b[0], b[1])
