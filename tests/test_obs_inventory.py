"""Every metric a running system exports is named in the ``repro.obs`` inventory.

The inventory in the :mod:`repro.obs` package docstring is the one
catalogue of what a running system exports.  This test checks what
actually reaches a registry, literal and run-time names alike: a short
report, an ``obs`` run and a loadtest served over HTTP, each under its
own registry, must export only metric families the inventory names.
"""

from __future__ import annotations

import json
import re

import repro.obs
from repro.cli import main
from repro.nws import ForecastServer, NWSClient
from repro.nws.loadtest import LoadtestConfig, run_loadtest
from repro.obs import MetricsRegistry, installed

#: A loadtest that touches every operation kind in a few hundred requests.
LOADTEST = LoadtestConfig(series=24, clients=2, operations=300, seed=3, jobs=1)


def inventory() -> frozenset[str]:
    return frozenset(re.findall(r"repro_[a-z0-9_]+", repro.obs.__doc__ or ""))


def undocumented(names) -> list[str]:
    """The metric families in ``names`` the inventory does not name."""
    return sorted(set(names) - inventory())


def report_families(tmp_path) -> set[str]:
    registry = MetricsRegistry()
    with installed(registry):
        rc = main(
            ["report", str(tmp_path / "report"), "--hours", "1",
             "--figure3-days", "0.5", "--no-cache"]
        )
    assert rc == 0
    return set(registry.snapshot())


def obs_families(capsys) -> set[str]:
    capsys.readouterr()
    rc = main(["obs", "--hours", "0.25", "--profiles", "thing1", "--format", "json"])
    assert rc == 0
    events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return {event["name"] for event in events if event.get("type") == "metric"}


def served_families() -> set[str]:
    registry = MetricsRegistry()
    with installed(registry):
        with ForecastServer(tenants=LOADTEST.tenants) as server:
            with NWSClient.connect(server.url) as base:
                run_loadtest(base.for_tenant, LOADTEST)
                status, payload = server.dispatch("GET", "/v1/metrics", {})
    assert status == 200
    return set(payload["metrics"]) | set(registry.snapshot())


def test_exported_metric_families_are_inventoried(tmp_path, capsys):
    report = report_families(tmp_path)
    obs = obs_families(capsys)
    served = served_families()
    # Each run exports the layer it exercises.
    assert "repro_sim_ticks_total" in report
    assert "repro_sensor_readings_total" in obs
    assert "repro_server_requests_total" in served
    assert undocumented(report | obs | served) == []


def test_an_undocumented_counter_is_caught():
    registry = MetricsRegistry()
    registry.counter("repro_memory_publishes_total", series="a").inc()
    assert undocumented(registry.snapshot()) == []
    registry.counter("repro_memory_undocumented_total").inc()
    assert undocumented(registry.snapshot()) == ["repro_memory_undocumented_total"]
