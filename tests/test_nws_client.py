"""NWSClient facade: transport parity, tenancy, keyword-normalized API.

The structural guarantee under test: both transports execute the same
:class:`~repro.nws.service.ServiceCore`, so every payload -- forecasts,
fetch windows, registrations, typed errors -- must be identical whether
the service is an object or a socket away.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.nws import (
    ForecastServer,
    NWSClient,
    NWSSystem,
    RegistrationLapsed,
    SeriesUnavailable,
    ServiceCore,
    UnknownTenant,
)
from repro.nws.wire import canonical, encode_fetch, encode_report
from tests.test_nws_server import OVERSIZED_FIELDS


def fill(client: NWSClient, series: str = "cpu.a", n: int = 64) -> str:
    rng = np.random.default_rng(3)
    for i in range(n):
        client.publish(series, time=10.0 * i, value=float(rng.random()))
    return series


@pytest.fixture()
def server():
    with ForecastServer(tenants=("default", "hpc")) as srv:
        yield srv


class TestInProcess:
    def test_publish_fetch_query(self):
        with NWSClient.in_process() as client:
            series = fill(client)
            times, values = client.fetch(series)
            assert len(times) == 64
            report = client.query(series)
            assert report.series == series
            assert report.n_measurements == 64
            assert 0.0 <= report.forecast <= 1.0

    def test_fetch_window_keywords(self):
        with NWSClient.in_process() as client:
            series = fill(client)
            times, _ = client.fetch(series, start=100.0, stop=200.0)
            assert times[0] >= 100.0 and times[-1] <= 200.0
            times, _ = client.fetch(series, limit=5)
            assert len(times) == 5

    def test_signatures_are_keyword_only(self):
        with NWSClient.in_process() as client:
            series = fill(client)
            with pytest.raises(TypeError):
                client.publish(series, 640.0, 0.5)
            with pytest.raises(TypeError):
                client.fetch(series, 0.0)
            with pytest.raises(TypeError):
                client.query(series, 3)

    def test_unknown_series_typed(self):
        with NWSClient.in_process() as client:
            with pytest.raises(SeriesUnavailable):
                client.query("nope")

    def test_tenancy_isolated(self):
        core = ServiceCore(tenants=("a", "b"))
        a = NWSClient.in_process(core, tenant="a")
        b = a.for_tenant("b")
        fill(a, "cpu.shared")
        assert b.series_names() == []
        with pytest.raises(UnknownTenant):
            a.for_tenant("c").series_names()

    def test_core_or_kwargs_not_both(self):
        with pytest.raises(ValueError):
            NWSClient.in_process(ServiceCore(), memory_capacity=10)

    def test_registration_lifecycle(self):
        with NWSClient.in_process(clock=lambda: 0.0) as client:
            client.register("sensor.x", "sensor", {"host": "x"}, ttl=30.0)
            assert [r.name for r in client.lookup("sensor")] == ["sensor.x"]
            client.refresh("sensor.x", ttl=60.0)
            with pytest.raises(RegistrationLapsed):
                client.refresh("sensor.never", ttl=60.0)


class TestForSystem:
    def test_client_matches_system_forecaster(self):
        system = NWSSystem(["thing1"], seed=2)
        system.advance(600.0)
        client = system.client()
        series = system.series_name("thing1")
        report = client.query(series)
        direct = system.forecaster.query(series)
        assert report.forecast == direct.forecast
        assert series in client.series_names()

    def test_client_is_cached(self):
        system = NWSSystem(["thing1"], seed=2)
        assert system.client() is system.client()


class TestTransportParity:
    def test_payloads_identical(self, server):
        local = NWSClient.in_process()
        remote = NWSClient.connect(server.url)
        rng = np.random.default_rng(9)
        stamps = [(10.0 * i, float(rng.random())) for i in range(96)]
        for client in (local, remote):
            for t, v in stamps:
                client.publish("cpu.par", time=t, value=v)
            client.register("sensor.par", "sensor", {"host": "par"}, ttl=1e9)

        local_report = local.query("cpu.par", horizon=3)
        remote_report = remote.query("cpu.par", horizon=3)
        assert canonical(encode_report(local_report)) == canonical(
            encode_report(remote_report)
        )

        lt, lv = local.fetch("cpu.par", start=100.0, limit=17)
        rt, rv = remote.fetch("cpu.par", start=100.0, limit=17)
        assert canonical(encode_fetch("cpu.par", lt, lv)) == canonical(
            encode_fetch("cpu.par", rt, rv)
        )
        assert rt.dtype == np.float64 and rv.dtype == np.float64

        assert local.series_names() == remote.series_names()
        assert [r.name for r in local.lookup("sensor")] == [
            r.name for r in remote.lookup("sensor")
        ]
        remote.close()

    def test_query_all_parity(self, server):
        local = NWSClient.in_process()
        remote = NWSClient.connect(server.url)
        for client in (local, remote):
            fill(client, "cpu.a", 32)
            fill(client, "cpu.b", 32)
        local_all = local.query_all()
        remote_all = remote.query_all()
        assert set(local_all) == set(remote_all) == {"cpu.a", "cpu.b"}
        for name in local_all:
            assert canonical(encode_report(local_all[name])) == canonical(
                encode_report(remote_all[name])
            )
        remote.close()

    def test_typed_errors_identical(self, server):
        remote = NWSClient.connect(server.url)
        with pytest.raises(SeriesUnavailable) as info:
            remote.query("cpu.ghost")
        assert info.value.series == "cpu.ghost"
        with pytest.raises(UnknownTenant) as info:
            remote.for_tenant("nobody").series_names()
        assert info.value.tenant == "nobody"
        assert "default" in info.value.known
        with pytest.raises(RegistrationLapsed):
            remote.refresh("sensor.ghost", ttl=5.0)
        with pytest.raises(ValueError):
            remote.query("cpu.ghost", horizon=0)
        remote.close()

    @pytest.mark.parametrize(
        "op, body, field",
        OVERSIZED_FIELDS,
        ids=[f"{op}-{field}" for op, _, field in OVERSIZED_FIELDS],
    )
    def test_oversized_numbers_are_value_errors(self, server, op, body, field):
        # Both transports validate like the server: a ValueError naming
        # the field, never a bare OverflowError.
        args = json.loads(body)
        positional = [args.pop(key) for key in ("series", "name", "kind") if key in args]
        local = NWSClient.in_process()
        remote = NWSClient.connect(server.url)
        for client in (local, remote):
            client.publish("s", time=0.0, value=0.5)
            client.register("a", "sensor", ttl=60.0)
            with pytest.raises(ValueError, match=f"bad value for field {field!r}"):
                getattr(client, op)(*positional, **args)
        remote.close()

    def test_http_tenancy(self, server):
        remote = NWSClient.connect(server.url, tenant="hpc")
        fill(remote, "cpu.hpc-only", 16)
        assert remote.series_names() == ["cpu.hpc-only"]
        assert remote.for_tenant("default").series_names() == []
        health = remote.health()
        assert health["tenants"]["hpc"]["series"] == 1
        remote.close()

    def test_connect_rejects_non_http(self):
        with pytest.raises(ValueError):
            NWSClient.connect("ftp://example:1")
