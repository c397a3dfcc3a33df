"""ForecastServer: HTTP routing, maintenance cycle, retention compaction.

Dispatch tests call :meth:`ForecastServer.dispatch` directly (no socket);
the HTTP tests go through urllib against an ephemeral port to pin the
status codes and error envelopes actually seen on the wire.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.nws import ForecastServer, RetentionPolicy, ServiceCore
from repro.nws.server import SERVER_REGISTRATION
from repro.nws.wire import WIRE_VERSION, canonical
from repro.obs.metrics import MetricsRegistry, installed


def http(url: str, body: dict | None = None, method: str | None = None):
    """(status, payload) for one raw HTTP exchange."""
    data = canonical(body) if body is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        method=method or ("POST" if data is not None else "GET"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestValidation:
    def test_bad_maintenance_interval(self):
        with pytest.raises(ValueError, match="maintenance_interval"):
            ForecastServer(maintenance_interval=0.0)

    def test_bad_registration_ttl(self):
        with pytest.raises(ValueError, match="registration_ttl"):
            ForecastServer(registration_ttl=-1.0)

    def test_serves_the_core_it_is_given(self):
        core = ServiceCore(tenants=("a", "b"))
        server = ForecastServer(core)
        assert server.core is core
        assert server.core.tenant_names() == ["a", "b"]
        server._httpd.server_close()

    def test_double_start_rejected(self):
        with ForecastServer() as server:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()


class TestDispatch:
    @pytest.fixture()
    def server(self):
        server = ForecastServer(ServiceCore(tenants=("default", "hpc")))
        yield server
        server._httpd.server_close()

    def test_health(self, server):
        status, payload = server.dispatch("GET", "/v1/health", {})
        assert status == 200
        assert payload["version"] == WIRE_VERSION
        assert payload["status"] == "ok"
        assert set(payload["tenants"]) == {"default", "hpc"}

    def test_metrics(self, server):
        status, payload = server.dispatch("GET", "/v1/metrics", {})
        assert status == 200
        assert payload["kind"] == "metrics"
        assert isinstance(payload["metrics"], dict)

    def test_series(self, server):
        server.core.publish("default", "cpu.a", 0.0, 0.5)
        status, payload = server.dispatch("GET", "/v1/default/series", {})
        assert status == 200
        assert payload["series"] == ["cpu.a"]

    def test_post_ops_route(self, server):
        status, payload = server.dispatch(
            "POST", "/v1/default/publish", {"series": "cpu.a", "time": 0.0, "value": 0.5}
        )
        assert status == 200
        assert payload["kind"] == "published" and payload["count"] == 1
        status, payload = server.dispatch(
            "POST", "/v1/default/fetch", {"series": "cpu.a"}
        )
        assert payload["kind"] == "samples" and payload["n"] == 1

    def test_unknown_path(self, server):
        with pytest.raises(LookupError, match="/v1"):
            server.dispatch("GET", "/nope", {})
        with pytest.raises(LookupError, match="no such path"):
            server.dispatch("GET", "/v1/a/b/c/d", {})

    def test_unknown_operation(self, server):
        with pytest.raises(LookupError, match="no such operation"):
            server.dispatch("POST", "/v1/default/frobnicate", {})

    def test_method_mismatch(self, server):
        with pytest.raises(ValueError, match="expects GET"):
            server.dispatch("POST", "/v1/health", {})
        with pytest.raises(ValueError, match="expects POST"):
            server.dispatch("GET", "/v1/default/publish", {})

    def test_missing_field(self, server):
        with pytest.raises(ValueError, match="missing required field 'series'"):
            server.dispatch("POST", "/v1/default/publish", {"time": 0.0, "value": 0.5})

    def test_bad_field_value(self, server):
        with pytest.raises(ValueError, match="bad value for field 'time'"):
            server.dispatch(
                "POST", "/v1/default/publish",
                {"series": "s", "time": "noon", "value": 0.5},
            )


class TestHTTP:
    @pytest.fixture()
    def server(self):
        with ForecastServer() as srv:
            yield srv

    def test_health_live(self, server):
        status, payload = http(f"{server.url}/v1/health")
        assert status == 200 and payload["status"] == "ok"

    def test_unknown_path_is_404_envelope(self, server):
        status, payload = http(f"{server.url}/wrong")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_method_mismatch_is_400(self, server):
        status, payload = http(f"{server.url}/v1/health", body={})
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/default/publish",
            data=b"this is not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 400
        assert json.loads(info.value.read())["error"]["code"] == "bad_request"

    def test_unknown_tenant_is_403(self, server):
        status, payload = http(
            f"{server.url}/v1/nobody/publish",
            body={"series": "s", "time": 0.0, "value": 0.5},
        )
        assert status == 403
        assert payload["error"]["code"] == "unknown_tenant"
        assert payload["error"]["known"] == ["default"]

    def test_error_counted(self):
        with installed(MetricsRegistry()):
            with ForecastServer() as server:
                http(f"{server.url}/totally/wrong")
                assert server.core._obs_errors["not_found"].value == 1


#: Beyond float range: json.loads reads this as an int, float() overflows.
BIG_INT = "9" * 400

#: (operation, raw JSON body, field) -- each field's value overflows its
#: cast (float, or int for limit/horizon via the float 1e400 = inf).
OVERSIZED_FIELDS = [
    ("publish", '{"series": "s", "time": %s, "value": 0.5}' % BIG_INT, "time"),
    ("publish", '{"series": "s", "time": 9.0, "value": %s}' % BIG_INT, "value"),
    ("fetch", '{"series": "s", "start": %s}' % BIG_INT, "start"),
    ("fetch", '{"series": "s", "stop": %s}' % BIG_INT, "stop"),
    ("fetch", '{"series": "s", "limit": 1e400}', "limit"),
    ("query", '{"series": "s", "horizon": 1e400}', "horizon"),
    ("register", '{"name": "a", "kind": "sensor", "ttl": %s}' % BIG_INT, "ttl"),
    ("refresh", '{"name": "a", "ttl": %s}' % BIG_INT, "ttl"),
]


class TestOversizedNumbers:
    """A number beyond float/int range is a 400 naming the field, not a 500."""

    @pytest.mark.parametrize(
        "op, body, field",
        OVERSIZED_FIELDS,
        ids=[f"{op}-{field}" for op, _, field in OVERSIZED_FIELDS],
    )
    def test_http_answers_bad_request(self, op, body, field):
        with ForecastServer() as server:
            server.core.publish("default", "s", 0.0, 0.5)
            server.core.register("default", "a", "sensor", ttl=60.0)
            request = urllib.request.Request(
                f"{server.url}/v1/default/{op}",
                data=body.encode("utf-8"),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request)
            assert info.value.code == 400
            error = json.loads(info.value.read())["error"]
            assert error["code"] == "bad_request"
            assert f"bad value for field {field!r}" in error["message"]
            assert server.core._obs_errors.keys() == {"bad_request"}


class TestSelfRegistration:
    def test_registers_in_every_tenant(self):
        with ForecastServer(ServiceCore(tenants=("default", "hpc"))) as server:
            for tenant in ("default", "hpc"):
                registration = server.core.tenant(tenant).nameserver.get(
                    SERVER_REGISTRATION
                )
                assert registration.attributes["url"] == server.url

    def test_maintain_refreshes_ttl(self):
        clock = {"t": 0.0}
        core = ServiceCore(clock=lambda: clock["t"])
        with ForecastServer(core, registration_ttl=90.0) as server:
            clock["t"] = 80.0
            server.maintain_once()
            clock["t"] = 160.0  # past the original expiry, inside the refresh
            assert (
                server.core.tenant("default").nameserver.get(SERVER_REGISTRATION)
                is not None
            )

    def test_maintain_reregisters_after_lapse(self):
        clock = {"t": 0.0}
        core = ServiceCore(clock=lambda: clock["t"])
        with ForecastServer(core, registration_ttl=90.0) as server:
            clock["t"] = 1000.0  # stall long enough that the TTL lapsed
            server.maintain_once()
            registration = server.core.tenant("default").nameserver.get(
                SERVER_REGISTRATION
            )
            assert registration.attributes["url"] == server.url

    def test_maintenance_counter(self):
        with installed(MetricsRegistry()):
            with ForecastServer() as server:
                server.maintain_once()
                server.maintain_once()
                assert server._obs_maintenance.value == 2


class TestRetention:
    def fill(self, core: ServiceCore, series: str, n: int) -> None:
        rng = np.random.default_rng(5)
        for i in range(n):
            core.publish("default", series, 10.0 * i, float(rng.random()))

    def test_no_policy_is_noop(self):
        core = ServiceCore()
        self.fill(core, "cpu.a", 64)
        assert core.maintain() == 0
        assert core.tenant("default").memory.count("cpu.a") == 64

    def test_below_threshold_untouched(self):
        core = ServiceCore(
            retention=RetentionPolicy(compact_above=128, keep_recent=32, period=60.0)
        )
        self.fill(core, "cpu.a", 128)
        assert core.maintain() == 0
        assert core.tenant("default").memory.count("cpu.a") == 128

    def test_compaction_keeps_recent_raw(self):
        core = ServiceCore(
            retention=RetentionPolicy(compact_above=128, keep_recent=32, period=60.0)
        )
        self.fill(core, "cpu.a", 200)
        raw_times, raw_values = core.fetch("default", "cpu.a")
        assert core.maintain() == 1
        times, values = core.fetch("default", "cpu.a")
        assert len(times) < 200
        # The newest keep_recent samples survive at raw resolution.
        np.testing.assert_allclose(times[-32:], raw_times[-32:])
        np.testing.assert_allclose(values[-32:], raw_values[-32:])
        # The spliced history is still a valid (non-decreasing) series.
        assert np.all(np.diff(times) >= 0.0)

    def test_compaction_counts_series(self):
        core = ServiceCore(
            retention=RetentionPolicy(compact_above=64, keep_recent=16, period=120.0)
        )
        self.fill(core, "cpu.a", 100)
        self.fill(core, "cpu.b", 100)
        self.fill(core, "cpu.small", 10)
        assert core.maintain() == 2

    def test_queries_survive_compaction(self):
        core = ServiceCore(
            retention=RetentionPolicy(compact_above=128, keep_recent=64, period=60.0)
        )
        self.fill(core, "cpu.a", 300)
        before = core.query("default", "cpu.a")
        core.maintain()
        for i in range(300, 310):
            core.publish("default", "cpu.a", 10.0 * i, 0.5)
        after = core.query("default", "cpu.a")
        assert not after.stale
        assert 0.0 <= after.forecast <= 1.0
        assert after.n_measurements > before.n_measurements - 300

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="compact_above"):
            RetentionPolicy(compact_above=1)
        with pytest.raises(ValueError, match="keep_recent"):
            RetentionPolicy(compact_above=100, keep_recent=100)
        with pytest.raises(ValueError, match="period"):
            RetentionPolicy(period=0.0)
