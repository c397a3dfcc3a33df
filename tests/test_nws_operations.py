"""The operation table of :mod:`repro.nws.wire`, checked from each side.

* The README's HTTP API table documents exactly the table's operations
  and fields, and each :class:`ServiceCore` method takes them in table
  order.
* A series or component name is a string everywhere: in process, over
  HTTP and across a durable restore.
* Request bodies drawn from the table -- fields missing, ``null``,
  well-typed, ill-typed, oversized, plus extra keys -- never reach the
  catch-all ``internal`` error, and a rejected body changes nothing.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.nws import ForecastServer, NWSClient, ServiceCore
from repro.nws.wire import OPERATIONS, REQUIRED, canonical, code_for_exception
from tests.test_nws_server import http

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_every_operation_and_field():
    section = README.read_text().split("### HTTP API (wire version 1)")[1].split("\n#")[0]
    rows = re.findall(r"^\| POST +\| `/v1/<tenant>/(\w+)` *\|([^|]*)\|", section, re.M)
    documented = {
        name: [f.strip().strip("`") for f in fields.split(",") if f.strip() not in ("", "—")]
        for name, fields in rows
    }
    assert documented == {
        name: [f.name + ("" if f.default is REQUIRED else "?") for f in op.fields]
        for name, op in OPERATIONS.items()
    }


def test_core_methods_take_the_fields_in_table_order():
    # The server passes a request's fields to the core positionally.
    for name, op in OPERATIONS.items():
        parameters = list(inspect.signature(getattr(ServiceCore, name)).parameters)
        assert parameters[2:] == [f.name for f in op.fields], name


class TestNamesAreStrings:
    """A non-string name was stored as given: every later listing then
    sorted ints among strings (``TypeError``), and the log kept a line
    that a restore could not read back."""

    def test_in_process(self):
        core = ServiceCore()
        with pytest.raises(ValueError, match="bad value for field 'series'"):
            core.publish("default", 5, 0.0, 1.0)
        with pytest.raises(ValueError, match="bad value for field 'series'"):
            core.tenant("default").memory.replace(5, [0.0], [1.0])
        with pytest.raises(ValueError, match="bad value for field 'name'"):
            core.register("default", 7, "sensor")
        core.publish("default", "a", 0.0, 1.0)
        core.register("default", "s", "sensor")
        assert core.series_names("default") == ["a"]
        assert list(core.query_all("default")) == ["a"]
        assert core.health()["tenants"]["default"] == {"series": 1, "registrations": 1}
        assert [r.name for r in core.lookup("default")] == ["s"]

    def test_across_a_durable_restore(self, tmp_path):
        core = ServiceCore(directory=tmp_path)
        with pytest.raises(ValueError, match="'series'"):
            core.publish("default", 5, 0.0, 1.0)
        with pytest.raises(ValueError, match="'name'"):
            core.register("default", 7, "sensor")
        core.publish("default", "a", 0.0, 1.0)
        core.register("default", "s", "sensor")
        core.close()
        restored = ServiceCore.restore(tmp_path)
        assert restored.series_names("default") == ["a"]
        assert [r.name for r in restored.lookup("default")] == ["s"]

    def test_over_http(self):
        with ForecastServer() as server:
            for op, body, field in [
                ("publish", {"series": 5, "time": 0.0, "value": 1.0}, "series"),
                ("register", {"name": 7, "kind": "sensor"}, "name"),
                ("register", {"name": "s", "kind": ["sensor"]}, "kind"),
                ("register", {"name": "s", "kind": "sensor", "attributes": []}, "attributes"),
                ("lookup", {"attributes": 0}, "attributes"),
            ]:
                status, payload = http(f"{server.url}/v1/default/{op}", body)
                assert status == 400, (op, body)
                assert f"bad value for field {field!r}" in payload["error"]["message"]
            status, payload = http(
                f"{server.url}/v1/default/publish", {"series": "a", "time": 0.0, "value": 1.0}
            )
            assert status == 200 and payload["series"] == "a"
            with NWSClient.connect(server.url) as client:
                with pytest.raises(ValueError, match="bad value for field 'series'"):
                    client.publish(5, time=1.0, value=1.0)
                assert client.series_names() == ["a"]

    def test_an_attribute_may_be_called_kind(self):
        core = ServiceCore()
        core.register("default", "s", "sensor", {"kind": "cpu"})
        assert [r.name for r in core.lookup("default", None, {"kind": "cpu"})] == ["s"]
        assert core.lookup("default", None, {"kind": "disk"}) == []


# ------------------------------------------------------------------ fuzzing

#: A field left out of the body.
ABSENT = object()

NAMES = st.sampled_from(["cpu.a", "cpu.b", "sensor.a", "", 'ü"\x00', "\ud800", "x" * 5000])
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-1.0, 0.0, 5.0, 60.0, 1e300, float("nan"), float("inf")]),
    st.integers(-10, 10**6),
)
INTS = st.one_of(st.integers(-3, 100), st.floats(-5.0, 1e3), st.sampled_from([10**30]))
ATTRIBUTES = st.dictionaries(
    st.sampled_from(["host", "kind", "self", "tenant", ""]),
    st.one_of(st.text(max_size=3), st.integers(), st.none(), st.lists(st.integers(), max_size=2)),
    max_size=3,
)
ILL_TYPED = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.integers(),
    st.floats(),
)
OVERSIZED = st.sampled_from(
    [10**400, -(10**400), 1e308, "9" * 5000, [0.5] * 2000, {str(i): "v" for i in range(500)}]
)


def _well_typed(field):
    if field.cast is float:
        return FLOATS
    if field.cast is int:
        return INTS
    if field.name == "attributes":
        return ATTRIBUTES
    return NAMES


@st.composite
def _bodies(draw):
    """``(operation, body)``: each field well-typed, except up to two
    that are missing, ``null``, ill-typed or oversized."""
    name = draw(st.sampled_from(sorted(OPERATIONS)))
    fields = OPERATIONS[name].fields
    broken = draw(st.sets(st.sampled_from([f.name for f in fields] or [""]), max_size=2))
    body = {}
    for field in fields:
        if field.name in broken:
            value = draw(st.one_of(st.just(ABSENT), st.none(), ILL_TYPED, OVERSIZED))
        else:
            value = draw(_well_typed(field))
        if value is not ABSENT:
            body[field.name] = value
    body.update(draw(st.dictionaries(st.sampled_from(["extra", "version", "tenant"]),
                                     ILL_TYPED, max_size=2)))
    return name, body


def _state(core: ServiceCore):
    tenant = core.tenant("default")
    names = tenant.memory.series_names()
    return (
        names,
        [tenant.memory.count(name) for name in names],
        tenant.memory.log.lines,
        tenant.memory.log.pending(),
        tenant.nameserver.entries(),
    )


@pytest.fixture(scope="module")
def fuzzed(tmp_path_factory):
    server = ForecastServer(ServiceCore(directory=tmp_path_factory.mktemp("fuzz")))
    server.core.publish("default", "cpu.a", 0.0, 0.5)
    server.core.register("default", "sensor.a", "sensor", {"host": "a"}, 60.0)
    yield server
    server._httpd.server_close()
    server.core.close()


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(requests=st.lists(_bodies(), min_size=1, max_size=4))
# Found by this property: an attribute filter named "kind" collided with
# the name server's ``kind`` parameter, a TypeError and so a 500.
@example(requests=[("lookup", {"attributes": {"kind": "cpu"}})])
def test_generated_bodies_get_typed_answers(fuzzed, requests):
    core = fuzzed.core
    for name, body in requests:
        before = _state(core)
        try:
            _, payload = fuzzed.dispatch("POST", f"/v1/default/{name}", body)
        except Exception as exc:
            assert code_for_exception(exc) != "internal", (name, body, exc)
            assert _state(core) == before, (name, body, exc)
        else:
            canonical(payload)
