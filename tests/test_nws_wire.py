"""Wire-format guarantees: golden bytes, version gates, error envelopes.

The golden fixtures pin the canonical encodings byte-for-byte: any
change to them is a wire-format break and must bump ``WIRE_VERSION``.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.faults.policy import RetryError
from repro.nws.errors import RegistrationLapsed, SeriesUnavailable, UnknownTenant
from repro.nws.forecaster import ForecastReport
from repro.nws.nameserver import Registration
from repro.nws.wire import (
    ERROR_STATUS,
    WIRE_VERSION,
    ProtocolError,
    canonical,
    code_for_exception,
    decode_fetch,
    decode_registration,
    decode_report,
    encode_fetch,
    encode_registration,
    encode_report,
    envelope_for_exception,
    error_envelope,
    raise_for_envelope,
)

REPORT = ForecastReport(
    series="cpu.thing1.nws_hybrid",
    forecast=0.875,
    error=0.0125,
    method="adaptive_median_5_100",
    n_measurements=720,
    as_of=7190.0,
    stale=False,
    horizon=1,
)

#: Golden canonical bytes.  Changing any of these is a wire break.
GOLDEN_REPORT = (
    b'{"as_of":7190.0,"error":0.0125,"forecast":0.875,"horizon":1,'
    b'"kind":"forecast","method":"adaptive_median_5_100",'
    b'"n_measurements":720,"series":"cpu.thing1.nws_hybrid",'
    b'"stale":false,"version":1}\n'
)
GOLDEN_FETCH = (
    b'{"kind":"samples","n":2,"series":"cpu.a","times":[0.0,10.0],'
    b'"values":[0.5,null],"version":1}\n'
)
GOLDEN_REGISTRATION = (
    b'{"attributes":{"host":"thing1","resource":"cpu"},'
    b'"component":"sensor","kind":"registration",'
    b'"name":"sensor.cpu.thing1","version":1}\n'
)
GOLDEN_ERROR = (
    b'{"error":{"code":"series_unavailable","known":["cpu.a"],'
    b'"message":"gone","series":"cpu.b"},"version":1}\n'
)


class TestGoldenBytes:
    def test_report(self):
        assert canonical(encode_report(REPORT)) == GOLDEN_REPORT

    def test_fetch(self):
        payload = encode_fetch("cpu.a", [0.0, 10.0], [0.5, float("nan")])
        assert canonical(payload) == GOLDEN_FETCH

    def test_registration(self):
        reg = Registration(
            name="sensor.cpu.thing1",
            kind="sensor",
            attributes={"resource": "cpu", "host": "thing1"},
        )
        assert canonical(encode_registration(reg)) == GOLDEN_REGISTRATION

    def test_error_envelope(self):
        envelope = error_envelope(
            "series_unavailable", "gone", series="cpu.b", known=["cpu.a"]
        )
        assert canonical(envelope) == GOLDEN_ERROR

    def test_canonical_is_order_insensitive(self):
        a = canonical({"b": 1, "a": 2})
        b = canonical({"a": 2, "b": 1})
        assert a == b


class TestRoundTrips:
    def test_report(self):
        assert decode_report(encode_report(REPORT)) == REPORT

    def test_report_nan_error_bar(self):
        report = ForecastReport(
            series="s",
            forecast=0.5,
            error=float("nan"),
            method="last_value",
            n_measurements=1,
            as_of=float("nan"),
        )
        out = decode_report(json.loads(canonical(encode_report(report))))
        assert math.isnan(out.error) and math.isnan(out.as_of)
        assert out.forecast == 0.5

    def test_report_horizon_default(self):
        payload = encode_report(REPORT)
        del payload["horizon"]
        assert decode_report(payload).horizon == 1

    def test_fetch(self):
        times, values = decode_fetch(
            json.loads(canonical(encode_fetch("s", [1.0, 2.0], [0.1, 0.2])))
        )
        assert times == [1.0, 2.0]
        assert values == [0.1, 0.2]

    def test_registration_hides_expiry(self):
        reg = Registration(
            name="n", kind="sensor", attributes={"a": "b"}, expires_at=123.0
        )
        payload = encode_registration(reg)
        assert "expires_at" not in canonical(payload).decode()
        out = decode_registration(payload)
        assert (out.name, out.kind, out.attributes) == ("n", "sensor", {"a": "b"})

    def test_version_gate(self):
        payload = encode_report(REPORT)
        payload["version"] = 999
        with pytest.raises(ProtocolError, match="version"):
            decode_report(payload)
        with pytest.raises(ProtocolError, match="version"):
            decode_fetch({"version": None, "times": [], "values": []})

    def test_malformed_payloads(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_report({"version": WIRE_VERSION})
        with pytest.raises(ProtocolError, match="mismatch"):
            decode_fetch({"version": WIRE_VERSION, "times": [1.0], "values": []})
        with pytest.raises(ProtocolError, match="malformed"):
            decode_registration({"version": WIRE_VERSION, "name": "x"})


class TestErrorEnvelopes:
    @pytest.mark.parametrize(
        "exc,code,status",
        [
            (SeriesUnavailable("cpu.b", ["cpu.a"]), "series_unavailable", 404),
            (RegistrationLapsed("sensor.x"), "registration_lapsed", 410),
            (UnknownTenant("t", ["default"]), "unknown_tenant", 403),
            (RetryError("gave up"), "retry_exhausted", 503),
            (ValueError("bad horizon"), "bad_request", 400),
            (LookupError("no such route"), "not_found", 404),
            (RuntimeError("boom"), "internal", 500),
        ],
    )
    def test_status_mapping(self, exc, code, status):
        assert code_for_exception(exc) == code
        got_status, envelope = envelope_for_exception(exc)
        assert got_status == status == ERROR_STATUS[code]
        assert envelope["error"]["code"] == code

    @pytest.mark.parametrize(
        "exc,expected",
        [
            (SeriesUnavailable("cpu.b", ["cpu.a"]), SeriesUnavailable),
            (RegistrationLapsed("sensor.x"), RegistrationLapsed),
            (UnknownTenant("t", ["default"]), UnknownTenant),
            (RetryError("gave up"), RetryError),
            (ValueError("bad horizon"), ValueError),
            (LookupError("no such route"), LookupError),
            (RuntimeError("boom"), ProtocolError),
        ],
    )
    def test_round_trip_reconstructs_type(self, exc, expected):
        status, envelope = envelope_for_exception(exc)
        # Simulate the wire: bytes out, JSON back in.
        envelope = json.loads(canonical(envelope))
        with pytest.raises(expected):
            raise_for_envelope(status, envelope)

    def test_series_unavailable_details_survive(self):
        status, envelope = envelope_for_exception(
            SeriesUnavailable("cpu.b", ["cpu.z", "cpu.a"])
        )
        envelope = json.loads(canonical(envelope))
        with pytest.raises(SeriesUnavailable) as info:
            raise_for_envelope(status, envelope)
        assert info.value.series == "cpu.b"
        assert list(info.value.known) == ["cpu.a", "cpu.z"]

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown error code"):
            error_envelope("nonsense", "msg")

    def test_malformed_envelope(self):
        with pytest.raises(ProtocolError, match="malformed"):
            raise_for_envelope(500, {"version": WIRE_VERSION, "error": "boom"})


class TestNonObjectPayloads:
    """Every decoder meets a JSON array, number, string or null typed."""

    DECODERS = {
        "decode_fetch": decode_fetch,
        "decode_report": decode_report,
        "decode_registration": decode_registration,
        "raise_for_envelope": lambda payload: raise_for_envelope(404, payload),
    }

    @pytest.mark.parametrize("payload", [[], 1, "x", None], ids=repr)
    @pytest.mark.parametrize("decoder", sorted(DECODERS))
    def test_is_a_protocol_error(self, decoder, payload):
        with pytest.raises(ProtocolError, match="JSON object"):
            self.DECODERS[decoder](payload)


class TestSampleArrays:
    """``decode_fetch`` takes flat JSON arrays of numbers (and null values)."""

    @pytest.mark.parametrize(
        "times, values",
        [
            ("12", "34"),  # strings were read character by character
            ({"1": 0, "2": 0}, {"3": 0, "4": 0}),  # dicts by their keys
            ([1.0, 2.0], "34"),
            ([[1.0]], [2.0]),
            ([True], [1.0]),
            (["1.5"], [1.0]),
            ([1.0], ["x"]),
            ([None], [1.0]),
            ([10**400], [1.0]),
        ],
        ids=repr,
    )
    def test_rejected(self, times, values):
        payload = {"version": WIRE_VERSION, "times": times, "values": values}
        with pytest.raises(ProtocolError, match="malformed samples payload"):
            decode_fetch(payload)

    def test_integers_and_null(self):
        times, values = decode_fetch(
            {"version": WIRE_VERSION, "times": [1, 2.5], "values": [None, 3]}
        )
        assert times == [1.0, 2.5] and all(type(t) is float for t in times)
        assert math.isnan(values[0]) and values[1] == 3.0
