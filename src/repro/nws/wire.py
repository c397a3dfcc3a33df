"""Versioned JSON wire format for the NWS forecast service.

One module owns the bytes: the HTTP server encodes responses with these
functions and :class:`~repro.nws.client.HTTPTransport` decodes them with
the inverse functions, so the two can never drift apart.

Every ``POST /v1/<tenant>/<name>`` operation is one row of
:data:`OPERATIONS`: its request fields (name, cast, default), the
server's result encoder and the client's decoder.  The server reads a
body with :meth:`Operation.read` and the client writes one with
:meth:`Operation.write`, under one rule for defaults: the server reads
an absent or ``null`` field as its default, and the client leaves off a
value that is ``None`` or equal to its default.  Every payload
carries ``"version": 1``; a major-version mismatch raises
:class:`ProtocolError` instead of silently misreading fields.

Error envelopes map the typed service exceptions onto HTTP statuses and
back::

    {"version": 1, "error": {"code": "series_unavailable",
                             "message": "...", "series": "cpu.x.hybrid",
                             "known": [...]}}

+--------------------------+--------+---------------------------------------------+
| code                     | status | raised client-side as                       |
+==========================+========+=============================================+
| ``bad_request``          | 400    | :class:`ValueError`                         |
| ``unknown_tenant``       | 403    | :class:`~repro.nws.errors.UnknownTenant`    |
| ``series_unavailable``   | 404    | :class:`~repro.nws.errors.SeriesUnavailable`|
| ``not_found``            | 404    | :class:`LookupError`                        |
| ``registration_lapsed``  | 410    | :class:`~repro.nws.errors.RegistrationLapsed`|
| ``overloaded``           | 429    | :class:`~repro.nws.errors.ServerOverloaded` |
| ``retry_exhausted``      | 503    | :class:`~repro.faults.RetryError`           |
| ``internal``             | 500    | :class:`ProtocolError`                      |
+--------------------------+--------+---------------------------------------------+

The ``overloaded`` envelope carries ``reason`` and ``retry_after`` so a
shed request round-trips into the same typed
:class:`~repro.nws.errors.ServerOverloaded` the in-process path raises;
the server also mirrors ``retry_after`` into an HTTP ``Retry-After``
header for non-NWS clients.

Encoding is canonical (sorted keys, compact separators), so identical
responses are identical bytes -- the property the deterministic loadtest
digests rely on.

Sample windows are the one payload whose text repeats from request to
request: a client polling the last hour gets back the same samples, one
or two newer each time.  So the server keeps, per live series, the JSON
text of the last window it served (:class:`SampleText`): one joined
string per array, keyed by the sequence number of its first sample
(:class:`repro.nws.memory.Window`).  A sequence number names one
``(t, v)`` for ever, so where a new window's numbers overlap the
remembered ones its text does too; :func:`canonical` cuts that overlap
out of the remembered strings at the commas and formats only the
samples it has not seen.  The bytes are the ones ``json.dumps`` writes
for the same payload by construction; floats are never compared or
hashed, since ``0.0 == -0.0`` and NaN equals nothing.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Callable, NamedTuple

import numpy as np

from repro.faults.policy import RetryError
from repro.nws.errors import (
    RegistrationLapsed,
    SeriesUnavailable,
    ServerOverloaded,
    UnknownTenant,
    coerce_field,
)
from repro.nws.forecaster import ForecastReport
from repro.nws.nameserver import Registration

__all__ = [
    "DEADLINE_HEADER",
    "MAX_HEADERS",
    "MAX_LINE",
    "OPERATIONS",
    "WIRE_VERSION",
    "Field",
    "Operation",
    "ProtocolError",
    "SampleText",
    "canonical",
    "closes",
    "code_for_exception",
    "decode_fetch",
    "decode_registration",
    "decode_registrations",
    "decode_report",
    "decode_reports",
    "encode_fetch",
    "encode_registration",
    "encode_report",
    "error_envelope",
    "envelope_for_exception",
    "raise_for_envelope",
]

#: Wire format major version; bumped on incompatible payload changes.
WIRE_VERSION = 1


class ProtocolError(RuntimeError):
    """The peer spoke a shape (or version) this client cannot read."""


def canonical(payload: dict) -> bytes:
    """Canonical UTF-8 JSON bytes: sorted keys, compact separators.

    ``NaN`` is emitted as the literal ``NaN`` (stock ``json`` behaviour,
    accepted by the stock parser); forecast error bars are NaN until the
    mixture has scored once, and round-tripping that honestly matters
    more than strict-JSON purity.  A samples payload bound to a
    :class:`SampleText` is written from its memo, to the same bytes.
    """
    if type(payload) is _NumberedSamples:
        return payload.memo.render(payload)
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def _check_version(payload: dict) -> dict:
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"malformed payload: expected a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("version")
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"wire version mismatch: got {version!r}, speak {WIRE_VERSION}"
        )
    return payload


def _finite_or_none(value: float) -> float | None:
    """JSON-safe float: NaN/inf become None on the wire (and back)."""
    value = float(value)
    return value if math.isfinite(value) else None


def _float_or_nan(value) -> float:
    return float("nan") if value is None else float(value)


# ------------------------------------------------------------------ reports


def encode_report(report: ForecastReport) -> dict:
    """One forecast report as a versioned JSON-safe dict."""
    return {
        "version": WIRE_VERSION,
        "kind": "forecast",
        "series": report.series,
        "forecast": float(report.forecast),
        "error": _finite_or_none(report.error),
        "method": report.method,
        "n_measurements": int(report.n_measurements),
        "as_of": _finite_or_none(report.as_of),
        "stale": bool(report.stale),
        "horizon": int(report.horizon),
    }


def decode_report(payload: dict) -> ForecastReport:
    _check_version(payload)
    try:
        return ForecastReport(
            series=str(payload["series"]),
            forecast=float(payload["forecast"]),
            error=_float_or_nan(payload["error"]),
            method=str(payload["method"]),
            n_measurements=int(payload["n_measurements"]),
            as_of=_float_or_nan(payload["as_of"]),
            stale=bool(payload["stale"]),
            horizon=int(payload.get("horizon", 1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed forecast payload: {exc}") from exc


def decode_reports(payload: dict) -> dict[str, ForecastReport]:
    _check_version(payload)
    reports = payload.get("reports")
    if not isinstance(reports, dict):
        raise ProtocolError("malformed forecasts payload: no reports map")
    return {name: decode_report(r) for name, r in reports.items()}


# ------------------------------------------------------------------ fetches


def encode_fetch(series: str, times, values) -> dict:
    """A fetched (times, values) window as a versioned JSON-safe dict."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    value_list = values.tolist()
    if not finite.all():
        for i in np.flatnonzero(~finite).tolist():
            value_list[i] = None
    return {
        "version": WIRE_VERSION,
        "kind": "samples",
        "series": series,
        "times": times.tolist(),
        "values": value_list,
        "n": len(times),
    }


_NUMBER_TYPES = frozenset({float, int})
_NULLABLE_TYPES = _NUMBER_TYPES | {type(None)}


def _float_list(payload: dict, key: str, types: frozenset) -> list[float]:
    """``payload[key]`` as floats: a flat JSON array of ``types`` only."""
    try:
        items = payload[key]
    except KeyError as exc:
        raise ProtocolError(f"malformed samples payload: {exc}") from exc
    if not isinstance(items, list):
        raise ProtocolError(
            f"malformed samples payload: {key!r} is {type(items).__name__}, "
            "not a JSON array"
        )
    kinds = set(map(type, items))
    if kinds <= {float}:
        return items[:]
    if not kinds <= types:
        raise ProtocolError(
            f"malformed samples payload: {key!r} holds "
            f"{', '.join(sorted(k.__name__ for k in kinds - types))}"
        )
    try:
        # None becomes NaN: the wire's stand-in for a non-finite value.
        return np.array(items, dtype=np.float64).tolist()
    except OverflowError as exc:
        raise ProtocolError(f"malformed samples payload: {exc}") from exc


def decode_fetch(payload: dict) -> tuple[list[float], list[float]]:
    """``(times, values)`` float lists of a samples payload.

    Each array is checked and converted as a whole: ``times`` must be a
    flat JSON array of numbers, ``values`` of numbers or ``null`` (read
    as NaN).  Anything else is a :class:`ProtocolError`.
    """
    _check_version(payload)
    times = _float_list(payload, "times", _NUMBER_TYPES)
    values = _float_list(payload, "values", _NULLABLE_TYPES)
    if len(times) != len(values):
        raise ProtocolError("malformed samples payload: times/values mismatch")
    return times, values


#: The elements of a JSON array exactly as :func:`canonical` writes them
#: (``encode(items)[1:-1]``): the same C encoder, so the same bytes.
_encode_array = json.JSONEncoder(separators=(",", ":")).encode


def _cut(text: str, head: int, tail: int) -> str:
    """``text``, a comma-joined array body, without its first ``head``
    and last ``tail`` elements (no element contains a comma)."""
    start = 0
    for _ in range(head):
        start = text.index(",", start) + 1
    end = len(text)
    for _ in range(tail):
        end = text.rindex(",", start, end)
    return text[start:end]


class _NumberedSamples(dict):
    """A samples payload bound to a memo and its window's first sequence
    number (:meth:`SampleText.bind`)."""

    __slots__ = ("first_seq", "memo")


class SampleText:
    """The JSON text of the last sample window served, per series.

    One entry per series: the window's first sequence number, its
    length and the comma-joined text of its ``times`` and ``values``.
    :meth:`render` reuses the part of a remembered window that the new
    one overlaps -- the same sequence numbers, hence the same samples --
    and formats only the rest, so serving a sliding window costs in
    proportion to the samples that are new to it.  Entries are immutable
    tuples read and swapped under a lock, so concurrent handler threads
    each see a whole window, and the last one written wins; any entry
    gives the right bytes, because reuse is keyed by sequence number.
    :meth:`retain` drops the entries of series that are gone.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._windows: dict[str, tuple[int, int, str, str]] = {}

    def bind(self, payload: dict, first_seq: int) -> dict:
        """``payload``, an :func:`encode_fetch` of a window whose first
        sample has sequence number ``first_seq``, for :func:`canonical`
        to write from this memo.  The dict's contents are unchanged."""
        bound = _NumberedSamples(payload)
        bound.first_seq = first_seq
        bound.memo = self
        return bound

    def render(self, payload: _NumberedSamples) -> bytes:
        """``canonical(payload)``, reusing the series' remembered text."""
        series = payload["series"]
        times, values = payload["times"], payload["values"]
        first, n = payload.first_seq, len(times)
        kept = 0
        with self._lock:
            old = self._windows.get(series)
        if old is not None:
            skip = first - old[0]
            if 0 <= skip < old[1]:
                kept = min(n, old[1] - skip)
        if kept:
            tail = old[1] - skip - kept
            times_text = _cut(old[2], skip, tail)
            values_text = _cut(old[3], skip, tail)
            if kept < n:
                times_text += "," + _encode_array(times[kept:])[1:-1]
                values_text += "," + _encode_array(values[kept:])[1:-1]
        else:
            times_text = _encode_array(times)[1:-1]
            values_text = _encode_array(values)[1:-1]
        with self._lock:
            self._windows[series] = (first, n, times_text, values_text)
        return (
            '{"kind":"samples","n":%d,"series":%s,"times":[%s],"values":[%s],'
            '"version":%d}\n'
            % (n, json.dumps(series), times_text, values_text, payload["version"])
        ).encode("utf-8")

    def retain(self, live) -> None:
        """Forget the windows of every series not in ``live``."""
        live = set(live)
        with self._lock:
            for series in [s for s in self._windows if s not in live]:
                del self._windows[series]


# -------------------------------------------------------------- registrations


def encode_registration(registration: Registration) -> dict:
    """A registration as seen by clients.

    ``expires_at`` is deliberately server-internal: clients reason in
    TTLs, and leaking the server's clock would make otherwise identical
    responses differ between deployments.
    """
    return {
        "version": WIRE_VERSION,
        "kind": "registration",
        "name": registration.name,
        "component": registration.kind,
        "attributes": dict(sorted(registration.attributes.items())),
    }


def decode_registration(payload: dict) -> Registration:
    _check_version(payload)
    try:
        return Registration(
            name=str(payload["name"]),
            kind=str(payload["component"]),
            attributes={str(k): str(v) for k, v in payload["attributes"].items()},
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed registration payload: {exc}") from exc


def decode_registrations(payload: dict) -> list[Registration]:
    _check_version(payload)
    entries = payload.get("registrations")
    if not isinstance(entries, list):
        raise ProtocolError("malformed registrations payload")
    return [decode_registration(entry) for entry in entries]


# ----------------------------------------------------------------- operations

#: The default of a required :class:`Field`.
REQUIRED = object()


class Field(NamedTuple):
    """A request field: a value of type ``cast`` is taken as it is, any
    other is cast by :func:`~repro.nws.errors.coerce_field`.  A field
    with no ``default`` is required."""

    name: str
    cast: Callable
    default: object = REQUIRED


class Operation(NamedTuple):
    """``POST /v1/<tenant>/<name>``: the fields of the
    :class:`~repro.nws.service.ServiceCore` method ``name`` after the
    tenant, the server's ``encode(fields, result) -> payload`` and the
    client's ``decode(payload) -> result``."""

    name: str
    fields: tuple[Field, ...]
    encode: Callable[[dict, object], dict]
    decode: Callable[[dict], object]

    def read(self, body: dict) -> dict:
        """A request body's fields, cast, in table order.  An absent or
        ``null`` field reads as its default; other keys are ignored."""
        args = {}
        for name, cast, default in self.fields:
            value = body.get(name)
            if value is None:
                if default is REQUIRED:
                    raise ValueError(f"missing required field {name!r}")
                value = default
            elif type(value) is not cast:
                value = coerce_field(name, cast, value)
            args[name] = value
        return args

    def write(self, args: tuple, kwargs: dict) -> dict:
        """The request body of a call, its arguments bound to the fields
        in table order and cast as :meth:`read` casts them.  A value that
        is ``None`` or equal to its default is left off the wire; NaN
        equals nothing, so a NaN bound is always sent."""
        fields = self.fields
        if kwargs or len(args) > len(fields):
            kwargs = dict(kwargs)
            args += tuple(kwargs.pop(f.name, None) for f in fields[len(args):])
            if kwargs or len(args) > len(fields):
                raise TypeError(f"{self.name}() takes {[f.name for f in fields]}")
        body = {}
        for (name, cast, default), value in zip(fields, args):
            if value is None:
                continue
            if type(value) is not cast:
                value = coerce_field(name, cast, value)
            if default is REQUIRED or value != default:
                body[name] = value
        return body


def _attributes(value) -> dict[str, str]:
    """An attributes field: a JSON object, its keys and values as text."""
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return {str(k): str(v) for k, v in value.items()}


def _counted(kind: str):
    return lambda args, count: {
        "version": WIRE_VERSION, "kind": kind, "series": args["series"], "count": count
    }


def _decode_count(payload: dict) -> int:
    return int(_check_version(payload)["count"])


_SERIES = Field("series", str)
_NAME = Field("name", str)
_ATTRIBUTES = Field("attributes", _attributes, {})

#: Every POST operation by name.
OPERATIONS: dict[str, Operation] = {op.name: op for op in (
    Operation(
        "publish", (_SERIES, Field("time", float), Field("value", float)),
        _counted("published"), _decode_count,
    ),
    Operation(
        "fetch", (
            _SERIES, Field("start", float, float("-inf")), Field("stop", float, float("inf")),
            Field("limit", int, None),
        ),
        lambda args, window: encode_fetch(args["series"], *window),
        lambda payload: tuple(np.asarray(a, dtype=np.float64) for a in decode_fetch(payload)),
    ),
    Operation(
        "query", (_SERIES, Field("horizon", int, 1)),
        lambda args, report: encode_report(report), decode_report,
    ),
    Operation(
        "query_all", (),
        lambda args, reports: {
            "version": WIRE_VERSION, "kind": "forecasts",
            "reports": {name: encode_report(r) for name, r in sorted(reports.items())},
        },
        decode_reports,
    ),
    Operation(
        "register", (_NAME, Field("kind", str), _ATTRIBUTES, Field("ttl", float, None)),
        lambda args, registration: encode_registration(registration), decode_registration,
    ),
    Operation(
        "refresh", (_NAME, Field("ttl", float)),
        lambda args, registration: encode_registration(registration), decode_registration,
    ),
    Operation(
        "lookup", (Field("kind", str, None), _ATTRIBUTES),
        lambda args, registrations: {
            "version": WIRE_VERSION, "kind": "registrations",
            "registrations": [encode_registration(r) for r in registrations],
        },
        decode_registrations,
    ),
    Operation("recover", (_SERIES,), _counted("recovered"), _decode_count),
)}


#: Request header carrying the client's remaining time budget (seconds).
#: Defined here because both transport ends must agree on it: the client
#: transport attaches it, the server parses it into a request deadline.
DEADLINE_HEADER = "X-NWS-Deadline"

#: HTTP framing bounds both ends hold the other to: the stdlib's
#: per-line byte limit and header count.
MAX_LINE = 65536
MAX_HEADERS = 100


def closes(connection: bytes) -> bool:
    """Whether a ``Connection`` header value carries the ``close`` token."""
    return b"close" in [token.strip() for token in connection.lower().split(b",")]


# ------------------------------------------------------------------- errors

#: code -> HTTP status, in taxonomy order.
ERROR_STATUS = {
    "bad_request": 400,
    "unknown_tenant": 403,
    "series_unavailable": 404,
    "not_found": 404,
    "registration_lapsed": 410,
    "overloaded": 429,
    "retry_exhausted": 503,
    "internal": 500,
}


def code_for_exception(exc: BaseException) -> str:
    """The wire error code a service exception maps to.

    Shared by the HTTP error path and the loadtest digest, so a failed
    operation hashes identically whether it failed in-process (typed
    exception) or over the wire (envelope round-trip).
    """
    if isinstance(exc, SeriesUnavailable):
        return "series_unavailable"
    if isinstance(exc, RegistrationLapsed):
        return "registration_lapsed"
    if isinstance(exc, UnknownTenant):
        return "unknown_tenant"
    if isinstance(exc, ServerOverloaded):
        return "overloaded"
    if isinstance(exc, RetryError):
        return "retry_exhausted"
    if isinstance(exc, ValueError):
        return "bad_request"
    if isinstance(exc, LookupError):
        return "not_found"
    return "internal"


def error_envelope(code: str, message: str, **details) -> dict:
    """A versioned error payload; ``details`` become envelope fields."""
    if code not in ERROR_STATUS:
        raise ValueError(f"unknown error code {code!r}; use {sorted(ERROR_STATUS)}")
    error = {"code": code, "message": message}
    error.update(details)
    return {"version": WIRE_VERSION, "error": error}


def envelope_for_exception(exc: BaseException) -> tuple[int, dict]:
    """(HTTP status, envelope) for a service exception."""
    code = code_for_exception(exc)
    details: dict = {}
    if isinstance(exc, SeriesUnavailable):
        details = {"series": exc.series, "known": sorted(exc.known)}
    elif isinstance(exc, RegistrationLapsed):
        details = {"name": exc.name}
    elif isinstance(exc, UnknownTenant):
        details = {"tenant": exc.tenant, "known": sorted(exc.known)}
    elif isinstance(exc, ServerOverloaded):
        details = {"reason": exc.reason, "retry_after": exc.retry_after}
    message = str(exc) if code != "internal" else f"internal error: {exc}"
    return ERROR_STATUS[code], error_envelope(code, message, **details)


def raise_for_envelope(status: int, payload: dict) -> None:
    """Re-raise the typed exception an error envelope encodes.

    The inverse of :func:`envelope_for_exception`: a 404 with code
    ``series_unavailable`` raises the same
    :class:`~repro.nws.errors.SeriesUnavailable` the
    :class:`~repro.nws.service.ServiceCore` raises in process, so client
    code branches identically either way.
    """
    _check_version(payload)
    error = payload.get("error")
    if not isinstance(error, dict) or "code" not in error:
        raise ProtocolError(f"HTTP {status} with malformed error envelope")
    code = error["code"]
    message = error.get("message", "")
    if code == "series_unavailable":
        raise SeriesUnavailable(error.get("series", "?"), error.get("known", ()))
    if code == "registration_lapsed":
        raise RegistrationLapsed(error.get("name", "?"))
    if code == "unknown_tenant":
        raise UnknownTenant(error.get("tenant", "?"), error.get("known", ()))
    if code == "overloaded":
        raise ServerOverloaded(
            message,
            reason=str(error.get("reason", "overload")),
            retry_after=float(error.get("retry_after", 0.05)),
        )
    if code == "retry_exhausted":
        raise RetryError(message)
    if code == "bad_request":
        raise ValueError(message)
    if code == "not_found":
        raise LookupError(message)
    raise ProtocolError(f"HTTP {status}: {message}")
