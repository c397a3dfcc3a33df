"""NWSClient: the one public face of the NWS forecast service.

The API redesign collapses the old grab-bag of entry points (direct
``MemoryStore.publish``, ``ForecasterService.query``, ad-hoc name-server
calls) into a single facade with two interchangeable transports:

* :class:`InProcessTransport` -- executes
  :class:`~repro.nws.service.ServiceCore` methods directly; zero copies,
  for simulations and tests.
* :class:`HTTPTransport` -- speaks the versioned JSON wire format of
  :mod:`repro.nws.wire` to a :class:`~repro.nws.server.ForecastServer`,
  over persistent per-thread connections.

Both raise the *same* typed errors (:class:`SeriesUnavailable`,
:class:`RegistrationLapsed`, :class:`UnknownTenant`, ``ValueError``) and
return the same payload types, so code written against the client runs
unchanged whether the service is an object or a socket away::

    with NWSClient.in_process() as client:        # or NWSClient.connect(url)
        client.publish("cpu.a", time=0.0, value=0.7)
        report = client.query("cpu.a", horizon=3)

Signatures are keyword-normalized across the whole stack:
``fetch(series, start=, stop=, limit=)`` and ``query(series, horizon=)``
mean the same thing here, on :class:`~repro.nws.memory.MemoryStore`, on
:class:`~repro.nws.forecaster.ForecasterService` and on the wire.

Resilience is layered, both parts optional and seeded:

* a :class:`~repro.faults.RetryPolicy` (``retry=``) re-attempts
  *transient* failures -- shed requests
  (:class:`~repro.nws.errors.ServerOverloaded`), socket errors, HTTP
  breakage -- while typed application errors pass straight through;
* a :class:`~repro.faults.CircuitBreaker` (``breaker=``) sits outside
  the retries and fails fast once the server looks dead, probing it
  back to health on a budget.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from urllib.parse import urlsplit

import numpy as np

from repro.faults.policy import CircuitBreaker, RetryError, RetryPolicy
from repro.nws.errors import ServerOverloaded
from repro.nws.forecaster import ForecastReport
from repro.nws.nameserver import Registration
from repro.nws.service import DEFAULT_TENANT, ServiceCore, coerce_field
from repro.nws.wire import (
    DEADLINE_HEADER,
    ProtocolError,
    canonical,
    decode_fetch,
    decode_registration,
    decode_report,
    raise_for_envelope,
)

__all__ = ["NWSClient", "InProcessTransport", "HTTPTransport"]

#: Failures worth re-attempting: the server shed us, or the transport
#: broke underneath the request.  Typed application errors (unknown
#: series, lapsed registration, bad request) are never retried.
_RETRYABLE = (ServerOverloaded, OSError, http.client.HTTPException)

#: Failures that count against the circuit breaker: the server did not
#: give a usable answer.  ServerOverloaded is deliberately absent -- a
#: shedding server is alive and protecting itself; opening the circuit
#: on top of it would just delay recovery.
_BREAKER_FAILURES = (OSError, http.client.HTTPException, ProtocolError, RetryError)


def _classified(fn, args, kwargs):
    # Retry-policy adapter: transient failures propagate (and are
    # retried); application errors return as values so the policy never
    # burns attempts on them.
    try:
        return "ok", fn(*args, **kwargs)
    except _RETRYABLE:
        raise
    except Exception as exc:
        return "app", exc


class InProcessTransport:
    """Direct execution against a :class:`~repro.nws.service.ServiceCore`.

    The core is shared state: many clients (one per tenant, or one per
    simulated application) may hold the same transport.
    """

    def __init__(self, core: ServiceCore):
        self.core = core

    @classmethod
    def fresh(cls, **core_kwargs) -> "InProcessTransport":
        """A transport over a brand-new single-tenant core."""
        return cls(ServiceCore(**core_kwargs))

    def publish(self, tenant, series, time, value):
        return self.core.publish(tenant, series, time, value)

    def fetch(self, tenant, series, *, start, stop, limit):
        times, values = self.core.fetch(
            tenant, series, start=start, stop=stop, limit=limit
        )
        return np.asarray(times, dtype=np.float64), np.asarray(
            values, dtype=np.float64
        )

    def query(self, tenant, series, *, horizon):
        return self.core.query(tenant, series, horizon=horizon)

    def query_all(self, tenant):
        return self.core.query_all(tenant)

    def register(self, tenant, name, kind, attributes, *, ttl):
        return self.core.register(tenant, name, kind, attributes, ttl=ttl)

    def refresh(self, tenant, name, *, ttl):
        return self.core.refresh(tenant, name, ttl=ttl)

    def lookup(self, tenant, kind, **attribute_filters):
        return self.core.lookup(tenant, kind, **attribute_filters)

    def series_names(self, tenant):
        return self.core.series_names(tenant)

    def recover(self, tenant, series):
        return self.core.recover(tenant, series)

    def health(self):
        return self.core.health()

    def close(self) -> None:
        """Nothing to release: the core is shared, not owned."""


class HTTPTransport:
    """The wire transport: versioned JSON over persistent HTTP/1.1.

    Connections are per-thread (``http.client`` is not thread-safe), so
    one transport may be shared by a whole thread pool.  A request that
    dies on a stale keep-alive connection -- the normal aftermath of a
    server restart invalidating every pooled socket -- is retried once
    on a fresh connection; HTTP-level failures surface as the typed
    errors of :func:`~repro.nws.wire.raise_for_envelope`.

    ``deadline`` attaches a per-request time budget (seconds) as the
    ``X-NWS-Deadline`` header; the server sheds the request (HTTP 429,
    ``reason="deadline"``) once the budget is spent instead of finishing
    work this client has already given up on.
    """

    def __init__(self, url: str, *, timeout: float = 10.0, deadline: float | None = None):
        parsed = urlsplit(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(f"need an http://host:port URL, got {url!r}")
        if deadline is not None and deadline <= 0.0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.url = url.rstrip("/")
        self.deadline = None if deadline is None else float(deadline)
        self._host = parsed.hostname
        self._port = parsed.port if parsed.port is not None else 80
        self._timeout = float(timeout)
        self._local = threading.local()

    # ------------------------------------------------------------ plumbing

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
            conn.connect()
            # Request/response pairs are tiny; without TCP_NODELAY every
            # exchange eats a delayed-ACK stall (~40 ms) to Nagle.
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._local.conn = conn
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def _exchange(self, method: str, path: str, body: dict | None):
        payload = None if body is None else canonical(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        if self.deadline is not None:
            headers[DEADLINE_HEADER] = repr(self.deadline)
        conn = self._connection()
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        return response.status, raw

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        try:
            status, raw = self._exchange(method, path, body)
        except (http.client.HTTPException, OSError):
            # A keep-alive connection the server already closed; one
            # retry on a fresh connection is the idiomatic recovery.
            self._drop_connection()
            status, raw = self._exchange(method, path, body)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ProtocolError(
                f"HTTP {status} with non-JSON body from {self.url}{path}"
            ) from exc
        if status != 200:
            raise_for_envelope(status, payload)
        return payload

    # ---------------------------------------------------------- operations

    def publish(self, tenant, series, time, value):
        out = self._request(
            "POST",
            f"/v1/{tenant}/publish",
            {
                "series": series,
                "time": coerce_field("time", float, time),
                "value": coerce_field("value", float, value),
            },
        )
        return int(out["count"])

    def fetch(self, tenant, series, *, start, stop, limit):
        body: dict = {"series": series}
        start = coerce_field("start", float, start)
        stop = coerce_field("stop", float, stop)
        if start == start and start != float("-inf"):
            body["start"] = start
        if stop == stop and stop != float("inf"):
            body["stop"] = stop
        if limit is not None:
            body["limit"] = coerce_field("limit", int, limit)
        payload = self._request("POST", f"/v1/{tenant}/fetch", body)
        times, values = decode_fetch(payload)
        return np.asarray(times, dtype=np.float64), np.asarray(
            values, dtype=np.float64
        )

    def query(self, tenant, series, *, horizon) -> ForecastReport:
        payload = self._request(
            "POST",
            f"/v1/{tenant}/query",
            {"series": series, "horizon": coerce_field("horizon", int, horizon)},
        )
        return decode_report(payload)

    def query_all(self, tenant) -> dict[str, ForecastReport]:
        payload = self._request("POST", f"/v1/{tenant}/query_all", {})
        reports = payload.get("reports")
        if not isinstance(reports, dict):
            raise ProtocolError("malformed forecasts payload: no reports map")
        return {name: decode_report(r) for name, r in reports.items()}

    def register(self, tenant, name, kind, attributes, *, ttl) -> Registration:
        body = {"name": name, "kind": kind, "attributes": dict(attributes or {})}
        if ttl is not None:
            body["ttl"] = coerce_field("ttl", float, ttl)
        return decode_registration(
            self._request("POST", f"/v1/{tenant}/register", body)
        )

    def refresh(self, tenant, name, *, ttl) -> Registration:
        return decode_registration(
            self._request(
                "POST",
                f"/v1/{tenant}/refresh",
                {"name": name, "ttl": coerce_field("ttl", float, ttl)},
            )
        )

    def lookup(self, tenant, kind, **attribute_filters) -> list[Registration]:
        body = {"kind": kind, "attributes": attribute_filters}
        payload = self._request("POST", f"/v1/{tenant}/lookup", body)
        entries = payload.get("registrations")
        if not isinstance(entries, list):
            raise ProtocolError("malformed registrations payload")
        return [decode_registration(entry) for entry in entries]

    def series_names(self, tenant) -> list[str]:
        payload = self._request("GET", f"/v1/{tenant}/series")
        return [str(s) for s in payload.get("series", [])]

    def recover(self, tenant, series) -> int:
        payload = self._request(
            "POST", f"/v1/{tenant}/recover", {"series": series}
        )
        return int(payload["count"])

    def health(self) -> dict:
        payload = self._request("GET", "/v1/health")
        return {k: v for k, v in payload.items() if k not in ("version", "kind")}

    def close(self) -> None:
        self._drop_connection()


class NWSClient:
    """The redesigned public API: one facade, two transports.

    Construct via the classmethods --
    :meth:`in_process` (own a fresh core, or query an existing one such
    as a running :class:`~repro.nws.system.NWSSystem`'s) or :meth:`connect`
    (HTTP to a :class:`~repro.nws.server.ForecastServer`) -- or pass any
    transport explicitly.  A client is bound to one tenant;
    :meth:`for_tenant` derives a sibling on the same transport.

    ``retry`` (a seeded :class:`~repro.faults.RetryPolicy`) re-attempts
    transient failures; ``breaker`` (a seeded
    :class:`~repro.faults.CircuitBreaker`) wraps every data/discovery
    call and fails fast with
    :class:`~repro.faults.CircuitOpenError` while the server looks dead.
    :meth:`health` deliberately bypasses both -- it is how you find out
    whether an open circuit may close.
    """

    def __init__(
        self,
        transport,
        *,
        tenant: str = DEFAULT_TENANT,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ):
        self.transport = transport
        self.tenant = tenant
        self.retry = retry
        self.breaker = breaker

    # -------------------------------------------------------- constructors

    @classmethod
    def in_process(cls, core: ServiceCore | None = None, *, tenant: str = DEFAULT_TENANT, **core_kwargs) -> "NWSClient":
        """A client over an in-process core (a fresh one by default)."""
        if core is not None and core_kwargs:
            raise ValueError("pass either a core or core kwargs, not both")
        transport = (
            InProcessTransport(core)
            if core is not None
            else InProcessTransport.fresh(**core_kwargs)
        )
        return cls(transport, tenant=tenant)

    @classmethod
    def connect(
        cls,
        url: str,
        *,
        tenant: str = DEFAULT_TENANT,
        timeout: float = 10.0,
        deadline: float | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> "NWSClient":
        """A client speaking HTTP to a running forecast server."""
        return cls(
            HTTPTransport(url, timeout=timeout, deadline=deadline),
            tenant=tenant,
            retry=retry,
            breaker=breaker,
        )

    def for_tenant(self, tenant: str) -> "NWSClient":
        """A sibling client for another tenant, sharing the transport.

        The retry policy and circuit breaker are shared too: they track
        the health of the *server*, which is tenant-independent.
        """
        return type(self)(
            self.transport, tenant=tenant, retry=self.retry, breaker=self.breaker
        )

    # ----------------------------------------------------------- resilience

    def _call(self, op: str, fn, *args, **kwargs):
        """Run one transport operation under the breaker + retry layers.

        Ordering matters: the breaker gates (and observes) the whole
        retried operation, so a server that dies mid-burst costs one
        breaker failure, not ``retries + 1``.
        """
        if self.breaker is not None:
            self.breaker.before_call()
        try:
            if self.retry is None:
                result = fn(*args, **kwargs)
            else:
                kind, value = self.retry.call(
                    _classified, fn, args, kwargs, describe=op
                )
                if kind == "app":
                    raise value
                result = value
        except Exception as exc:
            if self.breaker is not None:
                if isinstance(exc, _BREAKER_FAILURES):
                    self.breaker.record_failure()
                else:
                    # The server answered (typed application error, or a
                    # shed): it is alive, whatever it said.
                    self.breaker.record_success()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        return result

    # ----------------------------------------------------------- data API

    def publish(self, series: str, *, time: float, value: float) -> int:
        """Append one measurement; returns the series' retained count."""
        return self._call(
            "publish", self.transport.publish, self.tenant, series, time, value
        )

    def fetch(
        self,
        series: str,
        *,
        start: float = float("-inf"),
        stop: float = float("inf"),
        limit: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) arrays for a series window (inclusive bounds)."""
        return self._call(
            "fetch",
            self.transport.fetch,
            self.tenant,
            series,
            start=start,
            stop=stop,
            limit=limit,
        )

    def query(self, series: str, *, horizon: int = 1) -> ForecastReport:
        """One forecast with error bar, ``horizon`` measurement steps out.

        Raises
        ------
        SeriesUnavailable
            Unknown series (HTTP 404 on the wire).
        ValueError
            Empty series or bad horizon (HTTP 400).
        """
        return self._call(
            "query", self.transport.query, self.tenant, series, horizon=horizon
        )

    def query_all(self) -> dict[str, ForecastReport]:
        """Forecasts for every non-empty series of this tenant."""
        return self._call("query_all", self.transport.query_all, self.tenant)

    def series_names(self) -> list[str]:
        """Sorted names of every series this tenant holds."""
        return self._call(
            "series_names", self.transport.series_names, self.tenant
        )

    def recover(self, series: str) -> int:
        """Reload a series from the persistence journal; returns samples."""
        return self._call("recover", self.transport.recover, self.tenant, series)

    # ------------------------------------------------------ discovery API

    def register(
        self,
        name: str,
        kind: str,
        attributes: dict[str, str] | None = None,
        *,
        ttl: float | None = None,
    ) -> Registration:
        """Register a component (TTL'd when ``ttl`` is given)."""
        return self._call(
            "register",
            self.transport.register,
            self.tenant,
            name,
            kind,
            attributes,
            ttl=ttl,
        )

    def refresh(self, name: str, *, ttl: float) -> Registration:
        """Extend a live registration's TTL.

        Raises
        ------
        RegistrationLapsed
            The registration is unknown or expired (HTTP 410).
        """
        return self._call(
            "refresh", self.transport.refresh, self.tenant, name, ttl=ttl
        )

    def lookup(
        self, kind: str | None = None, **attribute_filters: str
    ) -> list[Registration]:
        """Live components by kind and exact attribute matches."""
        return self._call(
            "lookup", self.transport.lookup, self.tenant, kind, **attribute_filters
        )

    # ----------------------------------------------------------- lifecycle

    def health(self) -> dict:
        """Service liveness summary (all tenants).

        Bypasses the retry policy and circuit breaker: a health probe
        must reflect the server's actual state, not the client's
        protective layers.
        """
        return self.transport.health()

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "NWSClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
