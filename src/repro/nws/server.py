"""The NWS forecast server: a multi-tenant HTTP front end over ServiceCore.

A :class:`ForecastServer` wraps one
:class:`~repro.nws.service.ServiceCore` in a threading TCP server
speaking the versioned JSON wire format of :mod:`repro.nws.wire` over
lean HTTP/1.1.  Handlers execute exactly the core methods an in-process
:class:`~repro.nws.client.NWSClient` calls, so the HTTP surface can
never behave differently from the direct one -- the redesigned API's
central guarantee.

Framing is the handler's own, not ``http.server``'s: each connection is
a keep-alive loop that reads a request line and at most 100 headers
(65,536 bytes a line) with bounded ``readline``, then exactly
``Content-Length`` body bytes, and answers with status line, headers and
body in one write.  HTTP/1.0 or ``Connection: close`` closes after the
reply; ``Expect: 100-continue`` gets its interim ``100 Continue``.  A
malformed request line, header or ``Content-Length``, two
``Content-Length`` headers that disagree, any ``Transfer-Encoding``, a
body over 1 MiB or a method other than GET and POST is answered with a
``bad_request`` envelope and a closed connection; a body cut short
closes the connection without dispatching.

Routes (see the README's HTTP API table)::

    GET  /v1/health                     liveness + per-tenant summary
    GET  /v1/metrics                    metrics-registry snapshot
    GET  /v1/<tenant>/series            series names
    POST /v1/<tenant>/publish           {series, time, value}
    POST /v1/<tenant>/fetch             {series, start?, stop?, limit?}
    POST /v1/<tenant>/query             {series, horizon?}
    POST /v1/<tenant>/query_all         {}
    POST /v1/<tenant>/register          {name, kind, attributes?, ttl?}
    POST /v1/<tenant>/refresh           {name, ttl}
    POST /v1/<tenant>/lookup            {kind?, attributes?}
    POST /v1/<tenant>/recover           {series}

Failures become typed error envelopes (``envelope_for_exception``), so a
lapsed registration is an HTTP 410 here and a
:class:`~repro.nws.errors.RegistrationLapsed` after the client transport
decodes it.

The server practices the NWS liveness protocol on itself: at start it
registers ``forecaster.server`` in every tenant's name server with a TTL,
and the background maintenance worker refreshes that registration each
cycle (re-registering if it lapsed, e.g. after a long stall) alongside
the retention pass -- exactly the crash-detection contract sensors live
under.

Overload protection: with ``max_inflight`` set, admission control bounds
concurrent request handling and sheds the excess deterministically --
HTTP ``429`` with an ``overloaded`` envelope and a ``Retry-After``
header -- instead of letting queue growth take every tenant down.
Clients propagate a remaining-time budget in the ``X-NWS-Deadline``
header; expired budgets are shed at admission (or mid-operation, see
:func:`~repro.nws.service.set_request_deadline`).  :meth:`stop` drains:
new requests are shed with ``reason="draining"`` while in-flight ones
finish, tenant logs are fsynced, and a worker thread that outlives its
join window is counted in ``repro_server_unclean_shutdown_total`` and
surfaced in ``/v1/health`` rather than silently leaked.
"""

from __future__ import annotations

import json
import math
import re
import socketserver
import sys
import threading
import time
from http import HTTPStatus

from repro.nws.errors import RegistrationLapsed, ServerOverloaded
from repro.nws.service import ServiceCore, coerce_field, set_request_deadline
from repro.nws.wire import (
    DEADLINE_HEADER,
    MAX_HEADERS,
    MAX_LINE,
    WIRE_VERSION,
    SampleText,
    canonical,
    closes,
    encode_fetch,
    encode_registration,
    encode_report,
    envelope_for_exception,
)
from repro.obs.metrics import get_registry

__all__ = ["ForecastServer", "SERVER_REGISTRATION", "DEADLINE_HEADER"]

#: Name the server registers itself under in every tenant's name server.
SERVER_REGISTRATION = "forecaster.server"

#: Wall-clock request-latency buckets (seconds): HTTP round-trips on
#: localhost land sub-millisecond; the tail catches stalls.
_LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)

#: Request body cap, far above any operation's payload (the reader
#: allocates ``Content-Length`` bytes up front).
_MAX_BODY = 1 << 20

_METHODS = {b"GET": "GET", b"POST": "POST"}
_VERSIONS = (b"HTTP/1.1", b"HTTP/1.0")
#: ``name: value`` with an RFC 9110 token name; no obsolete line folding.
_HEADER_LINE = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+):[ \t]*(.*?)[ \t]*\r?\n")
_DEADLINE = DEADLINE_HEADER.lower().encode("ascii")
_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n" for s in HTTPStatus}
_SERVER_HEADER = f"Server: nws-repro Python/{sys.version.split()[0]}\r\n"
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _text(raw: bytes, limit: int) -> str:
    """The start of a request's bytes, for an error message."""
    return raw[:limit].decode("latin-1")


class _App(socketserver.ThreadingTCPServer):
    """Threading TCP server that knows its ForecastServer."""

    daemon_threads = True
    allow_reuse_address = True
    forecast_server: "ForecastServer"
    #: (second, header) of the last ``Date`` line built.
    _date = (0, "")

    def date_header(self) -> str:
        """The ``Date`` header line; an RFC 9110 date changes once a
        second, so it is formatted once a second, not per response."""
        now = int(time.time())
        second, header = self._date
        if second != now:
            t = time.gmtime(now)
            header = (
                f"Date: {_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon]} "
                f"{t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT\r\n"
            )
            self._date = (now, header)
        return header


class _Handler(socketserver.StreamRequestHandler):
    """HTTP/1.1 keep-alive loop: one request in, one ``write`` out.

    Requests are framed by ``Content-Length`` only; anything this
    service's clients never send (chunked bodies, other methods, HTTP/0.9
    or 2) is a ``bad_request`` envelope and a closed connection.
    """

    # Responses are tiny and ping-pong on persistent connections; with
    # Nagle on, every exchange eats a delayed-ACK stall (~40 ms).
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while True:
                try:
                    if not self._read_request():
                        return
                except ValueError as exc:
                    self._reject(exc)
                    return
                self._handle(self.command)
                if self.close_connection:
                    return
        except OSError:
            # The peer reset or vanished mid-exchange: nothing to answer.
            return

    def _read_request(self) -> bool:
        """Frame one request into command, path, headers and raw body.

        False when the peer closed the connection (between requests or
        before the body was complete); ``ValueError`` when the bytes are
        not a request this server accepts.
        """
        rfile = self.rfile
        line = rfile.readline(MAX_LINE + 1)
        if not line:
            return False
        if len(line) > MAX_LINE:
            raise ValueError("request line too long")
        words = line.split()
        if len(words) != 3:
            raise ValueError(f"malformed request line {_text(line, 80)!r}")
        method, target, version = words
        if method not in _METHODS:
            raise ValueError(f"method {_text(method, 20)!r} not allowed; use GET or POST")
        if version not in _VERSIONS:
            raise ValueError(f"unsupported protocol {_text(version, 20)!r}; use HTTP/1.1")
        headers = {}
        for _ in range(MAX_HEADERS + 1):
            line = rfile.readline(MAX_LINE + 1)
            if line == b"\r\n" or line == b"\n":
                break
            if not line:
                return False
            match = _HEADER_LINE.fullmatch(line)
            if match is None or len(line) > MAX_LINE:
                raise ValueError(f"malformed header line {_text(line, 80)!r}")
            name, value = match[1].lower(), match[2]
            if name == b"content-length" and headers.get(name, value) != value:
                # RFC 9112 section 6.3: which length frames the body is
                # ambiguous, so neither is trusted.
                raise ValueError("conflicting Content-Length headers")
            headers[name] = value
        else:
            raise ValueError(f"more than {MAX_HEADERS} headers")
        if b"transfer-encoding" in headers:
            raise ValueError("Transfer-Encoding is not supported; send Content-Length")
        length = headers.get(b"content-length", b"0")
        if not length.isdigit() or int(length) > _MAX_BODY:
            raise ValueError(f"bad Content-Length {_text(length, 40)!r}")
        self.close_connection = version == b"HTTP/1.0" or closes(
            headers.get(b"connection", b"")
        )
        if headers.get(b"expect", b"").lower() == b"100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        size = int(length)
        raw = rfile.read(size) if size else b""
        if len(raw) < size:
            return False
        self.command = _METHODS[method]
        self.path = target.decode("latin-1")
        self.headers = headers
        self._raw = raw
        return True

    def _body(self) -> dict:
        raw = self._raw
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except RecursionError:
            raise ValueError("request body nests too deeply") from None
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _deadline(self) -> float | None:
        value = self.headers.get(_DEADLINE)
        if value is None:
            return None
        try:
            budget = float(value)
        except ValueError:
            return None
        return time.monotonic() + budget

    def _handle(self, method: str) -> None:
        app: ForecastServer = self.server.forecast_server
        started = time.perf_counter()
        deadline_at = self._deadline()
        retry_after: float | None = None
        shed_reason = app.try_admit(deadline_at)
        if shed_reason is not None:
            exc = ServerOverloaded(
                f"request shed: {shed_reason}",
                reason=shed_reason,
                retry_after=0.0 if shed_reason == "deadline" else app.shed_retry_after,
            )
            status, payload = envelope_for_exception(exc)
            app.count_shed(shed_reason)
            app.core.count_error("overloaded")
            retry_after = exc.retry_after
        else:
            set_request_deadline(deadline_at)
            try:
                status, payload = app.dispatch(method, self.path, self._body())
            except Exception as exc:
                status, payload = envelope_for_exception(exc)
                app.core.count_error(payload["error"]["code"])
                if isinstance(exc, ServerOverloaded):
                    app.count_shed(exc.reason)
                    retry_after = exc.retry_after
            finally:
                set_request_deadline(None)
                app.release()
        self._respond(status, canonical(payload), retry_after)
        app.observe_response(status, time.perf_counter() - started)

    def _reject(self, exc: ValueError) -> None:
        """Answer a request that could not be framed, then hang up."""
        app: ForecastServer = self.server.forecast_server
        started = time.perf_counter()
        status, payload = envelope_for_exception(exc)
        app.core.count_error(payload["error"]["code"])
        self.close_connection = True
        self._respond(status, canonical(payload))
        app.observe_response(status, time.perf_counter() - started)

    def _respond(self, status: int, body: bytes, retry_after: float | None = None) -> None:
        """Status line, headers and body in one write."""
        head = (
            f"{_STATUS_LINES[status]}{_SERVER_HEADER}{self.server.date_header()}"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        )
        if retry_after is not None:
            # RFC 9110 Retry-After is integer delta-seconds; round up so
            # "wait 0.05 s" never becomes "retry immediately".
            head += f"Retry-After: {max(0, math.ceil(retry_after))}\r\n"
            # A shed connection must not be reused: a draining server's
            # keep-alive handler threads would otherwise answer 429
            # forever, and a retrying client must reconnect to reach the
            # (possibly restarted) listener instead.
            self.close_connection = True
        if self.close_connection:
            head += "Connection: close\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)


_MISSING = object()


def _field(body: dict, name: str, cast, default=_MISSING):
    value = body.get(name, default)
    if value is _MISSING:
        raise ValueError(f"missing required field {name!r}")
    return coerce_field(name, cast, value)


class ForecastServer:
    """Long-running multi-tenant forecast server.

    Parameters
    ----------
    core:
        The :class:`~repro.nws.service.ServiceCore` to serve; a default
        ``ServiceCore()`` when omitted.
    host / port:
        Bind address (port 0 picks an ephemeral port; read it back from
        :attr:`port` or :attr:`url`).
    maintenance_interval:
        Wall seconds between background maintenance cycles (retention
        compaction + self-registration refresh).  None (default) runs no
        worker -- call :meth:`maintain_once` yourself, as the tests do.
    registration_ttl:
        TTL (in the core's clock units) on the server's own
        ``forecaster.server`` registrations.
    max_inflight:
        Bound on concurrently handled requests; the excess is shed with
        HTTP 429 (``overloaded``, ``reason="overload"``).  None
        (default) admits everything -- the pre-overload-protection
        behavior.
    shed_retry_after:
        ``retry_after`` hint (seconds) attached to shed responses.
    drain_timeout:
        Wall seconds :meth:`stop` waits for in-flight requests to finish
        before closing the listener.
    shutdown_timeout:
        Wall seconds :meth:`stop` waits for each worker thread to join;
        a thread that outlives it is counted as an unclean shutdown.
    """

    def __init__(
        self,
        core: ServiceCore | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        maintenance_interval: float | None = None,
        registration_ttl: float = 90.0,
        max_inflight: int | None = None,
        shed_retry_after: float = 0.05,
        drain_timeout: float = 5.0,
        shutdown_timeout: float = 5.0,
    ):
        if maintenance_interval is not None and maintenance_interval <= 0.0:
            raise ValueError(
                f"maintenance_interval must be positive, got {maintenance_interval}"
            )
        if registration_ttl <= 0.0:
            raise ValueError(f"registration_ttl must be positive, got {registration_ttl}")
        if max_inflight is not None and max_inflight < 0:
            raise ValueError(f"max_inflight must be >= 0, got {max_inflight}")
        if shed_retry_after < 0.0:
            raise ValueError(f"shed_retry_after must be >= 0, got {shed_retry_after}")
        self.core = core if core is not None else ServiceCore()
        self.registration_ttl = registration_ttl
        self.max_inflight = max_inflight
        self.shed_retry_after = shed_retry_after
        self.drain_timeout = drain_timeout
        self.shutdown_timeout = shutdown_timeout
        self.unclean_shutdowns = 0
        self._maintenance_interval = maintenance_interval
        # The text of the last window served per series, one memo per
        # tenant (see repro.nws.wire.SampleText).
        self._fetch_memo = {name: SampleText() for name in self.core.tenant_names()}
        self._httpd = _App((host, port), _Handler)
        self._httpd.forecast_server = self
        self.host, self.port = self._httpd.server_address[:2]
        self._stop = threading.Event()
        self._serve_thread: threading.Thread | None = None
        self._maintenance_thread: threading.Thread | None = None
        # Admission state: handler threads take this condition for every
        # admit/release; stop() waits on it for the drain barrier.
        self._inflight = 0
        self._draining = False
        self._inflight_cond = threading.Condition()
        registry = get_registry()
        self._registry = registry
        self._obs_latency = registry.histogram(
            "repro_server_request_seconds", buckets=_LATENCY_BUCKETS
        )
        self._obs_responses: dict[int, object] = {}
        self._obs_shed: dict[str, object] = {}
        self._obs_maintenance = registry.counter(
            "repro_server_maintenance_cycles_total"
        )
        self._obs_unclean = registry.counter(
            "repro_server_unclean_shutdown_total"
        )

    # ----------------------------------------------------------- lifecycle

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ForecastServer":
        """Bind the worker threads and announce the server to its tenants."""
        if self._serve_thread is not None:
            raise RuntimeError("server already started")
        for tenant in self.core.tenant_names():
            self.core.register(
                tenant,
                SERVER_REGISTRATION,
                "forecaster",
                {"url": self.url},
                ttl=self.registration_ttl,
            )
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="nws-server-http",
            daemon=True,
        )
        self._serve_thread.start()
        if self._maintenance_interval is not None:
            self._maintenance_thread = threading.Thread(
                target=self._maintenance_worker,
                name="nws-server-maintenance",
                daemon=True,
            )
            self._maintenance_thread.start()
        return self

    def begin_drain(self) -> None:
        """Stop admitting requests; in-flight ones run to completion.

        New arrivals are shed with ``reason="draining"`` until
        :meth:`stop` closes the listener.
        """
        with self._inflight_cond:
            self._draining = True

    def stop(self) -> None:
        """Graceful shutdown: drain, close, persist, join -- and report.

        In order: stop admitting (drain), wait up to ``drain_timeout``
        for in-flight requests, shut the listener and maintenance worker
        down, fsync every tenant's log, then join each worker
        thread.  A thread still alive after ``shutdown_timeout`` is a
        leak, not a shrug: it increments
        ``repro_server_unclean_shutdown_total`` and
        :attr:`unclean_shutdowns` (surfaced in ``/v1/health``).
        """
        self.begin_drain()
        with self._inflight_cond:
            self._inflight_cond.wait_for(
                lambda: self._inflight == 0, timeout=self.drain_timeout
            )
        self._stop.set()
        if self._serve_thread is not None:
            # shutdown() blocks forever unless serve_forever is running.
            self._httpd.shutdown()
        self._httpd.server_close()
        for thread in (self._serve_thread, self._maintenance_thread):
            if thread is None:
                continue
            thread.join(timeout=self.shutdown_timeout)
            if thread.is_alive():
                self.unclean_shutdowns += 1
                self._obs_unclean.inc()
        # Durability barrier: whatever the logs buffered is on disk
        # before the process can exit.
        self.core.sync()

    def close(self) -> None:
        """Alias for :meth:`stop` (file-like lifecycle naming)."""
        self.stop()

    def __enter__(self) -> "ForecastServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _maintenance_worker(self) -> None:
        # Event.wait gives both the cadence and an immediate, clean
        # shutdown path (never time.sleep in a service loop).
        while not self._stop.wait(self._maintenance_interval):
            self.maintain_once()

    def maintain_once(self) -> int:
        """One maintenance cycle: retention pass + liveness refresh.

        Returns the number of series compacted.  The server refreshes its
        own TTL'd ``forecaster.server`` registration per tenant,
        re-registering when it lapsed -- the same recovery a crashed
        sensor host performs -- and drops the remembered fetch text of
        series the memory no longer holds.
        """
        compacted = self.core.maintain()
        for tenant, memo in self._fetch_memo.items():
            memo.retain(self.core.tenant(tenant).memory.series_names())
        for tenant in self.core.tenant_names():
            try:
                self.core.refresh(
                    tenant, SERVER_REGISTRATION, ttl=self.registration_ttl
                )
            except RegistrationLapsed:
                self.core.register(
                    tenant,
                    SERVER_REGISTRATION,
                    "forecaster",
                    {"url": self.url},
                    ttl=self.registration_ttl,
                )
        self._obs_maintenance.inc()
        return compacted

    # ------------------------------------------------------------ admission

    def try_admit(self, deadline_at: float | None = None) -> str | None:
        """Admission control for one request.

        Returns None and takes an in-flight slot when the request may
        proceed (the caller MUST pair it with :meth:`release`), or the
        shed reason -- ``"draining"``, ``"deadline"``, ``"overload"`` --
        without taking a slot.
        """
        with self._inflight_cond:
            if self._draining:
                return "draining"
            if deadline_at is not None and time.monotonic() >= deadline_at:
                return "deadline"
            if self.max_inflight is not None and self._inflight >= self.max_inflight:
                return "overload"
            self._inflight += 1
            return None

    def release(self) -> None:
        """Give back an in-flight slot taken by :meth:`try_admit`."""
        with self._inflight_cond:
            if self._inflight > 0:
                self._inflight -= 1
            self._inflight_cond.notify_all()

    def count_shed(self, reason: str) -> None:
        """Tally one shed request by reason."""
        counter = self._obs_shed.get(reason)
        if counter is None:
            counter = self._registry.counter(
                "repro_server_shed_total", reason=reason
            )
            self._obs_shed[reason] = counter
        counter.inc()

    # ------------------------------------------------------------ plumbing

    def observe_response(self, status: int, seconds: float) -> None:
        """Tally one finished HTTP exchange (wall latency + status)."""
        self._obs_latency.observe(seconds)
        counter = self._obs_responses.get(status)
        if counter is None:
            counter = self._registry.counter(
                "repro_server_responses_total", status=str(status)
            )
            self._obs_responses[status] = counter
        counter.inc()

    # ------------------------------------------------------------ dispatch

    def dispatch(self, method: str, path: str, body: dict) -> tuple[int, dict]:
        """Route one request to the core; returns (status, payload)."""
        parts = [p for p in path.split("/") if p]
        if not parts or parts[0] != "v1":
            raise LookupError(f"no such path {path!r}; the API lives under /v1")
        if parts[1:] == ["health"]:
            self._require(method, "GET", path)
            with self._inflight_cond:
                inflight, draining = self._inflight, self._draining
            return 200, {
                "version": WIRE_VERSION,
                "kind": "health",
                **self.core.health(),
                "server": {
                    "draining": draining,
                    "inflight": inflight,
                    "max_inflight": self.max_inflight,
                    "unclean_shutdowns": self.unclean_shutdowns,
                },
            }
        if parts[1:] == ["metrics"]:
            self._require(method, "GET", path)
            return 200, {
                "version": WIRE_VERSION,
                "kind": "metrics",
                "metrics": get_registry().snapshot(),
            }
        if len(parts) != 3:
            raise LookupError(f"no such path {path!r}")
        _, tenant, op = parts
        if op == "series":
            self._require(method, "GET", path)
            return 200, {
                "version": WIRE_VERSION,
                "kind": "series",
                "series": self.core.series_names(tenant),
            }
        self._require(method, "POST", path)
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise LookupError(f"no such operation {op!r}")
        return 200, handler(tenant, body)

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise ValueError(f"{path} expects {expected}, got {method}")

    # ----------------------------------------------------- POST operations

    def _op_publish(self, tenant: str, body: dict) -> dict:
        count = self.core.publish(
            tenant,
            _field(body, "series", str),
            _field(body, "time", float),
            _field(body, "value", float),
        )
        return {
            "version": WIRE_VERSION,
            "kind": "published",
            "series": body["series"],
            "count": count,
        }

    def _op_fetch(self, tenant: str, body: dict) -> dict:
        series = _field(body, "series", str)
        window = self.core.fetch(
            tenant,
            series,
            start=_field(body, "start", float, float("-inf")),
            stop=_field(body, "stop", float, float("inf")),
            limit=(
                None if body.get("limit") is None else _field(body, "limit", int)
            ),
        )
        times, values = window
        return self._fetch_memo[tenant].bind(
            encode_fetch(series, times, values), window.first_seq
        )

    def _op_query(self, tenant: str, body: dict) -> dict:
        report = self.core.query(
            tenant,
            _field(body, "series", str),
            horizon=_field(body, "horizon", int, 1),
        )
        return encode_report(report)

    def _op_query_all(self, tenant: str, body: dict) -> dict:
        reports = self.core.query_all(tenant)
        return {
            "version": WIRE_VERSION,
            "kind": "forecasts",
            "reports": {name: encode_report(r) for name, r in sorted(reports.items())},
        }

    def _op_register(self, tenant: str, body: dict) -> dict:
        attributes = body.get("attributes") or {}
        if not isinstance(attributes, dict):
            raise ValueError("attributes must be a JSON object")
        ttl = None if body.get("ttl") is None else _field(body, "ttl", float)
        registration = self.core.register(
            tenant,
            _field(body, "name", str),
            _field(body, "kind", str),
            {str(k): str(v) for k, v in attributes.items()},
            ttl=ttl,
        )
        return encode_registration(registration)

    def _op_refresh(self, tenant: str, body: dict) -> dict:
        registration = self.core.refresh(
            tenant, _field(body, "name", str), ttl=_field(body, "ttl", float)
        )
        return encode_registration(registration)

    def _op_lookup(self, tenant: str, body: dict) -> dict:
        kind = None if body.get("kind") is None else _field(body, "kind", str)
        filters = body.get("attributes") or {}
        if not isinstance(filters, dict):
            raise ValueError("attributes must be a JSON object")
        registrations = self.core.lookup(
            tenant, kind, **{str(k): str(v) for k, v in filters.items()}
        )
        return {
            "version": WIRE_VERSION,
            "kind": "registrations",
            "registrations": [encode_registration(r) for r in registrations],
        }

    def _op_recover(self, tenant: str, body: dict) -> dict:
        series = _field(body, "series", str)
        count = self.core.recover(tenant, series)
        return {
            "version": WIRE_VERSION,
            "kind": "recovered",
            "series": series,
            "count": count,
        }
