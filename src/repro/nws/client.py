"""NWSClient: the one public face of the NWS forecast service.

The API redesign collapses the old grab-bag of entry points (direct
``MemoryStore.publish``, ``ForecasterService.query``, ad-hoc name-server
calls) into a single facade over a *transport*, the object whose
methods it calls:

* in process, the transport is the
  :class:`~repro.nws.service.ServiceCore` itself -- zero copies, for
  simulations and tests;
* :class:`HTTPTransport` speaks the versioned JSON wire format of
  :mod:`repro.nws.wire` to a :class:`~repro.nws.server.ForecastServer`
  (which calls those same core methods), over persistent per-thread
  connections with lean HTTP/1.1 framing: one ``sendall`` per request,
  a response read by ``Content-Length``.

Both raise the *same* typed errors (:class:`SeriesUnavailable`,
:class:`RegistrationLapsed`, :class:`UnknownTenant`, ``ValueError``) and
return the same payload types, so code written against the client runs
unchanged whether the service is an object or a socket away::

    with NWSClient.in_process() as client:        # or NWSClient.connect(url)
        client.publish("cpu.a", time=0.0, value=0.7)
        report = client.query("cpu.a", horizon=3)

The client's options are keyword-only; it hands them to the transport
in the field order of the operation's row of
:data:`repro.nws.wire.OPERATIONS`, the parameter order of the core
method of the same name.

Resilience is layered, both parts optional and seeded:

* a :class:`~repro.faults.RetryPolicy` (``retry=``) re-attempts
  *transient* failures -- shed requests
  (:class:`~repro.nws.errors.ServerOverloaded`), socket errors, broken
  HTTP framing (:class:`FramingError`) -- while typed application errors
  pass straight through;
* a :class:`~repro.faults.CircuitBreaker` (``breaker=``) sits outside
  the retries and fails fast once the server looks dead, probing it
  back to health on a budget.
"""

from __future__ import annotations

import json
import re
import socket
import threading
from urllib.parse import urlsplit

import numpy as np

from repro.faults.policy import CircuitBreaker, RetryError, RetryPolicy
from repro.nws.errors import ServerOverloaded
from repro.nws.forecaster import ForecastReport
from repro.nws.nameserver import Registration
from repro.nws.service import DEFAULT_TENANT, ServiceCore
from repro.nws.wire import (
    DEADLINE_HEADER,
    MAX_HEADERS,
    MAX_LINE,
    OPERATIONS,
    Operation,
    ProtocolError,
    canonical,
    closes,
    raise_for_envelope,
)

__all__ = ["NWSClient", "HTTPTransport", "FramingError"]


class FramingError(OSError):
    """The server's reply is not a framed HTTP/1.1 response: it closed
    the connection early, or sent a bad status line, header or
    ``Content-Length``.  The connection is dropped; like any socket
    error, this is transient to the retry and breaker layers."""


#: Failures worth re-attempting: the server shed us, or the transport
#: broke underneath the request (socket errors and FramingError are
#: both OSErrors).  Typed application errors (unknown series, lapsed
#: registration, bad request) are never retried.
_RETRYABLE = (ServerOverloaded, OSError)

#: Failures that count against the circuit breaker: the server did not
#: give a usable answer.  ServerOverloaded is deliberately absent -- a
#: shedding server is alive and protecting itself; opening the circuit
#: on top of it would just delay recovery.
_BREAKER_FAILURES = (OSError, ProtocolError, RetryError)

#: Response body cap: keeps a bogus ``Content-Length`` from allocating
#: without bound.
_MAX_BODY = 1 << 30

#: Bytes that would break the request line: whitespace and controls.
_UNSAFE_TARGET = re.compile(r"[\x00-\x20\x7f]")


def _read_response(reader) -> tuple[int, bytes, bool]:
    """(status, body, server closes) for one response from ``reader``."""
    line = reader.readline(MAX_LINE + 1)
    if not line:
        raise FramingError("server closed the connection without replying")
    version, _, rest = line.partition(b" ")
    code = rest[:3]
    if (
        not version.startswith(b"HTTP/1.")
        or not code.isdigit()
        or rest[3:4] not in (b" ", b"\r", b"\n")
        or len(line) > MAX_LINE
    ):
        raise FramingError(f"bad status line {line[:80]!r}")
    length = None
    close = version == b"HTTP/1.0"
    for _ in range(MAX_HEADERS + 1):
        line = reader.readline(MAX_LINE + 1)
        if line == b"\r\n" or line == b"\n":
            break
        name, sep, value = line.partition(b":")
        if not sep or len(line) > MAX_LINE:
            raise FramingError(f"bad header line {line[:80]!r}")
        name = name.lower()
        if name == b"content-length":
            if length is not None and length != value.strip():
                raise FramingError("conflicting Content-Length headers")
            length = value.strip()
        elif name == b"connection":
            close = closes(value)
    else:
        raise FramingError(f"more than {MAX_HEADERS} headers")
    if (
        length is None
        or not length.isdigit()
        or len(length) > 10
        or int(length) > _MAX_BODY
    ):
        raise FramingError("reply has no valid Content-Length")
    size = int(length)
    body = reader.read(size)
    if len(body) != size:
        raise FramingError(f"response cut short at {len(body)} of {size} bytes")
    return int(code), body, close


def _classified(fn, args):
    # Retry-policy adapter: transient failures propagate (and are
    # retried); application errors return as values so the policy never
    # burns attempts on them.
    try:
        return "ok", fn(*args)
    except _RETRYABLE:
        raise
    except Exception as exc:
        return "app", exc


class HTTPTransport:
    """The wire transport: versioned JSON over persistent HTTP/1.1.

    Each thread keeps its own socket and buffered reader, so one
    transport may be shared by a whole thread pool.  A request goes out
    in one ``sendall`` (request line, headers and body together) and its
    response is read by ``Content-Length``; a disconnect or broken
    framing drops the socket and raises an ``OSError`` (a
    :class:`FramingError` for bad framing).  A request that dies that
    way -- the normal aftermath of a server restart invalidating every
    pooled socket -- is retried once on a fresh connection.  A request
    that times out is never sent again (the server may still apply it):
    the ``TimeoutError`` propagates.  HTTP-level failures surface as the
    typed errors of :func:`~repro.nws.wire.raise_for_envelope`.

    Each POST operation is a method made from its row of
    :data:`~repro.nws.wire.OPERATIONS`, with the parameters of the
    :class:`~repro.nws.service.ServiceCore` method of its name.

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
        # Headers every request carries, after the request line.
        self._common = f"Host: {parsed.netloc}\r\n"
        if self.deadline is not None:
            self._common += f"{DEADLINE_HEADER}: {self.deadline!r}\r\n"
        self._local = threading.local()

    # ------------------------------------------------------------ plumbing

    def _connection(self):
        conn = getattr(self._local, "conn", None)
        if conn is None:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
            # Request/response pairs are tiny; without TCP_NODELAY every
            # exchange eats a delayed-ACK stall (~40 ms) to Nagle.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = self._local.conn = (sock, sock.makefile("rb"))
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            sock, reader = conn
            reader.close()
            sock.close()

    def _exchange(self, method: str, path: str, body: dict | None):
        if _UNSAFE_TARGET.search(path):
            raise ValueError(f"request path {path!r} contains whitespace or controls")
        head = f"{method} {path} HTTP/1.1\r\n{self._common}"
        if body is None:
            message = f"{head}\r\n".encode("ascii")
        else:
            payload = canonical(body)
            message = (
                f"{head}Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            ).encode("ascii") + payload
        sock, reader = self._connection()
        try:
            sock.sendall(message)
            status, raw, close = _read_response(reader)
        except BaseException:
            self._drop_connection()
            raise
        if close:
            self._drop_connection()
        return status, raw

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        try:
            status, raw = self._exchange(method, path, body)
        except TimeoutError:
            # The server may still be working on this request: sending
            # it again could apply it twice (two samples for one publish).
            raise
        except OSError:
            # A keep-alive connection the server already closed; one
            # retry on a fresh connection is the idiomatic recovery.
            status, raw = self._exchange(method, path, body)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ProtocolError(
                f"HTTP {status} with non-JSON body from {self.url}{path}"
            ) from exc
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"HTTP {status} with a JSON {type(payload).__name__}, not an "
                f"object, from {self.url}{path}"
            )
        if status != 200:
            raise_for_envelope(status, payload)
        return payload

    # ---------------------------------------------------------- GET routes

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


def _operation(op: Operation):
    """The transport method that sends ``op``: ``POST /v1/<tenant>/<name>``
    with the body :meth:`~repro.nws.wire.Operation.write` makes of the
    call's arguments, answered through ``op.decode``."""
    name, write, decode = op.name, op.write, op.decode

    def call(self, tenant, *args, **kwargs):
        return decode(self._request("POST", f"/v1/{tenant}/{name}", write(args, kwargs)))

    call.__name__ = call.__qualname__ = name
    return call


for _op in OPERATIONS.values():
    setattr(HTTPTransport, _op.name, _operation(_op))


class NWSClient:
    """The redesigned public API: one facade over a core or a socket.

    Construct via the classmethods --
    :meth:`in_process` (call a fresh core, or an existing one such as a
    running :class:`~repro.nws.system.NWSSystem`'s) or :meth:`connect`
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
    def in_process(
        cls, core: ServiceCore | None = None, *, tenant: str = DEFAULT_TENANT
    ) -> "NWSClient":
        """A client whose transport is ``core`` itself (a fresh
        :class:`~repro.nws.service.ServiceCore` by default).

        Closing the client closes the core: its tenant logs are flushed
        and their descriptors released, and a later write reopens them.
        """
        return cls(core if core is not None else ServiceCore(), tenant=tenant)

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

    def _call(self, op: str, *args):
        """Run the transport's ``op`` under the breaker + retry layers.

        Ordering matters: the breaker gates (and observes) the whole
        retried operation, so a server that dies mid-burst costs one
        breaker failure, not ``retries + 1``.
        """
        fn = getattr(self.transport, op)
        if self.breaker is not None:
            self.breaker.before_call()
        try:
            if self.retry is None:
                result = fn(*args)
            else:
                kind, value = self.retry.call(_classified, fn, args, describe=op)
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
        return self._call("publish", self.tenant, series, time, value)

    def fetch(
        self,
        series: str,
        *,
        start: float = float("-inf"),
        stop: float = float("inf"),
        limit: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) arrays for a series window (inclusive bounds)."""
        return self._call("fetch", self.tenant, series, start, stop, limit)

    def query(self, series: str, *, horizon: int = 1) -> ForecastReport:
        """One forecast with error bar, ``horizon`` measurement steps out.

        Raises
        ------
        SeriesUnavailable
            Unknown series (HTTP 404 on the wire).
        ValueError
            Empty series or bad horizon (HTTP 400).
        """
        return self._call("query", self.tenant, series, horizon)

    def query_all(self) -> dict[str, ForecastReport]:
        """Forecasts for every non-empty series of this tenant."""
        return self._call("query_all", self.tenant)

    def series_names(self) -> list[str]:
        """Sorted names of every series this tenant holds."""
        return self._call("series_names", self.tenant)

    def recover(self, series: str) -> int:
        """Reload a series' last run from the tenant log; returns samples."""
        return self._call("recover", self.tenant, series)

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
        return self._call("register", self.tenant, name, kind, attributes, ttl)

    def refresh(self, name: str, *, ttl: float) -> Registration:
        """Extend a live registration's TTL.

        Raises
        ------
        RegistrationLapsed
            The registration is unknown or expired (HTTP 410).
        """
        return self._call("refresh", self.tenant, name, ttl)

    def lookup(
        self, kind: str | None = None, **attribute_filters: str
    ) -> list[Registration]:
        """Live components by kind and exact attribute matches."""
        return self._call("lookup", self.tenant, kind, attribute_filters)

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
