"""HTTP/1.1 framing on both ends of the forecast wire.

The server frames requests itself (a keep-alive loop over bounded
``readline``) and the client frames its own responses, so the protocol
cases the stdlib used to handle are pinned here on raw sockets:
pipelining, HTTP/1.0 and ``Connection: close``, ``Expect:
100-continue``, rejected framing and bodies cut short.  A stub server
that breaks framing pins the client's reconnect, retry and breaker
behaviour, and a Hypothesis property throws generated request bytes at a
live server.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import CircuitBreaker, CircuitOpenError, RetryError, RetryPolicy
from repro.nws import ForecastServer, NWSClient, ServiceCore
from repro.nws.client import FramingError, HTTPTransport
from repro.nws.wire import ERROR_STATUS, ProtocolError, canonical
from repro.obs.metrics import MetricsRegistry, installed

PUBLISH = b'{"series":"cpu.a","time":%d,"value":0.5}'


def exchange(server, data: bytes, *, chunks=None, pause: float = 0.0) -> tuple[bytes, bool]:
    """Send ``data`` (in ``chunks`` if given), half-close, read to EOF.

    Returns (bytes received, whether the server reset the connection).
    A server that hangs up early ends the sending, not the exchange.
    """
    sock = socket.create_connection((server.host, server.port), timeout=10.0)
    try:
        try:
            for piece in chunks or [data]:
                sock.sendall(piece)
                if pause:
                    time.sleep(pause)
            sock.shutdown(socket.SHUT_WR)
        except OSError:  # broken pipe, reset, or no longer connected
            pass
        received = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                return received, True
            if not chunk:
                return received, False
            received += chunk
    finally:
        sock.close()


def responses(data: bytes) -> tuple[list[tuple[int, dict, bytes]], bytes]:
    """Split a byte stream into (status, headers, body) responses.

    Interim ``100 Continue`` responses are skipped; returns the leftover
    bytes that do not form a whole response.
    """
    out = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        if not sep:
            break
        lines = head.split(b"\r\n")
        version, status, _ = lines[0].split(b" ", 2)
        assert version == b"HTTP/1.1", lines[0]
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            headers[name.strip().lower().decode()] = value.strip().decode()
        if status == b"100":
            data = rest
            continue
        length = int(headers["content-length"])
        if len(rest) < length:
            break
        out.append((int(status), headers, rest[:length]))
        data = rest[length:]
    return out, data


def envelope(status: int, headers: dict, body: bytes) -> dict:
    """The JSON payload of a well-formed response."""
    assert headers["content-type"] == "application/json"
    payload = json.loads(body)
    assert payload["version"] == 1
    if status != 200:
        code = payload["error"]["code"]
        assert code != "internal", payload
        assert ERROR_STATUS[code] == status, payload
    return payload


@pytest.fixture()
def server():
    with installed(MetricsRegistry()):
        with ForecastServer() as srv:
            yield srv


def request(method: bytes, path: bytes, body: bytes = b"", *headers: bytes) -> bytes:
    lines = [method + b" " + path + b" HTTP/1.1", b"Host: test", *headers]
    if body:
        lines.append(b"Content-Length: %d" % len(body))
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


class TestServerFraming:
    def test_pipelined_requests_answered_in_order(self, server):
        data = b"".join(
            [
                request(b"POST", b"/v1/default/publish", PUBLISH % 0),
                request(b"POST", b"/v1/default/publish", PUBLISH % 10),
                request(b"POST", b"/v1/default/fetch", b'{"series":"cpu.a"}'),
                request(b"GET", b"/v1/default/series"),
            ]
        )
        received, reset = exchange(server, data)
        answers, rest = responses(received)
        assert not reset and rest == b""
        payloads = [envelope(*answer) for answer in answers]
        assert [p["kind"] for p in payloads] == ["published", "published", "samples", "series"]
        assert [payloads[0]["count"], payloads[1]["count"]] == [1, 2]
        assert payloads[2]["n"] == 2
        assert all("connection" not in headers for _, headers, _ in answers)

    @pytest.mark.parametrize(
        "head",
        [
            b"GET /v1/health HTTP/1.0\r\n\r\n",
            b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /v1/health HTTP/1.1\r\nconnection: Keep-Alive, CLOSE\r\n\r\n",
        ],
        ids=["http-1.0", "connection-close", "close-token"],
    )
    def test_close_after_the_reply(self, server, head):
        # The second request is never read: the server hangs up first.
        received, _ = exchange(server, head + request(b"GET", b"/v1/health"))
        answers, rest = responses(received)
        assert rest == b""
        [(status, headers, body)] = answers
        assert status == 200 and envelope(status, headers, body)["kind"] == "health"
        assert headers["connection"] == "close"

    def test_expect_100_continue(self, server):
        body = b'{"name":"a","kind":"sensor","attributes":{"k":"%s"}}' % (b"x" * 2000)
        head = request(b"POST", b"/v1/default/register", b"", b"Expect: 100-continue")
        head = head[:-2] + b"Content-Length: %d\r\n\r\n" % len(body)
        with socket.create_connection((server.host, server.port), timeout=10.0) as sock:
            sock.sendall(head)
            reader = sock.makefile("rb")
            # The interim reply comes before any body byte is sent.
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(body)
            assert reader.readline().startswith(b"HTTP/1.1 200 ")
            reader.close()
        assert server.core.lookup("default", "sensor")[0].attributes["k"] == "x" * 2000

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"PUT /v1/health HTTP/1.1\r\n\r\n", "method 'PUT' not allowed"),
            (
                b"POST /v1/default/publish HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n",
                "Transfer-Encoding",
            ),
            (b"GET /v1/health\r\n\r\n", "malformed request line"),
            (b"GET /v1/health HTTP/2.0\r\n\r\n", "unsupported protocol"),
            (b"GET /v1/health HTTP/1.1\r\nno colon here\r\n\r\n", "malformed header"),
            (b"GET /v1/health HTTP/1.1\r\n folded: x\r\n\r\n", "malformed header"),
            (b"POST /v1/default/publish HTTP/1.1\r\nContent-Length: -1\r\n\r\n", "Content-Length"),
            (b"POST /v1/default/publish HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n", "Content-Length"),
            (
                b"POST /v1/default/publish HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (2**20 + 1),
                "Content-Length",
            ),
            (
                b"POST /v1/default/publish HTTP/1.1\r\nContent-Length: 0\r\n"
                b"Content-Length: 5\r\n\r\nhello",
                "conflicting Content-Length",
            ),
            (b"GET /v1/health HTTP/1.1\r\n" + b"X-A: 1\r\n" * 101 + b"\r\n", "more than 100 headers"),
            (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", "request line too long"),
        ],
        ids=[
            "put", "chunked", "two-words", "http-2", "no-colon", "folded",
            "negative-length", "float-length", "oversized-body", "two-lengths",
            "101-headers",
            "long-line",
        ],
    )
    def test_rejected_framing_is_a_bad_request_and_a_close(self, server, data, message):
        received, reset = exchange(server, data + request(b"GET", b"/v1/health"))
        answers, rest = responses(received)
        if reset:
            # Unread request bytes may turn the close into a reset; what
            # arrived before it is still one whole reply.
            assert len(answers) <= 1
        else:
            assert rest == b"" and len(answers) == 1
        for status, headers, body in answers:
            payload = envelope(status, headers, body)
            assert status == 400 and payload["error"]["code"] == "bad_request"
            assert message in payload["error"]["message"]
            assert headers["connection"] == "close"
        assert server.core._obs_errors["bad_request"].value == 1

    def test_body_cut_short_closes_without_dispatch(self, server):
        data = b"POST /v1/default/publish HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + PUBLISH % 0
        received, _ = exchange(server, data)
        assert received == b""
        assert server.core.series_names("default") == []

    def test_body_split_across_sends(self, server):
        data = request(b"POST", b"/v1/default/publish", PUBLISH % 0)
        pieces = [data[:5], data[5:40], data[40:-10], data[-10:]]
        received, _ = exchange(server, data, chunks=pieces, pause=0.005)
        [(status, headers, body)] = responses(received)[0]
        assert status == 200 and envelope(status, headers, body)["count"] == 1


# ------------------------------------------------------------------ client


class StubServer:
    """A listener that reads each request and answers it with ``reply``.

    ``reply`` is raw bytes, sent as is before the connection is closed;
    ``connections`` counts accepted connections.
    """

    def __init__(self, reply: bytes):
        self.reply = reply
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                reader = conn.makefile("rb")
                length = 0
                while (line := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                reader.read(length)
                reader.close()
                conn.sendall(self.reply)

    def close(self) -> None:
        # shutdown() wakes the thread blocked in accept(); close() alone
        # does not.
        self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        self._thread.join(timeout=5.0)
        assert not self._thread.is_alive()


BROKEN_REPLIES = {
    "closed": b"",
    "bad-status": b"SPDY/3 200 OK\r\n\r\n",
    "no-length": b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
    "cut-short": b"HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\n{\"version\": 1",
    "bad-header": b"HTTP/1.1 200 OK\r\nno colon\r\nContent-Length: 2\r\n\r\n{}",
    "huge-length": b"HTTP/1.1 200 OK\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n{}",
    "two-lengths": b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 2\r\n\r\n{}",
}


@pytest.fixture(params=sorted(BROKEN_REPLIES), ids=sorted(BROKEN_REPLIES))
def stub(request):
    server = StubServer(BROKEN_REPLIES[request.param])
    yield server
    server.close()


class TestNonObjectBodies:
    """A well-framed reply whose JSON is not an object is a ProtocolError."""

    @pytest.mark.parametrize("body", [b"[]", b"1", b'"x"', b"null"])
    @pytest.mark.parametrize("status", [200, 404])
    def test_every_operation_raises_typed(self, status, body):
        stub = StubServer(
            b"HTTP/1.1 %d Whatever\r\nContent-Length: %d\r\n\r\n%s"
            % (status, len(body), body)
        )
        try:
            transport = HTTPTransport(stub.url, timeout=5.0)
            calls = [
                lambda: transport.publish("default", "cpu.a", 0.0, 0.5),
                lambda: transport.fetch(
                    "default", "cpu.a", start=-float("inf"), stop=float("inf"), limit=None
                ),
                lambda: transport.query("default", "cpu.a", horizon=1),
                lambda: transport.lookup("default", None),
            ]
            for call in calls:
                with pytest.raises(ProtocolError, match="not an object"):
                    call()
        finally:
            stub.close()


class TestClientFraming:
    def test_reconnects_once_then_raises_a_framing_error(self, stub):
        transport = HTTPTransport(stub.url, timeout=5.0)
        with pytest.raises(FramingError):
            transport.publish("default", "cpu.a", 0.0, 0.5)
        assert stub.connections == 2
        assert getattr(transport._local, "conn", None) is None

    def test_retry_policy_counts(self, stub):
        policy = RetryPolicy(retries=2, base_delay=0.0, jitter=0.0)
        with NWSClient.connect(stub.url, timeout=5.0, retry=policy) as client:
            with pytest.raises(RetryError) as info:
                client.publish("cpu.a", time=0.0, value=0.5)
        assert isinstance(info.value.__cause__, FramingError)
        assert (policy.attempts, policy.failures, policy.retries_used) == (3, 3, 2)
        assert stub.connections == 6

    def test_breaker_opens_on_framing_failures(self, stub):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=60.0, jitter=0.0)
        with NWSClient.connect(stub.url, timeout=5.0, breaker=breaker) as client:
            for _ in range(2):
                with pytest.raises(FramingError):
                    client.publish("cpu.a", time=0.0, value=0.5)
            with pytest.raises(CircuitOpenError):
                client.publish("cpu.a", time=0.0, value=0.5)
        assert breaker.state == "open"
        assert stub.connections == 4

    def test_one_send_per_message(self, server, monkeypatch):
        requests, replies = [], []
        original = socket.socket.sendall

        def counted(sock, data, *args):
            side = replies if sock.getsockname()[1] == server.port else requests
            side.append(bytes(data))
            return original(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counted)
        with NWSClient.connect(server.url) as client:
            assert client.publish("cpu.a", time=0.0, value=0.5) == 1
            assert client.series_names() == ["cpu.a"]
        body = canonical({"series": "cpu.a", "time": 0.0, "value": 0.5})
        assert len(requests) == 2
        assert requests[0].startswith(b"POST /v1/default/publish HTTP/1.1\r\n")
        assert requests[0].endswith(b"\r\n\r\n" + body)
        assert requests[1].startswith(b"GET /v1/default/series HTTP/1.1\r\n")
        assert len(replies) == 2
        assert all(reply.startswith(b"HTTP/1.1 200 OK\r\n") for reply in replies)

    def test_unsafe_path_is_refused_before_sending(self, server):
        with NWSClient.connect(server.url, tenant="a b") as client:
            with pytest.raises(ValueError, match="whitespace"):
                client.series_names()


# -------------------------------------------------------------- generated


ROUTES = [
    (b"GET", b"/v1/health"),
    (b"GET", b"/v1/metrics"),
    (b"GET", b"/v1/default/series"),
    (b"POST", b"/v1/default/publish"),
    (b"POST", b"/v1/default/fetch"),
    (b"POST", b"/v1/default/query"),
    (b"POST", b"/v1/default/query_all"),
    (b"POST", b"/v1/default/register"),
    (b"POST", b"/v1/default/refresh"),
    (b"POST", b"/v1/default/lookup"),
    (b"POST", b"/v1/default/recover"),
    (b"POST", b"/v1/nobody/publish"),
]

BODIES = [
    b"",
    b"{}",
    PUBLISH % 0,
    b'{"series":"cpu.a","limit":3}',
    b'{"series":"cpu.a","horizon":2}',
    b'{"name":"s","kind":"sensor","ttl":60.0}',
    b'{"name":"s","ttl":60.0}',
    b'{"kind":"sensor"}',
    b'{"series":"cpu.a"}',
    b"[1, 2]",
    b'{"series": "cpu.a", "time": 1e400, "value": 0.5}',
]

#: Bytes without a line break: a mangled request line or header.
_LINE = st.binary(max_size=40).map(lambda b: b.replace(b"\n", b"").replace(b"\r", b""))

request_lines = st.one_of(
    st.tuples(
        st.sampled_from(ROUTES),
        st.sampled_from([b"HTTP/1.1", b"HTTP/1.0"]),
    ).map(lambda r: r[0][0] + b" " + r[0][1] + b" " + r[1]),
    st.tuples(
        st.sampled_from([b"GET", b"POST", b"PUT", b"HEAD", b"get", b""]),
        st.sampled_from([b"/v1/health", b"/v1/default/publish", b"/", b"//v1//health", b"*"]),
        st.sampled_from([b"HTTP/1.1", b"HTTP/2.0", b"HTTP/1.1 extra", b"", b"FTP/1.1"]),
        st.sampled_from([b" ", b"  ", b"\t"]),
    ).map(lambda r: r[3].join(part for part in r[:3] if part)),
    _LINE,
)

headers = st.lists(
    st.one_of(
        st.sampled_from(
            [
                b"Host: test",
                b"Content-Type: application/json",
                b"Connection: close",
                b"Connection: keep-alive",
                b"Expect: 100-continue",
                b"Transfer-Encoding: chunked",
                b"X-NWS-Deadline: 30.0",
                b"X-NWS-Deadline: -1",
                b"X-NWS-Deadline: nan",
                b"X-NWS-Deadline: soon",
                b"Content-Length: 2",
            ]
        ),
        _LINE,
    ),
    max_size=5,
)

#: None: the right length for the body; otherwise a raw header value.
lengths = st.one_of(
    st.none(),
    st.sampled_from([b"0", b"-1", b"abc", b"1e3", b" 7", b"9" * 30, b"1048577"]),
    st.integers(0, 64).map(lambda n: b"%d" % n),
)

bodies = st.one_of(st.sampled_from(BODIES), st.binary(max_size=64))


@pytest.fixture(scope="module")
def durable_server(tmp_path_factory):
    """A live durable server whose handler threads record, rather than
    print, any exception that escapes them."""
    core = ServiceCore(("default",), directory=tmp_path_factory.mktemp("framing"))
    with ForecastServer(core) as srv:
        srv.handler_errors = []
        srv._httpd.handle_error = lambda request, address: srv.handler_errors.append(
            sys.exc_info()[1]
        )
        yield srv


@settings(max_examples=150, deadline=None)
@given(
    line=request_lines,
    header_lines=headers,
    length=lengths,
    body=bodies,
    cuts=st.lists(st.integers(0, 200), max_size=3),
    truncate=st.none() | st.integers(0, 200),
)
def test_generated_requests_get_an_envelope_or_a_close(
    durable_server, line, header_lines, length, body, cuts, truncate
):
    header_block = list(header_lines)
    header_block.append(b"Content-Length: " + (b"%d" % len(body) if length is None else length))
    data = line + b"\r\n" + b"".join(h + b"\r\n" for h in header_block) + b"\r\n" + body
    if truncate is not None:
        data = data[:truncate]
    points = sorted({c for c in cuts if 0 < c < len(data)})
    chunks = [data[a:b] for a, b in zip([0, *points], [*points, len(data)])]
    received, reset = exchange(durable_server, data, chunks=chunks, pause=0.001)
    answers, rest = responses(received)
    for answer in answers:
        envelope(*answer)
    assert rest == b"" or reset, received[-200:]
    # A close is the handler's decision, never a crash.
    assert durable_server.handler_errors == []
    # The server still answers on a fresh connection.
    with NWSClient.connect(durable_server.url) as client:
        assert client.health()["status"] == "ok"
