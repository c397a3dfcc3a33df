"""Fetch bodies written from the server's text memo are the plain bytes.

The server remembers the JSON text of the last window it served per
series (``repro.nws.wire.SampleText``) and formats only the samples a
new window adds, keyed by the store's sequence numbers.  These tests
drive generated operation sequences -- special floats, ties in time,
eviction, compaction, forget and re-publish, recovery, and windows that
overlap, slide, shrink or miss each other -- and compare every fetch
body with the canonical JSON of the same window built element by
element, the way the encoder worked before the memo.
"""

from __future__ import annotations

import http.client
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nws import ForecastServer, ServiceCore, wire
from repro.nws.errors import SeriesUnavailable
from repro.nws.memory import MemoryStore
from repro.nws.wire import WIRE_VERSION, SampleText, canonical, encode_fetch
from repro.obs import MetricsRegistry, installed

TENANT = "default"
#: A plain name and one that JSON must escape.
NAMES = ("cpu.a", 'cpu.ü"b')

SPECIAL = [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
    2.2250738585072014e-308, 1e16, -1e16, 0.1, 1.0 / 3.0, 1e-7, 123456789.0,
]
#: Candidate stamps, deliberately including both zeros and repeats.
TIMES = [-1e16, -1.5, -0.0, 0.0, 5e-324, 1.0, 1.0, 2.5, 1e16]

values = st.one_of(st.sampled_from(SPECIAL), st.floats())
bounds = st.one_of(
    st.none(), st.sampled_from(TIMES + [float("nan"), float("inf"), float("-inf")])
)
publish = st.tuples(st.just("publish"), st.sampled_from(NAMES), st.sampled_from(TIMES), values)
ops = st.lists(
    st.one_of(
        publish,
        publish,  # twice: histories grow between the other operations
        st.tuples(
            st.just("fetch"),
            st.sampled_from(NAMES),
            bounds,
            bounds,
            st.one_of(st.none(), st.integers(1, 8)),
        ),
        st.tuples(
            st.just("replace"),
            st.sampled_from(NAMES),
            st.sampled_from(["same", "negate", "halve", "empty"]),
        ),
        st.tuples(st.just("forget"), st.sampled_from(NAMES)),
        st.tuples(st.just("recover"), st.sampled_from(NAMES)),
        st.tuples(st.just("maintain")),
    ),
    max_size=60,
)


def reference_body(series: str, window: list[tuple[float, float]]) -> bytes:
    """The canonical fetch body, built one element at a time."""
    payload = {
        "version": WIRE_VERSION,
        "kind": "samples",
        "series": series,
        "times": [float(t) for t, _ in window],
        "values": [v if math.isfinite(v) else None for _, v in window],
        "n": len(window),
    }
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def bits(samples) -> list[tuple[bytes, bytes]]:
    """Each sample's bytes, NaN sign and payload included."""
    return [(np.float64(t).tobytes(), np.float64(v).tobytes()) for t, v in samples]


class Model:
    """What each series holds, and the last run the log gives back."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.history: dict[str, list] = {}
        self.run: dict[str, list] = {}

    def publish(self, series, t, v) -> bool:
        history = self.history.get(series)
        if history and t < history[-1][0]:
            return False
        if history is None:  # a first publish, or the first after forget
            history = self.history[series] = []
            self.run[series] = []
        history.append((t, v))
        del history[: -self.capacity]
        self.run[series].append((t, v))
        return True

    def replacement(self, series, mode) -> list:
        history = self.history.get(series, [])
        if mode == "negate":
            return [(t, -v) for t, v in history]
        if mode == "halve":
            return history[::2]
        if mode == "empty":
            return []
        return list(history)

    def replace(self, series, samples) -> None:
        self.history[series] = samples[-self.capacity :]
        self.run[series] = list(self.history[series])

    def recover(self, series) -> int:
        if series not in self.run:
            return 0
        self.replace(series, self.run[series])
        return len(self.history[series])

    def window(self, series, start, stop, limit) -> list:
        start = -math.inf if start is None else start
        stop = math.inf if stop is None else stop
        kept = [s for s in self.history[series] if start <= s[0] <= stop]
        return kept[-limit:] if limit is not None else kept


def fetch_body(series, start, stop, limit) -> dict:
    body: dict = {"series": series}
    if start is not None:
        body["start"] = start
    if stop is not None:
        body["stop"] = stop
    if limit is not None:
        body["limit"] = limit
    return body


def run(ops, capacity, call) -> int:
    """Apply ``ops`` to a durable server and the model; returns fetches checked.

    ``call`` is a transport: ``open``/``close`` bracket the run, and
    ``call(server, op, body)`` performs one HTTP operation and returns
    ``(status, body bytes)``.
    """
    checked = 0
    with tempfile.TemporaryDirectory() as directory, installed(MetricsRegistry()):
        core = ServiceCore(directory=directory, memory_capacity=capacity)
        server = ForecastServer(core)
        call.open(server)
        memory = core.tenant(TENANT).memory
        memo = server._fetch_memo[TENANT]
        model = Model(capacity)
        try:
            for op in ops:
                kind, series = op[0], op[1] if len(op) > 1 else None
                if kind == "publish":
                    _, _, t, v = op
                    status, _ = call(
                        server, "publish", {"series": series, "time": t, "value": v}
                    )
                    assert (status == 200) == model.publish(series, t, v)
                elif kind == "fetch":
                    _, _, start, stop, limit = op
                    status, raw = call(
                        server, "fetch", fetch_body(series, start, stop, limit)
                    )
                    if series not in model.history:
                        assert status == 404
                        continue
                    assert status == 200
                    window = model.window(series, start, stop, limit)
                    assert raw == reference_body(series, window), op
                    checked += 1
                elif kind == "replace":
                    samples = model.replacement(series, op[2])
                    memory.replace(series, [t for t, _ in samples], [v for _, v in samples])
                    model.replace(series, samples)
                elif kind == "forget":
                    memory.forget(series)
                    model.history.pop(series, None)
                elif kind == "recover":
                    status, raw = call(server, "recover", {"series": series})
                    assert status == 200
                    assert json.loads(raw)["count"] == model.recover(series)
                else:
                    server.maintain_once()
                    # One window at most per series the memory holds.
                    assert set(memo._windows) <= set(model.history)
        finally:
            call.close(server)
    return checked


class Dispatch:
    """``ForecastServer.dispatch`` plus the server's encoder, no socket."""

    def open(self, server):
        pass

    def close(self, server):
        server.stop()

    def __call__(self, server, op, body):
        try:
            status, payload = server.dispatch("POST", f"/v1/{TENANT}/{op}", body)
        except SeriesUnavailable:
            return 404, b""
        except ValueError:
            return 400, b""
        return status, canonical(payload)


class OverHTTP:
    """The same operations as HTTP requests to a running server."""

    def open(self, server):
        server.start()
        self.conn = http.client.HTTPConnection(server.host, server.port, timeout=10)

    def close(self, server):
        self.conn.close()
        server.stop()

    def __call__(self, server, op, body):
        self.conn.request(
            "POST",
            f"/v1/{TENANT}/{op}",
            body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = self.conn.getresponse()
        return response.status, response.read()


class TestGeneratedOperations:
    @settings(max_examples=300, deadline=None)
    @given(ops=ops, capacity=st.integers(1, 6))
    def test_every_fetch_body_is_the_canonical_bytes(self, ops, capacity):
        run(ops, capacity, Dispatch())

    @settings(max_examples=8, deadline=None)
    @given(ops=ops, capacity=st.integers(1, 6))
    def test_over_http(self, ops, capacity):
        run(ops, capacity, OverHTTP())

    def test_sliding_window_reuses_the_overlap(self, monkeypatch):
        # A window sliding one sample at a time formats one new time and
        # one new value per fetch; the replaced history is formatted anew.
        formatted = []
        encode = wire._encode_array
        monkeypatch.setattr(
            wire, "_encode_array", lambda items: formatted.extend(items) or encode(items)
        )
        ops = []
        for i in range(30):
            ops.append(("publish", NAMES[1], float(i // 2), SPECIAL[i % len(SPECIAL)]))
            ops.append(("fetch", NAMES[1], None, None, 5))
        ops.append(("replace", NAMES[1], "negate"))
        ops.append(("fetch", NAMES[1], None, None, 5))
        assert run(ops, 8, Dispatch()) == 31
        assert len(formatted) == 2 * 30 + 2 * 5


class TestSampleText:
    def test_new_run_is_formatted_afresh(self):
        # Same stamps, same length, values that compare equal but are not
        # the same bits: a replaced history must not reuse the old text.
        with installed(MetricsRegistry()):
            store = MemoryStore(capacity=8)
            for t in range(4):
                store.publish("s", float(t), 0.0)
            memo = SampleText()
            first = store.fetch("s")
            assert memo.render(memo.bind(encode_fetch("s", *first), first.first_seq))
            store.replace("s", first[0], [-v for v in first[1]])
            second = store.fetch("s")
            body = memo.render(memo.bind(encode_fetch("s", *second), second.first_seq))
        assert body == reference_body("s", [(float(t), -0.0) for t in range(4)])

    def test_retain_drops_forgotten_series(self):
        memo = SampleText()
        for name in ("a", "b"):
            memo.render(memo.bind(encode_fetch(name, [1.0], [2.0]), 0))
        memo.retain(["b", "c"])
        assert list(memo._windows) == ["b"]

    def test_bound_payload_is_the_same_dict(self):
        payload = encode_fetch("s", [1.0, 2.0], [float("nan"), -0.0])
        bound = SampleText().bind(payload, 7)
        assert bound == payload
        assert canonical(bound) == canonical(payload)


class TestSequenceNumbers:
    def test_windows_of_one_run_count_up(self):
        with installed(MetricsRegistry()):
            store = MemoryStore(capacity=3)
            for t in range(3):
                store.publish("s", float(t), 0.5)
            whole = store.fetch("s").first_seq
            assert store.fetch("s", limit=1).first_seq == whole + 2
            store.publish("s", 3.0, 0.5)  # evicts the first sample
            assert store.fetch("s").first_seq == whole + 1

    @pytest.mark.parametrize("restart", ["replace", "forget", "recover"])
    def test_a_new_run_never_reuses_a_number(self, restart):
        with installed(MetricsRegistry()), tempfile.TemporaryDirectory() as d:
            store = MemoryStore(capacity=4, directory=d)
            for t in range(4):
                store.publish("s", float(t), 0.5)
            before = store.fetch("s").first_seq
            if restart == "replace":
                store.replace("s", [0.0, 1.0], [0.5, 0.5])
            elif restart == "forget":
                store.forget("s")
                store.publish("s", 0.0, 0.5)
            else:
                store.recover("s")
            after = store.fetch("s").first_seq
        assert after > before + 4


class TestCrashRecoverRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(
        samples=st.lists(
            st.tuples(st.sampled_from(TIMES), values), max_size=30
        ),
        replace_at=st.one_of(st.none(), st.integers(0, 30)),
        capacity=st.integers(1, 12),
    )
    def test_recovered_samples_are_bit_identical(self, samples, replace_at, capacity):
        with tempfile.TemporaryDirectory() as d, installed(MetricsRegistry()):
            store = MemoryStore(capacity=capacity, directory=d)
            store.publish("s", -1e17, 0.0)
            for i, (t, v) in enumerate(samples):
                if i == replace_at:
                    times, vals = store.fetch("s")
                    store.replace("s", times[::2], vals[::2])
                try:
                    store.publish("s", t, v)
                except ValueError:
                    pass  # out of order: rejected, nothing journaled
            want = store.fetch("s")
            store.discard_unflushed()  # the crash: nothing buffered survives
            store.close()
            restored = MemoryStore(capacity=capacity, directory=Path(d))
            assert restored.recover() == len(want[0])
            got = restored.fetch("s")
        assert got[0].typecode == "d" and got[1].typecode == "d"
        assert bits(zip(*got)) == bits(zip(*want))
