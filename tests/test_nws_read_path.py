"""The NWS read path: windowed fetches and incremental forecaster reads.

``MemoryStore.fetch`` bisects the sorted timestamps and copies only the
requested window; ``ForecasterService`` reads only the samples it has not
consumed yet.  Both are checked on generated inputs against the
whole-history implementations they replaced, kept here as oracles.
"""

from __future__ import annotations

import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mixture import AdaptiveForecaster
from repro.nws import ForecastServer, NWSClient, ServiceCore
from repro.nws.forecaster import ForecasterService
from repro.nws.memory import MemoryStore
from repro.nws.wire import code_for_exception
from repro.obs import MetricsRegistry, installed


def oracle_fetch(store: MemoryStore, series, start, stop, limit):
    """Mask-then-limit over the whole history (the replaced fetch)."""
    times = np.asarray(store._times[series])
    values = np.asarray(store._values[series])
    keep = (times >= start) & (times <= stop)
    times, values = times[keep], values[keep]
    if limit is not None and times.size > limit:
        times, values = times[-limit:], values[-limit:]
    return times, values


class WholeHistoryForecaster(ForecasterService):
    """The replaced ``_advance``: copy the whole history on every query."""

    def _advance(self, series: str) -> None:
        times, values = self.memory.fetch(series)
        mixture = self._mixtures.get(series)
        if mixture is None:
            mixture = self._factory()
            self._mixtures[series] = mixture
            self._consumed[series] = 0
        start = self._consumed[series]
        missing = self.memory.count(series) - len(values)
        start = max(start - missing, 0)
        for v in values[start:]:
            mixture.update(float(v))
        self._consumed[series] = len(values)
        if times:
            self._last_time[series] = float(times[-1])


class CopyCountingStore(MemoryStore):
    """Counts the samples each read copies out of the memory."""

    copied = 0

    def fetch(self, series, **kwargs):
        times, values = super().fetch(series, **kwargs)
        self.copied += times.size
        return times, values

    def tail(self, series, offset):
        count, newest, fresh = super().tail(series, offset)
        self.copied += len(fresh)
        return count, newest, fresh


# Stamps on a coarse grid so ties are common; bounds on a finer one so
# they land both on and between stamps.
bound = st.one_of(
    st.integers(-2, 42).map(lambda k: k / 2.0),
    st.sampled_from([float("-inf"), float("inf"), float("nan")]),
)


class TestWindowedFetch:
    @given(
        steps=st.lists(st.integers(0, 2), max_size=40),
        start=bound,
        stop=bound,
        limit=st.one_of(st.none(), st.integers(1, 45)),
        capacity=st.integers(1, 50),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_mask_then_limit(self, steps, start, stop, limit, capacity):
        with installed(MetricsRegistry()):
            store = MemoryStore(capacity=capacity)
            t = 0.0
            store.publish("s", t, 0.0)
            for i, step in enumerate(steps):
                t += step
                store.publish("s", t, float(i))
            times, values = store.fetch("s", start=start, stop=stop, limit=limit)
            want_times, want_values = oracle_fetch(store, "s", start, stop, limit)
        assert times.typecode == "d" and values.typecode == "d"
        np.testing.assert_array_equal(times, want_times)
        np.testing.assert_array_equal(values, want_values)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, limit):
        store = MemoryStore()
        for i in range(5):
            store.publish("s", float(i), 0.5)
        with pytest.raises(ValueError, match="limit"):
            store.fetch("s", limit=limit)


class TestNonFiniteTimes:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_publish_rejects(self, bad):
        store = MemoryStore()
        with pytest.raises(ValueError, match="non-finite"):
            store.publish("s", bad, 0.5)
        assert "s" not in store.series_names()  # nothing half-applied

    def test_order_check_holds_after_a_rejected_nan(self):
        store = MemoryStore()
        for t in (10.0, 20.0, 30.0):
            store.publish("s", t, 0.5)
        with pytest.raises(ValueError):
            store.publish("s", float("nan"), 0.5)
        with pytest.raises(ValueError, match="out-of-order"):
            store.publish("s", 5.0, 0.5)
        assert store.count("s") == 3 == len(store.fetch("s")[0])

    def test_replace_rejects(self):
        store = MemoryStore()
        store.publish("s", 0.0, 0.5)
        with pytest.raises(ValueError, match="non-finite"):
            store.replace("s", [0.0, float("nan"), 2.0], [0.1, 0.2, 0.3])
        assert store.count("s") == 1

    def test_recover_skips_and_counts(self, tmp_path):
        store = MemoryStore(directory=tmp_path)
        for t, v in [(0.0, 0.1), (2.0, 0.3), (2.0, 0.6), (3.0, float("nan"))]:
            store.publish("s", t, v)  # a tie is in order; NaN values are measurements
        store.close()
        lines = store.log.path.read_bytes().splitlines(keepends=True)
        first = lines[0]
        lines.insert(1, first.replace(b"0.0", b"NaN"))
        lines.insert(3, first.replace(b"0.0", b"Infinity"))
        lines.insert(4, first.replace(b"0.0", b"1.0"))  # earlier than 2.0
        store.log.path.write_bytes(b"".join(lines))
        with installed(MetricsRegistry()) as registry:
            store = MemoryStore(directory=tmp_path)
            assert store.recover("s") == 4
            snap = registry.snapshot()
        corrupt = snap["repro_memory_corrupt_journal_lines_total"]
        assert corrupt["samples"][0]["value"] == 3
        times, values = store.fetch("s")
        assert list(times) == [0.0, 2.0, 2.0, 3.0]
        assert list(values[:3]) == [0.1, 0.3, 0.6]


@pytest.fixture(scope="module")
def server():
    with ForecastServer() as srv:
        yield srv


@pytest.fixture(params=["in_process", "http"])
def client(request, server):
    if request.param == "in_process":
        with NWSClient.in_process() as local:
            yield local
    else:
        with NWSClient.connect(server.url) as remote:
            yield remote


class TestBadRequestsOverTransports:
    def _expect_bad_request(self, call, *args, **kwargs):
        with pytest.raises(ValueError) as info:
            call(*args, **kwargs)
        assert code_for_exception(info.value) == "bad_request"
        return str(info.value)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_fetch_limit_below_one(self, client, limit):
        series = f"cpu.limit{limit}"
        for i in range(4):
            client.publish(series, time=float(i), value=0.5)
        message = self._expect_bad_request(client.fetch, series, limit=limit)
        assert "limit" in message

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_publish_non_finite_time(self, client, bad):
        client.publish("cpu.nonfinite", time=10.0, value=0.5)
        message = self._expect_bad_request(
            client.publish, "cpu.nonfinite", time=bad, value=0.5
        )
        assert "non-finite" in message


# --------------------------------------------------- incremental queries

publish_op = st.tuples(
    st.just("publish"), st.integers(0, 1), st.integers(0, 2), st.integers(0, 4)
)
series_op = st.tuples(
    st.sampled_from(["query", "replace", "forget", "recover"]),
    st.integers(0, 1),
    st.integers(1, 8),
)
plan = st.lists(st.one_of(publish_op, publish_op, series_op), max_size=60)


def _outcome(call):
    try:
        return repr(call())
    except (LookupError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestIncrementalQuery:
    @given(ops=plan, capacity=st.integers(2, 12))
    @settings(max_examples=150, deadline=None)
    def test_matches_whole_history_replay(self, ops, capacity):
        """Same ForecastReports as the whole-copy ``_advance`` on any plan
        of publishes, queries, compaction-style replace + invalidate,
        forget, recover, and publishes past capacity."""
        with tempfile.TemporaryDirectory() as tmp, installed(MetricsRegistry()):
            sides = []
            for name, cls in (("new", ForecasterService), ("old", WholeHistoryForecaster)):
                memory = MemoryStore(capacity=capacity, directory=f"{tmp}/{name}")
                sides.append((memory, cls(memory)))
            clock = [0.0, 0.0]
            for op in ops:
                series = f"s{op[1]}"
                if op[0] == "publish":
                    clock[op[1]] += op[2]
                    time, value = clock[op[1]], op[3] / 4.0
                outcomes = []
                for memory, forecaster in sides:
                    if op[0] == "publish":
                        outcomes.append(
                            _outcome(lambda: memory.publish(series, time, value))
                        )
                    elif op[0] == "query":
                        outcomes.append(_outcome(lambda: forecaster.query(series)))
                    elif op[0] == "replace":
                        if series in memory.series_names():
                            times, values = memory.fetch(series, limit=op[2])
                            memory.replace(series, times, values)
                            forecaster.invalidate(series)
                    elif op[0] == "forget":
                        memory.forget(series)
                    else:
                        outcomes.append(_outcome(lambda: memory.recover(series)))
                assert len(set(outcomes)) <= 1, (op, outcomes)
            for memory, _ in sides:
                memory.close()

    def test_warm_query_copies_only_new_samples(self):
        store = CopyCountingStore(capacity=2 * 8640)
        forecaster = ForecasterService(store)
        for i in range(8640):
            store.publish("s", 10.0 * i, 0.5)
        assert forecaster.query("s").n_measurements == 8640
        for k in (0, 1, 7):
            for i in range(k):
                store.publish("s", 10.0 * (8640 + i), 0.25)
            store.copied = 0
            report = forecaster.query("s")
            assert store.copied <= k
            assert report.n_measurements == store.count("s")

    @pytest.mark.xfail(
        strict=True,
        reason="known bug: once the memory is full, _consumed equals the "
        "retained count, so new publishes never reach the mixture",
    )
    def test_publishes_past_capacity_reach_the_mixture(self):
        store = MemoryStore(capacity=50)
        forecaster = ForecasterService(store)
        reference = AdaptiveForecaster()
        for i in range(50):
            store.publish("s", float(i), 0.5)
            reference.update(0.5)
        assert forecaster.query("s").forecast == pytest.approx(0.5)
        for i in range(50, 60):
            store.publish("s", float(i), 0.0)
            reference.update(0.0)
        report = forecaster.query("s")
        assert report.as_of == 59.0
        assert report.forecast < 0.5
        assert report.forecast == reference.forecast_with_error()[0]


class TestConcurrentRegistrations:
    @pytest.mark.usefixtures("lock_ownership")
    def test_register_and_refresh_race_free(self, tmp_path):
        core = ServiceCore(("default",), clock=lambda: 0.0, directory=tmp_path)
        errors: list[Exception] = []
        barrier = threading.Barrier(8)

        def worker(i: int) -> None:
            try:
                barrier.wait()
                for round_ in range(20):
                    name = f"sensor.{i}.{round_ % 4}"
                    core.register("default", name, "sensor", {"host": str(i)}, ttl=1e6)
                    core.refresh("default", name, ttl=1e6 + round_)
            except Exception as exc:  # pragma: no cover - the failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        final = core.tenant("default").nameserver.entries()
        assert len(final) == 32
        restored = ServiceCore.restore(tmp_path, clock=lambda: 0.0)
        assert restored.tenant("default").nameserver.entries() == final
        core.close()
        restored.close()
