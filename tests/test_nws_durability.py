"""Crash-safe durability + overload resilience acceptance suite.

The tentpole guarantee under test: a forecast service killed at any
instant and restored from its state directory (snapshot + write-ahead
journal) answers ``query_all`` with forecasts **byte-identical** to an
uninterrupted run -- including after retention compaction has rewritten
journals.  Alongside it: admission control (HTTP 429 + ``Retry-After``),
drain-on-shutdown, request deadlines, and the unclean-shutdown counter.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.nws import (
    ForecastServer,
    NWSClient,
    RetentionPolicy,
    ServerOverloaded,
    ServiceCore,
)
from repro.nws import durable
from repro.nws.client import HTTPTransport
from repro.nws.durable import (
    MANIFEST_NAME,
    JournalWriter,
    TenantLog,
    atomic_replace_bytes,
    atomic_replace_json,
)
from repro.nws.memory import MemoryStore
from repro.nws.service import request_deadline, set_request_deadline
from repro.nws.wire import (
    DEADLINE_HEADER,
    ProtocolError,
    canonical,
    encode_report,
)
from repro.obs import MetricsRegistry, installed


def http(url: str, body: dict | None = None, headers: dict | None = None):
    """(status, payload, response headers) for one raw HTTP exchange."""
    data = canonical(body) if body is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        method="POST" if data is not None else "GET",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


def counter_value(registry, name: str, **labels) -> float:
    metric = registry.snapshot().get(name)
    assert metric is not None, f"{name} not in snapshot"
    for sample in metric["samples"]:
        if sample["labels"] == labels:
            return sample["value"]
    raise AssertionError(f"{name} has no sample with labels {labels}")


# ------------------------------------------------------------ primitives


class TestAtomicReplace:
    def test_replaces_whole_file(self, tmp_path):
        target = tmp_path / "state.bin"
        atomic_replace_bytes(target, b"one")
        atomic_replace_bytes(target, b"two")
        assert target.read_bytes() == b"two"
        assert not (tmp_path / "state.bin.tmp").exists()

    def test_json_is_canonical_bytes(self, tmp_path):
        target = tmp_path / "state.json"
        atomic_replace_json(target, {"b": 1, "a": [1, 2]})
        assert target.read_bytes() == b'{"a":[1,2],"b":1}\n'


class _TornOs:
    """The ``os`` module, except that ``write`` stores half the bytes,
    then fails, as ``write(2)`` on a full disk does."""

    def __init__(self):
        self.full = False

    def __getattr__(self, name):
        return getattr(os, name)

    def write(self, fd, data):
        if self.full:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.full = True
        return os.write(fd, bytes(data[: len(data) // 2]))


def _held(store, series):
    return tuple(a.tolist() for a in store.fetch(series))


class TestInterruptedCheckpoint:
    def test_recover_reads_the_whole_old_or_new_history(self, tmp_path, monkeypatch):
        store = MemoryStore(directory=tmp_path)
        for t in range(20):
            store.publish("s", float(t), t / 20)
        old = _held(store, "s")
        # The replace record's write dies half-way: the replace changes
        # nothing, and the torn half is cut off the log again.
        monkeypatch.setattr(durable, "os", _TornOs())
        with pytest.raises(OSError):
            store.replace("s", [5.0, 10.0, 19.0], [0.1, 0.2, 0.3])
        monkeypatch.undo()
        assert _held(store, "s") == old
        store.publish("s", 20.0, 1.0)
        fresh = MemoryStore(directory=tmp_path)
        assert fresh.recover("s") == 21
        assert _held(fresh, "s") == _held(store, "s")


class TestJournalWriter:
    def test_write_through_by_default(self, tmp_path):
        path = tmp_path / "a.jsonl"
        journal = JournalWriter(path)
        journal.append("x")
        assert path.read_text() == "x\n"
        assert journal.pending() == 0
        journal.close()

    def test_group_commit_buffers_until_threshold(self, tmp_path):
        path = tmp_path / "a.jsonl"
        journal = JournalWriter(path, flush_lines=3)
        journal.append("1")
        journal.append("2")
        assert not path.exists()
        assert journal.pending() == 2
        journal.append("3")
        assert path.read_text() == "1\n2\n3\n"
        assert journal.pending() == 0
        journal.close()

    def test_flush_is_the_read_barrier(self, tmp_path):
        path = tmp_path / "a.jsonl"
        journal = JournalWriter(path, flush_lines=100)
        journal.append("1")
        assert journal.flush() == 1
        assert path.read_text() == "1\n"
        journal.close()

    def test_invalidate_drops_pending_and_reopens_new_inode(self, tmp_path):
        # Compaction rewrites the log to the live state: the pending
        # lines are in the new file already, and the next append lands
        # on the replacement inode, not the unlinked one.
        log = TenantLog(tmp_path, flush_lines=4)
        for t in range(6):
            log.publish("s", float(t), 0.5)
        assert log.pending() == 2
        runs = {"s": ([5.0], [0.5])}
        assert log.compact(runs, {})
        assert log.pending() == 0
        log.publish("s", 6.0, 0.25)
        log.flush()
        state = log.replay(capacity=10)
        assert [list(a) for a in state.live["s"]] == [[5.0, 6.0], [0.5, 0.25]]
        assert state.lines == 2
        log.close()

    def test_discard_loses_only_the_unflushed_tail(self, tmp_path):
        path = tmp_path / "a.jsonl"
        journal = JournalWriter(path, flush_lines=2)
        for line in ("1", "2", "3"):
            journal.append(line)
        journal.discard()  # what kill -9 would lose
        assert path.read_text() == "1\n2\n"

    def test_close_flushes(self, tmp_path):
        path = tmp_path / "a.jsonl"
        journal = JournalWriter(path, flush_lines=100)
        journal.append("1")
        journal.close()
        assert path.read_text() == "1\n"

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="flush_lines"):
            JournalWriter(tmp_path / "a.jsonl", flush_lines=0)


# --------------------------------------------------- service-level restore


def _publish_sequence(n: int, series_count: int = 5):
    """A deterministic (series, time, value) publish schedule."""
    rng = np.random.default_rng(11)
    values = rng.random(n)
    return [
        (f"cpu.{i % series_count}", 10.0 * i, float(values[i])) for i in range(n)
    ]


_POLICY = RetentionPolicy(compact_above=100, keep_recent=20, period=50.0)


def _forecast_bytes(core: ServiceCore, tenant: str = "default") -> bytes:
    reports = core.query_all(tenant)
    return b"".join(
        canonical(encode_report(reports[name])) for name in sorted(reports)
    )


def _reference_bytes(ops, maintain_at) -> bytes:
    core = ServiceCore(("default",), retention=_POLICY)
    for i, (series, t, value) in enumerate(ops):
        core.publish("default", series, t, value)
        if i + 1 in maintain_at:
            core.maintain()
    core.maintain()
    return _forecast_bytes(core)


class TestKillRestartRecover:
    def test_restore_is_byte_identical_after_compaction(self, tmp_path):
        ops = _publish_sequence(600)
        maintain_at = {300}
        reference = _reference_bytes(ops, maintain_at)

        core = ServiceCore(("default",), directory=tmp_path, retention=_POLICY)
        core.register("default", "sensor.a", "sensor", {"host": "a"}, ttl=1e12)
        for i, (series, t, value) in enumerate(ops[:340]):
            core.publish("default", series, t, value)
            if i + 1 in maintain_at:
                core.maintain()
        # kill -9: drop the core without close()/sync(); write-through
        # journaling (flush_lines=1) means nothing was buffered.
        del core

        restored = ServiceCore.restore(tmp_path, retention=_POLICY)
        assert len(restored.lookup("default", "sensor")) == 1
        for series, t, value in ops[340:]:
            restored.publish("default", series, t, value)
        restored.maintain()
        assert _forecast_bytes(restored) == reference
        restored.close()

    def test_group_commit_crash_loses_only_the_tail(self, tmp_path):
        ops = _publish_sequence(600)
        reference = _reference_bytes(ops, {300})

        core = ServiceCore(
            ("default",),
            directory=tmp_path,
            retention=_POLICY,
            journal_flush_lines=4,
        )
        for i, (series, t, value) in enumerate(ops[:342]):
            core.publish("default", series, t, value)
            if i + 1 == 300:
                core.maintain()  # also a durability heartbeat (sync)
        # Crash with 2 appends still buffered: the journal holds exactly
        # the flushed prefix (340 = the last group-commit boundary).
        state = core.tenant("default")
        state.memory.discard_unflushed()
        del core

        restored = ServiceCore.restore(
            tmp_path, retention=_POLICY, journal_flush_lines=4
        )
        total = sum(
            restored.tenant("default").memory.count(s)
            for s in restored.series_names("default")
        )
        # 300 publishes compacted by maintain() down to <= the policy's
        # retained set, plus the 40 flushed post-compaction publishes --
        # and NOT the 2 unflushed ones.
        expected = ServiceCore(("default",), retention=_POLICY)
        for series, t, value in ops[:300]:
            expected.publish("default", series, t, value)
        expected.maintain()
        for series, t, value in ops[300:340]:
            expected.publish("default", series, t, value)
        assert total == sum(
            expected.tenant("default").memory.count(s)
            for s in expected.series_names("default")
        )
        # Republishing from the surviving prefix converges byte-identically.
        for series, t, value in ops[340:]:
            restored.publish("default", series, t, value)
        restored.maintain()
        assert _forecast_bytes(restored) == reference
        restored.close()

    def test_restore_tolerates_a_torn_journal_tail(self, tmp_path):
        with installed(MetricsRegistry()) as registry:
            core = ServiceCore(("default",), directory=tmp_path)
            for series, t, value in _publish_sequence(50):
                core.publish("default", series, t, value)
            core.close()
            journal = next((tmp_path / "default").glob("*.jsonl"))
            with journal.open("rb") as f:
                intact = f.read()
            atomic_replace_bytes(journal, intact + b'{"t": 99999.0, "v": 0.')
            restored = ServiceCore.restore(tmp_path)
            total = sum(
                restored.tenant("default").memory.count(s)
                for s in restored.series_names("default")
            )
            assert total == 50
            assert (
                counter_value(registry, "repro_memory_corrupt_journal_lines_total")
                == 1
            )
            restored.close()

    def test_restore_requires_a_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="MANIFEST"):
            ServiceCore.restore(tmp_path)

    def test_a_fresh_core_refuses_a_state_directory(self, tmp_path):
        # A fresh core over old logs would serve an empty store while
        # appending to them, so a later restore would disagree with it.
        core = ServiceCore(directory=tmp_path)
        core.publish("default", "s", 0.0, 0.5)
        core.publish("default", "s", 10.0, 0.6)
        core.close()
        before = sorted(p.name for p in tmp_path.rglob("*"))
        with pytest.raises(ValueError, match=r"ServiceCore\.restore.*--state-dir"):
            ServiceCore(directory=tmp_path)
        assert sorted(p.name for p in tmp_path.rglob("*")) == before
        restored = ServiceCore.restore(tmp_path)
        restored.publish("default", "s", 20.0, 0.7)
        times, _ = restored.fetch("default", "s")
        restored.close()
        assert ServiceCore.restore(tmp_path).fetch("default", "s")[0].tolist() == (
            times.tolist()
        ) == [0.0, 10.0, 20.0]

    def test_restore_rejects_foreign_state_versions(self, tmp_path):
        atomic_replace_json(
            tmp_path / MANIFEST_NAME,
            {"state_version": 99, "tenants": ["default"]},
        )
        with pytest.raises(ValueError, match="state_version"):
            ServiceCore.restore(tmp_path)

    def test_restore_metrics(self, tmp_path):
        core = ServiceCore(("default",), directory=tmp_path)
        core.register("default", "sensor.a", "sensor", {}, ttl=1e12)
        for series, t, value in _publish_sequence(30, series_count=3):
            core.publish("default", series, t, value)
        core.close()
        with installed(MetricsRegistry()) as registry:
            restored = ServiceCore.restore(tmp_path)
            assert counter_value(registry, "repro_server_restores_total") == 1
            assert (
                counter_value(registry, "repro_server_restored_series_total") == 3
            )
            assert (
                counter_value(registry, "repro_server_restored_samples_total")
                == 30
            )
            assert (
                counter_value(
                    registry, "repro_server_restored_registrations_total"
                )
                == 1
            )
            restored.close()

    @pytest.mark.usefixtures("lock_ownership")
    def test_concurrent_publish_during_recover(self, tmp_path):
        """recover() under live publishes: no lost samples, no torn reads."""
        core = ServiceCore(("default",), directory=tmp_path)
        for i in range(100):
            core.publish("default", "cpu.hot", float(i), 0.5)
        errors: list[Exception] = []

        def publisher():
            try:
                for i in range(100, 200):
                    core.publish("default", "cpu.hot", float(i), 0.5)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        thread = threading.Thread(target=publisher)
        thread.start()
        for _ in range(20):
            core.recover("default", "cpu.hot")
        thread.join()
        assert errors == []
        # Every publish (0..199) is both in memory and on disk.
        assert core.tenant("default").memory.count("cpu.hot") == 200
        assert core.recover("default", "cpu.hot") == 200
        core.close()


class TestMalformedStateDirectory:
    """Restore turns bad bytes on disk into skips or one typed error."""

    def test_oversized_journal_number_is_skipped_and_counted(self, tmp_path):
        core = ServiceCore(("default",), directory=tmp_path)
        for i in range(3):
            core.publish("default", "cpu.a", float(i), 0.5)
        core.close()
        log = core.tenant("default").memory.log.path
        intact = log.read_bytes()
        # The last record again, its time spelled beyond float range.
        last = intact.splitlines(keepends=True)[-1]
        oversized = last.replace(b"2.0", b"9" * 400 + b".0")
        assert oversized != last
        atomic_replace_bytes(log, intact + oversized)
        with installed(MetricsRegistry()) as registry:
            restored = ServiceCore.restore(tmp_path)
            assert restored.tenant("default").memory.count("cpu.a") == 3
            assert (
                counter_value(registry, "repro_memory_corrupt_journal_lines_total")
                == 1
            )
            restored.close()

    def test_oversized_registration_expiry_skips_the_snapshot(self, tmp_path):
        core = ServiceCore(("default",), directory=tmp_path)
        core.register("default", "sensor.a", "sensor", {}, ttl=60.0)
        core.close()
        log = core.tenant("default").memory.log.path
        intact = log.read_bytes()
        atomic_replace_bytes(log, intact.replace(b"60.0", b"9" * 400 + b".0"))
        with installed(MetricsRegistry()) as registry:
            restored = ServiceCore.restore(tmp_path)
            assert restored.lookup("default") == []
            assert (
                counter_value(registry, "repro_memory_corrupt_journal_lines_total")
                == 1
            )
        restored.close()

    @pytest.mark.parametrize(
        "manifest",
        [
            b"[]",
            b'{"state_version": 2, "tenants": 5}',
            b'{"state_version": 2, "tenants": "abc"}',
            b'{"state_version": 2, "tenants": ["default", 7]}',
            b'{"state_version": 2}',
            b'{"state_version": 2, "tenants": ["def',
            b'{"state_version": 1, "tenants": ["default"]}',
        ],
        ids=[
            "list", "int-tenants", "str-tenants", "mixed", "no-tenants", "torn",
            "version-1",
        ],
    )
    def test_malformed_manifest_is_a_value_error_naming_the_file(
        self, tmp_path, manifest
    ):
        atomic_replace_bytes(tmp_path / MANIFEST_NAME, manifest)
        with pytest.raises(ValueError, match=MANIFEST_NAME):
            ServiceCore.restore(tmp_path)
        # Nothing was restored: no tenant directory appeared.
        assert [p.name for p in tmp_path.iterdir()] == [MANIFEST_NAME]

    @pytest.mark.parametrize("command", ["recover", "serve"])
    def test_cli_reports_a_malformed_manifest_in_one_line(
        self, tmp_path, capsys, command
    ):
        from repro.cli import main

        atomic_replace_bytes(tmp_path / MANIFEST_NAME, b"[]")
        assert main([command, "--state-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"nws-repro {command}: ")
        assert MANIFEST_NAME in captured.err



#: Nesting deep enough that ``json.loads`` raises RecursionError.
DEEP = b"[" * 100_000


class TestDeeplyNestedJson:
    """Absurd nesting takes each JSON boundary's usual rule for bad input."""

    def _log(self, tmp_path):
        core = ServiceCore(("default",), directory=tmp_path)
        for i in range(3):
            core.publish("default", "cpu.a", float(i), 0.5)
        core.register("default", "sensor.a", "sensor", {}, ttl=60.0)
        core.close()
        return core.tenant("default").memory.log.path

    def test_request_body_is_a_bad_request(self):
        with installed(MetricsRegistry()):
            with ForecastServer() as server:
                request = urllib.request.Request(
                    f"{server.url}/v1/default/publish",
                    data=DEEP,
                    method="POST",
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as info:
                    urllib.request.urlopen(request)
                assert info.value.code == 400
                error = json.loads(info.value.read())["error"]
                assert error["code"] == "bad_request"
                assert server.core._obs_errors.keys() == {"bad_request"}

    def test_response_body_is_a_protocol_error(self, monkeypatch):
        transport = HTTPTransport("http://127.0.0.1:9")
        monkeypatch.setattr(
            transport, "_exchange", lambda method, path, body: (200, DEEP)
        )
        with pytest.raises(ProtocolError, match="non-JSON"):
            transport._request("GET", "/v1/default/series")

    def test_journal_line_is_skipped_and_counted(self, tmp_path):
        log = self._log(tmp_path)
        atomic_replace_bytes(log, log.read_bytes() + DEEP + b"\n")
        with installed(MetricsRegistry()) as registry:
            restored = ServiceCore.restore(tmp_path)
            assert restored.tenant("default").memory.count("cpu.a") == 3
            assert (
                counter_value(registry, "repro_memory_corrupt_journal_lines_total")
                == 1
            )
            restored.close()

    def test_manifest_is_a_value_error_naming_the_file(self, tmp_path):
        atomic_replace_bytes(tmp_path / MANIFEST_NAME, DEEP)
        with pytest.raises(ValueError, match=MANIFEST_NAME):
            ServiceCore.restore(tmp_path)

    def test_registration_snapshot_is_skipped(self, tmp_path):
        log = self._log(tmp_path)
        # The register record, the last line, becomes absurd nesting.
        lines = log.read_bytes().splitlines(keepends=True)
        atomic_replace_bytes(log, b"".join(lines[:-1]) + DEEP + b"\n")
        restored = ServiceCore.restore(tmp_path)
        assert restored.lookup("default") == []
        assert restored.tenant("default").memory.count("cpu.a") == 3
        restored.close()


# ----------------------------------------------------- overload protection


class TestTypedStoreErrors:
    """Inputs the store cannot honour are 400s that change nothing."""

    def test_overlong_series_name_round_trips(self, tmp_path):
        # No file name is derived from a series name, so a name no file
        # system could hold is served and restored like any other.
        name = "x" * 300
        core = ServiceCore(("default",), directory=tmp_path)
        server = ForecastServer(core).start()
        try:
            status, payload, _ = http(
                f"{server.url}/v1/default/publish",
                {"series": name, "time": 0.0, "value": 0.5},
            )
            assert status == 200
        finally:
            server.stop()
        restored = ServiceCore.restore(tmp_path)
        assert restored.series_names("default") == [name]
        restored.close()

    def test_replace_of_an_overlong_series_name_round_trips(self, tmp_path):
        name = "\u00e9" * 125  # 250 characters, 256 bytes of UTF-8
        core = ServiceCore(("default",), directory=tmp_path)
        core.tenant("default").memory.replace(name, [0.0], [0.5])
        core.close()
        restored = ServiceCore.restore(tmp_path)
        assert restored.tenant("default").memory.count(name) == 1
        restored.close()

    def test_recover_without_a_state_directory_is_a_bad_request(self):
        with ForecastServer() as server:
            client = NWSClient.connect(server.url)
            with pytest.raises(ValueError, match="persistence directory"):
                client.recover("a")
            assert server.core._obs_errors.keys() == {"bad_request"}


class TestLoadShedding:
    def test_zero_capacity_sheds_with_429_and_retry_after(self):
        with installed(MetricsRegistry()) as registry:
            with ForecastServer(max_inflight=0, shed_retry_after=0.25) as server:
                status, payload, headers = http(
                    server.url + "/v1/default/publish",
                    {"series": "cpu.a", "time": 0.0, "value": 0.5},
                )
                assert status == 429
                assert payload["error"]["code"] == "overloaded"
                assert payload["error"]["reason"] == "overload"
                assert payload["error"]["retry_after"] == 0.25
                assert headers["Retry-After"] == "1"  # ceil(0.25)
            assert (
                counter_value(
                    registry, "repro_server_shed_total", reason="overload"
                )
                == 1
            )

    def test_shed_round_trips_as_server_overloaded(self):
        with ForecastServer(max_inflight=0) as server:
            with NWSClient.connect(server.url) as client:
                with pytest.raises(ServerOverloaded) as info:
                    client.publish("cpu.a", time=0.0, value=0.5)
                assert info.value.reason == "overload"
                assert info.value.retry_after == pytest.approx(0.05)

    def test_admitted_request_still_served(self):
        with ForecastServer(max_inflight=4) as server:
            status, payload, _ = http(
                server.url + "/v1/default/publish",
                {"series": "cpu.a", "time": 0.0, "value": 0.5},
            )
            assert status == 200
            assert payload["count"] == 1

    def test_try_admit_slot_accounting(self):
        server = ForecastServer(max_inflight=1)
        try:
            assert server.try_admit() is None
            assert server.try_admit() == "overload"
            server.release()
            assert server.try_admit() is None
            server.release()
        finally:
            server._httpd.server_close()


class TestDrain:
    def test_draining_sheds_new_arrivals(self):
        with ForecastServer() as server:
            server.begin_drain()
            status, payload, _ = http(server.url + "/v1/health")
            assert status == 429
            assert payload["error"]["reason"] == "draining"

    def test_health_reports_drain_state(self):
        server = ForecastServer()
        try:
            status, payload = server.dispatch("GET", "/v1/health", {})
            assert status == 200
            assert payload["server"]["draining"] is False
            assert payload["server"]["inflight"] == 0
            server.begin_drain()
            _, payload = server.dispatch("GET", "/v1/health", {})
            assert payload["server"]["draining"] is True
        finally:
            server._httpd.server_close()


class TestRequestDeadlines:
    def test_expired_budget_is_shed_before_dispatch(self):
        with ForecastServer() as server:
            status, payload, headers = http(
                server.url + "/v1/health", headers={DEADLINE_HEADER: "-1.0"}
            )
            assert status == 429
            assert payload["error"]["reason"] == "deadline"
            assert payload["error"]["retry_after"] == 0.0
            assert headers["Retry-After"] == "0"

    def test_generous_budget_is_served(self):
        with ForecastServer() as server:
            status, payload, _ = http(
                server.url + "/v1/health", headers={DEADLINE_HEADER: "30.0"}
            )
            assert status == 200
            assert payload["status"] == "ok"

    def test_malformed_budget_is_ignored(self):
        with ForecastServer() as server:
            status, _, _ = http(
                server.url + "/v1/health", headers={DEADLINE_HEADER: "soon"}
            )
            assert status == 200

    def test_core_checks_the_deadline_per_operation(self):
        core = ServiceCore(("default",))
        set_request_deadline(time.monotonic() - 1.0)
        try:
            with pytest.raises(ServerOverloaded) as info:
                core.publish("default", "cpu.a", 0.0, 0.5)
            assert info.value.reason == "deadline"
        finally:
            set_request_deadline(None)
        assert request_deadline() is None
        assert core.publish("default", "cpu.a", 0.0, 0.5) == 1

    def test_transport_attaches_the_deadline_header(self):
        with ForecastServer() as server:
            # 1 microsecond is spent before the request even leaves the
            # socket, so the server always sees an expired budget.
            with NWSClient.connect(server.url, deadline=1e-6) as client:
                with pytest.raises(ServerOverloaded) as info:
                    client.series_names()
                assert info.value.reason == "deadline"
            with NWSClient.connect(server.url, deadline=30.0) as client:
                assert client.series_names() == []


class TestUncleanShutdown:
    def test_hung_worker_is_counted_and_surfaced(self):
        with installed(MetricsRegistry()) as registry:
            server = ForecastServer(shutdown_timeout=0.05)
            server.start()
            # Simulate a wedged maintenance worker: a thread that ignores
            # the stop event entirely.
            hang = threading.Event()
            server._maintenance_thread = threading.Thread(
                target=hang.wait, daemon=True
            )
            server._maintenance_thread.start()
            server.stop()
            assert server.unclean_shutdowns == 1
            assert (
                counter_value(registry, "repro_server_unclean_shutdown_total")
                == 1
            )
            _, payload = server.dispatch("GET", "/v1/health", {})
            assert payload["server"]["unclean_shutdowns"] == 1
            hang.set()

    def test_clean_shutdown_counts_nothing(self):
        server = ForecastServer()
        server.start()
        server.stop()
        assert server.unclean_shutdowns == 0


class TestHTTPClientAcrossRestart:
    def test_client_survives_a_server_restart(self, tmp_path):
        from repro.faults import RetryPolicy

        core = ServiceCore(("default",), directory=tmp_path)
        server = ForecastServer(core)
        server.start()
        client = NWSClient.connect(
            server.url,
            retry=RetryPolicy(
                retries=4, base_delay=0.01, max_delay=0.1, jitter=0.0,
                sleep=time.sleep,
            ),
        )
        assert client.publish("cpu.a", time=0.0, value=0.5) == 1
        port = server.port
        server.stop()

        # Same port, restored state.  The client's cached keep-alive
        # socket either went stale (reconnect-once) or is answered with
        # a connection-closing drain shed (retry + reconnect); either
        # way the facade call succeeds against the restarted server.
        restored = ForecastServer(ServiceCore.restore(tmp_path), port=port)
        restored.start()
        try:
            times, values = client.fetch("cpu.a")
            assert times == [0.0]
            assert values == [0.5]
            assert client.publish("cpu.a", time=1.0, value=0.6) == 2
        finally:
            client.close()
            restored.stop()
