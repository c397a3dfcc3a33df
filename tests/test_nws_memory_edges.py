"""Edge cases of the NWS memory store: unknown series, corrupt journals,
and behaviour exactly at the capacity boundary."""

import json

import pytest

from repro.nws.errors import SeriesUnavailable
from repro.nws.memory import MemoryStore
from repro.obs import MetricsRegistry, installed


class TestUnknownSeries:
    def test_fetch_unknown_series_raises_typed_error(self):
        store = MemoryStore()
        store.publish("cpu.a.hybrid", 0.0, 0.5)
        with pytest.raises(SeriesUnavailable, match="cpu.b.hybrid") as info:
            store.fetch("cpu.b.hybrid")
        assert info.value.series == "cpu.b.hybrid"
        # Typed as LookupError, deliberately NOT KeyError: callers that
        # conflate "no such series" with dict misses mask real bugs.
        assert not isinstance(info.value, KeyError)
        assert isinstance(info.value, LookupError)

    def test_fetch_error_names_known_series(self):
        store = MemoryStore()
        store.publish("known", 0.0, 0.5)
        with pytest.raises(SeriesUnavailable, match="known"):
            store.fetch("missing")

    def test_count_of_unknown_series_is_zero(self):
        assert MemoryStore().count("nope") == 0

    def test_forget_drops_history_not_journal(self, tmp_path):
        store = MemoryStore(capacity=10, directory=tmp_path)
        store.publish("s", 0.0, 0.5)
        assert store.forget("s") is True
        assert store.forget("s") is False  # idempotent, reports absence
        assert store.count("s") == 0
        assert store.recover("s") == 1  # journal survived the forget


class TestCapacityBoundary:
    def test_exactly_at_capacity_keeps_everything(self):
        store = MemoryStore(capacity=3)
        for i in range(3):
            store.publish("s", float(i), 0.1 * i)
        times, values = store.fetch("s")
        assert list(times) == [0.0, 1.0, 2.0]

    def test_one_past_capacity_evicts_oldest(self):
        store = MemoryStore(capacity=3)
        for i in range(4):
            store.publish("s", float(i), 0.1 * i)
        times, values = store.fetch("s")
        assert list(times) == [1.0, 2.0, 3.0]
        assert values[0] == pytest.approx(0.1)

    def test_eviction_counter_counts_dropped_samples(self):
        with installed(MetricsRegistry()) as registry:
            store = MemoryStore(capacity=2)
            for i in range(5):
                store.publish("s", float(i), 0.0)
            snap = registry.snapshot()
            evicted = snap["repro_memory_evictions_total"]["samples"][0]["value"]
            assert evicted == 3

    def test_capacity_one(self):
        store = MemoryStore(capacity=1)
        store.publish("s", 0.0, 0.1)
        store.publish("s", 1.0, 0.9)
        times, values = store.fetch("s")
        assert list(times) == [1.0]
        assert list(values) == [0.9]


class TestJournalRecovery:
    def _journal(self, tmp_path, series="s"):
        store = MemoryStore(capacity=100, directory=tmp_path)
        for i in range(5):
            store.publish(series, float(i), 0.1 * i)
        return tmp_path / f"{series}.jsonl"

    def test_recover_round_trip(self, tmp_path):
        self._journal(tmp_path)
        fresh = MemoryStore(capacity=100, directory=tmp_path)
        assert fresh.recover("s") == 5
        times, _ = fresh.fetch("s")
        assert list(times) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = self._journal(tmp_path)
        # Simulate a crash mid-append: the last record is cut short.
        text = path.read_text()
        path.write_text(text + '{"t": 5.0, "v"')
        fresh = MemoryStore(capacity=100, directory=tmp_path)
        assert fresh.recover("s") == 5

    def test_corrupt_middle_lines_are_skipped_and_counted(self, tmp_path):
        path = self._journal(tmp_path)
        lines = path.read_text().splitlines()
        lines.insert(2, "not json at all")
        lines.insert(4, json.dumps({"t": 2.5}))  # missing value field
        lines.insert(5, json.dumps({"t": "soon", "v": 0.5}))  # bad type
        path.write_text("\n".join(lines) + "\n")
        with installed(MetricsRegistry()) as registry:
            fresh = MemoryStore(capacity=100, directory=tmp_path)
            assert fresh.recover("s") == 5
            snap = registry.snapshot()
            corrupt = snap["repro_memory_corrupt_journal_lines_total"]
            assert corrupt["samples"][0]["value"] == 3
            recovered = snap["repro_memory_recovered_samples_total"]
            assert recovered["samples"][0]["value"] == 5

    def test_recover_is_bounded_by_capacity(self, tmp_path):
        self._journal(tmp_path)
        fresh = MemoryStore(capacity=2, directory=tmp_path)
        assert fresh.recover("s") == 2
        times, _ = fresh.fetch("s")
        assert list(times) == [3.0, 4.0]

    def test_recover_missing_journal_returns_zero(self, tmp_path):
        store = MemoryStore(capacity=10, directory=tmp_path)
        assert store.recover("never-published") == 0

    def test_recover_without_directory_raises(self):
        with pytest.raises(RuntimeError, match="persistence"):
            MemoryStore().recover("s")
