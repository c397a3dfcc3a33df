"""Edge cases of the NWS memory store: unknown series, corrupt journals,
behaviour exactly at the capacity boundary, and generated journals
that pin recover()'s fast path to the json.loads rules."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nws.errors import SeriesUnavailable
from repro.nws.memory import MemoryStore, _encode_sample
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
        with pytest.raises(ValueError, match="persistence"):
            MemoryStore().recover("s")

    def test_invalid_utf8_lines_are_skipped_and_counted(self, tmp_path):
        # One bad byte used to fail the whole journal's decode.  Each line
        # holding one is skipped -- even where the JSON around it would
        # parse -- and every other line is recovered.
        path = self._journal(tmp_path)
        expected = MemoryStore(capacity=100, directory=tmp_path)
        expected.recover("s")
        lines = path.read_bytes().split(b"\n")
        lines.insert(1, b'{"t": 0.5, "v": 0.5, "note": "\xff"}')
        lines.insert(3, b"\xc3(")
        lines.insert(5, b'\xed\xa0\x80{"t": 1.5, "v": 0.5}')
        path.write_bytes(b"\n".join(lines))
        with installed(MetricsRegistry()) as registry:
            fresh = MemoryStore(capacity=100, directory=tmp_path)
            assert fresh.recover("s") == 5
            assert _corrupt_lines(registry) == 3
        for got, want in zip(fresh.fetch("s"), expected.fetch("s")):
            assert got.tobytes() == want.tobytes()

    def test_oversized_numbers_are_skipped_and_counted(self, tmp_path):
        # An integer beyond float range parses as JSON but overflows
        # float(): a corrupt line, not a crashed recovery.
        path = self._journal(tmp_path)
        with path.open("a") as f:
            f.write('{"t": %s, "v": 0.5}\n' % ("9" * 400))
            f.write('{"t": 9.0, "v": -%s}\n' % ("9" * 400))
        with installed(MetricsRegistry()) as registry:
            fresh = MemoryStore(capacity=100, directory=tmp_path)
            assert fresh.recover("s") == 5
            assert _corrupt_lines(registry) == 2

    def test_clean_journal_never_calls_json_loads(self, tmp_path, monkeypatch):
        store = MemoryStore(capacity=100, directory=tmp_path)
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, -1e308, 1e16]
        for i, value in enumerate(specials + [0.1 * i for i in range(20)]):
            store.publish("s", 1e9 + 0.25 * i, value)
        store.close()
        expected = store.fetch("s")
        fresh = MemoryStore(capacity=100, directory=tmp_path)

        def no_json(*args, **kwargs):
            raise AssertionError("a canonical line took the json.loads path")

        monkeypatch.setattr("repro.nws.memory.json.loads", no_json)
        assert fresh.recover("s") == len(specials) + 20
        for got, want in zip(fresh.fetch("s"), expected):
            assert got.tobytes() == want.tobytes()


def _corrupt_lines(registry) -> float:
    metric = registry.snapshot().get("repro_memory_corrupt_journal_lines_total")
    return sum(s["value"] for s in metric["samples"]) if metric else 0.0


def _reference_recover(path):
    """The per-line ``json.loads`` loop recover() used before the regex
    path, plus skip-and-count for numbers that overflow a float.
    Returns (times, values, corrupt lines)."""
    times, values, corrupt = [], [], 0
    with path.open(encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                sample = json.loads(line)
                t = float(sample["t"])
                v = float(sample["v"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError):
                corrupt += 1
                continue
            if not math.isfinite(t) or (times and t < times[-1]):
                corrupt += 1
                continue
            times.append(t)
            values.append(v)
    return times, values, corrupt


_SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 1e16, 1e-7,
]
_any_float = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))

# Number spellings that are not what repr(float) writes: some are JSON
# (bare and oversized integers), some only float() accepts, some neither.
_MUTATED_NUMBERS = [
    "0", "-0", "5", "-3", "12", "9" * 400, "-" + "9" * 400, "01.0", "+1.0",
    ".5", "1.", "-NaN", "nan", "inf", "-inf", "1E5", "1e+400", "-1e400",
    "٣.0", "1٣.0", "1.٣", "١٢", '"1.5"', "true", "null", "[]",
    "1.0.0", "0x10", "1_0.0", "",
]

_CANONICAL = '{"t": %s, "v": %s}'
_LAYOUTS = [
    '{"t":%s,"v":%s}',
    '{ "t": %s, "v": %s }',
    '{"t": %s,  "v": %s}',
    '{"t": %s, "v": %s, "x": 1}',
    '{"t": %s, "v": %s, "t": 0.5}',
    '{"v": %s, "t": %s}',
    '{"T": %s, "v": %s}',
    '["t", %s, "v", %s]',
]


@st.composite
def _journal_lines(draw):
    """One journal, as text with arbitrary line endings."""
    lines = []
    clock = draw(st.floats(-1e6, 1e6))
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["clock"] * 4 + ["any", "blank", "junk"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x0c", "  \x0b "])))
            continue
        if kind == "junk":
            lines.append(draw(st.one_of(
                st.sampled_from(['{"t": 1.0}', "not json", "[]", "5", '"s"', "{}"]),
                st.text(max_size=12).filter(lambda s: "\n" not in s and "\r" not in s),
            )))
            continue
        if kind == "clock":
            clock += draw(st.sampled_from([0.0, 0.5, 10.0, -1.0]))
            t = clock
        else:
            t = draw(_any_float)
            if math.isfinite(t) and t > clock:
                clock = t  # keep later clock lines in order
        t_text, v_text = _encode_sample(t, draw(_any_float))[6:-1].split(', "v": ')
        mutate = draw(st.sampled_from(["", "", "t", "v"]))
        if mutate == "t":
            t_text = draw(st.sampled_from(_MUTATED_NUMBERS))
        elif mutate == "v":
            v_text = draw(st.sampled_from(_MUTATED_NUMBERS))
        layout = draw(st.one_of(st.just(_CANONICAL), st.sampled_from(_LAYOUTS)))
        line = layout % (t_text, v_text)
        if draw(st.integers(0, 9)) == 0:
            line = draw(st.sampled_from([" ", "\t", "\x0c"])) + line
        if draw(st.integers(0, 9)) == 0:
            line += draw(st.sampled_from([" ", "\t", "\x0b", "\x85", "\u2028"]))
        lines.append(line)
    endings = st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])
    text = "".join(line + draw(endings) for line in lines)
    if lines and draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]  # torn final write
    return text


class TestGeneratedJournals:
    """recover()'s regex fast path agrees with the json.loads loop."""

    @settings(max_examples=300, deadline=None)
    @given(text=_journal_lines())
    def test_recover_matches_the_json_loads_loop(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "s.jsonl"
            path.write_bytes(text.encode("utf-8"))
            want_times, want_values, want_corrupt = _reference_recover(path)
            with installed(MetricsRegistry()) as registry:
                store = MemoryStore(capacity=1000, directory=directory)
                assert store.recover("s") == len(want_times)
                corrupt = _corrupt_lines(registry)
            times, values = store.fetch("s")
        assert times.tobytes() == np.array(want_times, dtype=np.float64).tobytes()
        assert values.tobytes() == np.array(want_values, dtype=np.float64).tobytes()
        assert corrupt == want_corrupt
