"""Cache entries carry their runs' backtests.

The tables' one-step-ahead forecasts (``HostRun._forecasts``) are stored
in the run's result-cache entry, so a report over a filled cache loads
them instead of forecasting.  These tests check that a warm report is
byte-identical to a cold one and writes nothing, that backtests made by
another mixture are recomputed, that older entries without backtests
still load and get upgraded, and that a damaged backtest is handled like
any other damaged entry.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import repro.core.mixture as mixture
import repro.experiments.tables as tables
from repro.cli import main
from repro.experiments import table2, table3, table5, table6
from repro.experiments.testbed import TestbedConfig, simulate_host
from repro.runner import ResultCache, Runner, config_digest
from repro.runner.cache import _encode

CONFIG = TestbedConfig(duration=2 * 3600.0, seed=23)
FORECASTING_TABLES = (table2, table3, table5, table6)


def forecasting_tables(runner: Runner) -> list:
    return [table(runner, CONFIG) for table in FORECASTING_TABLES]


def entry_state(cache_dir: Path) -> dict[str, tuple[int, bytes]]:
    """Every entry's inode and bytes: ``os.replace`` always changes the
    inode, so a rewrite shows even when the bytes come out equal."""
    return {
        str(path.relative_to(cache_dir)): (path.stat().st_ino, path.read_bytes())
        for path in sorted(cache_dir.glob("*/*.npz"))
    }


def count_forecasts(monkeypatch) -> list:
    calls = []
    forecast_series = tables.forecast_series

    def counting(values, **kwargs):
        calls.append(values.size)
        return forecast_series(values, **kwargs)

    monkeypatch.setattr(tables, "forecast_series", counting)
    return calls


class TestWarmReport:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_cold_and_warm_reports_are_byte_identical(self, tmp_path, seed, capsys):
        cache = tmp_path / "cache"
        outs = [tmp_path / "cold", tmp_path / "warm"]
        stats = []
        for out in outs:
            argv = [
                "report", str(out), "--seed", str(seed), "--hours", "2",
                "--figure3-days", "0.25", "--cache-dir", str(cache),
            ]
            assert main(argv) == 0
            stats.append(capsys.readouterr().err)
        # 6 hosts x 3 methods, raw and 5-minute aggregates, plus Table 6.
        assert "backtests_loaded=0 backtests_stored=54" in stats[0]
        assert "backtests_loaded=54 backtests_stored=0" in stats[1]
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_warm_run_forecasts_nothing_and_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        cold = Runner(cache=tmp_path)
        expected = forecasting_tables(cold)
        assert cold.persist_backtests() == 12
        before = entry_state(tmp_path)

        calls = count_forecasts(monkeypatch)
        stores = []
        monkeypatch.setattr(
            ResultCache, "store", lambda self, digest, run: stores.append(digest)
        )
        warm = Runner(cache=tmp_path)
        assert forecasting_tables(warm) == expected
        assert warm.persist_backtests() == 0
        assert calls == [] and stores == []
        assert warm.stats.backtests_loaded == 54
        assert warm.stats.backtests_stored == 0
        assert entry_state(tmp_path) == before

    def test_loaded_backtests_are_read_only(self, tmp_path):
        cold = Runner(cache=tmp_path)
        forecasting_tables(cold)
        cold.persist_backtests()
        run = Runner(cache=tmp_path).run_one("thing1", CONFIG)
        assert len(run._forecasts) == 6
        for forecasts in run._forecasts.values():
            with pytest.raises(ValueError):
                forecasts[0] = 0.0

    def test_without_a_cache_nothing_is_persisted(self):
        runner = Runner()
        forecasting_tables(runner)
        assert runner.persist_backtests() == 0
        assert runner.stats.backtests_stored == 0


class TestStaleBacktests:
    def test_another_battery_recomputes_and_matches_a_fresh_run(
        self, tmp_path, monkeypatch
    ):
        cold = Runner(cache=tmp_path)
        forecasting_tables(cold)
        cold.persist_backtests()

        default_battery = mixture.default_battery
        monkeypatch.setattr(mixture, "default_battery", lambda: default_battery()[:-1])
        calls = count_forecasts(monkeypatch)
        stale = Runner(cache=tmp_path)
        got = forecasting_tables(stale)
        assert stale.stats.disk_hits == 12
        assert stale.stats.backtests_loaded == 0
        assert len(calls) == 54
        assert got == forecasting_tables(Runner())

        # The re-store records the new battery; the next run loads it.
        assert stale.persist_backtests() == 12
        reloaded = Runner(cache=tmp_path)
        assert forecasting_tables(reloaded) == got
        assert reloaded.stats.backtests_loaded == 54

    def test_entry_without_backtests_loads_and_is_upgraded(self, tmp_path):
        run = simulate_host("thing1", CONFIG)
        digest = config_digest("thing1", CONFIG)
        arrays = _encode(run)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        del meta["mixture"], meta["backtests"]
        blob = json.dumps(meta, sort_keys=True, separators=(",", ":"))
        arrays["meta"] = np.frombuffer(blob.encode("utf-8"), dtype=np.uint8)
        path = ResultCache(tmp_path).path_for(digest)
        path.parent.mkdir(parents=True)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

        runner = Runner(cache=tmp_path)
        loaded = runner.run_one("thing1", CONFIG)
        assert runner.stats.disk_hits == 1 and loaded._forecasts == {}
        tables.table3(runner, CONFIG)
        assert runner.persist_backtests() == 6  # thing1 and the five others
        upgraded, outcome = ResultCache(tmp_path).lookup(digest)
        assert outcome == "hit"
        assert sorted(upgraded._forecasts) == sorted(loaded._forecasts)
        for key, forecasts in loaded._forecasts.items():
            assert upgraded._forecasts[key].tobytes() == forecasts.tobytes()

    def test_backtest_of_the_wrong_length_is_corrupt(self, tmp_path):
        run = simulate_host("thing1", CONFIG)
        digest = config_digest("thing1", CONFIG)
        forecasts = tables._backtest(run, "vmstat", "auto")
        run._forecasts[("vmstat", "auto", 1)] = forecasts[:-1]
        cache = ResultCache(tmp_path)
        path = cache.store(digest, run)

        assert cache.lookup(digest) == (None, "corrupt")
        assert not path.exists()
        cache.store(digest, run)
        runner = Runner(cache=cache)
        again = runner.run_one("thing1", CONFIG)
        assert runner.stats.corrupt == 1 and runner.stats.misses == 1
        assert again.values("vmstat").tobytes() == run.values("vmstat").tobytes()
        assert cache.lookup(digest)[1] == "hit"


def test_parallel_and_serial_runs_leave_identical_entries(tmp_path):
    entries = []
    for jobs in (2, 1):
        cache_dir = tmp_path / f"jobs{jobs}"
        runner = Runner(jobs=jobs, cache=cache_dir)
        forecasting_tables(runner)
        runner.persist_backtests()
        entries.append(
            {name: data for name, (_, data) in entry_state(cache_dir).items()}
        )
    assert len(entries[0]) == 12
    assert entries[0] == entries[1]
