"""Tests for repro.experiments.tables: structure plus the paper's
qualitative signatures on a short (4-6 h) run.

The benchmark suite regenerates the full 24-hour tables; here we assert the
*shape* invariants from DESIGN.md hold even on the shorter, cheaper run.
"""

import re
import warnings

import numpy as np
import pytest

import repro.experiments.tables as tables
from repro.core.mixture import AdaptiveForecaster
from repro.experiments.tables import table1, table2, table3, table4, table5, table6
from repro.experiments.testbed import TestbedConfig
from repro.runner import Runner
from repro.sensors.suite import METHODS
from repro.workload.profiles import profile_names

from tests.conftest import SHORT, SHORT_MEDIUM

HOURS4 = SHORT.duration
SEED = SHORT.seed


def cell_percent(table, host, column):
    """Parse the leading float out of a formatted '12.3%'-style cell."""
    text = str(table.cell(host, column))
    match = re.search(r"-?\d+(\.\d+)?", text)
    assert match, text
    return float(match.group())


@pytest.fixture(scope="module")
def t1():
    return table1(seed=SEED, duration=HOURS4)


@pytest.fixture(scope="module")
def t2():
    return table2(seed=SEED, duration=HOURS4)


@pytest.fixture(scope="module")
def t3():
    return table3(seed=SEED, duration=HOURS4)


class TestTable1:
    def test_structure(self, t1):
        assert t1.table_id == "table1"
        assert [row[0] for row in t1.rows] == profile_names()
        assert len(t1.headers) == 4
        assert t1.paper  # side-by-side values included

    def test_conundrum_anomaly(self, t1):
        # Priority-blind methods fail badly; the probe-armed hybrid wins.
        la = cell_percent(t1, "conundrum", "Load Average")
        vm = cell_percent(t1, "conundrum", "vmstat")
        hy = cell_percent(t1, "conundrum", "NWS Hybrid")
        assert la > 25.0 and vm > 25.0
        assert hy < 10.0

    def test_kongo_anomaly(self, t1):
        # The short probe is fooled by the long-running job; the cheap
        # methods are fine.
        la = cell_percent(t1, "kongo", "Load Average")
        hy = cell_percent(t1, "kongo", "NWS Hybrid")
        assert hy > 20.0
        assert la < 15.0
        assert hy > 2.0 * la

    def test_normal_hosts_moderate_errors(self, t1):
        for host in ("thing1", "gremlin", "beowulf"):
            for column in ("Load Average", "vmstat", "NWS Hybrid"):
                assert cell_percent(t1, host, column) < 22.0, (host, column)

    def test_render_contains_all_hosts(self, t1):
        text = t1.render()
        for host in profile_names():
            assert host in text


class TestTable2:
    def test_true_forecasting_close_to_measurement_error(self, t2):
        # The paper's central Table 2 point: prediction adds little error.
        for row in t2.rows:
            for cell in row[1:]:
                match = re.match(r"([\d.]+)% \(([\d.]+)%\)", cell)
                assert match, cell
                forecast_err, meas_err = float(match.group(1)), float(match.group(2))
                assert abs(forecast_err - meas_err) < max(3.0, 0.35 * meas_err)

    def test_kongo_hybrid_stays_pathological(self, t2):
        assert cell_percent(t2, "kongo", "NWS Hybrid") > 20.0


class TestTable3:
    def test_one_step_prediction_errors_small(self, t3):
        # Paper: < 5 % everywhere.  Allow a small margin on the short run.
        for row in t3.rows:
            for cell in row[1:]:
                assert float(cell.rstrip("%")) < 7.0, row

    def test_static_hosts_are_most_predictable(self, t3):
        assert cell_percent(t3, "kongo", "Load Average") < 1.0
        assert cell_percent(t3, "conundrum", "Load Average") < 1.0


class TestTable4:
    @pytest.fixture(scope="class")
    def t4(self):
        return table4(seed=SEED, duration=HOURS4)

    def test_hurst_in_self_similar_range(self, t4):
        for row in t4.rows:
            hurst = float(row[1])
            assert 0.5 < hurst < 1.0, row

    def test_aggregated_variance_not_larger(self, t4):
        # Column pairs: (orig, 300s) per method; aggregation must not
        # inflate variance (paper's kongo/conundrum hybrid exceptions are
        # tiny absolute numbers; allow equality within rounding).
        for row in t4.rows:
            for orig_idx in (2, 4, 6):
                orig = float(row[orig_idx])
                agg = float(row[orig_idx + 1])
                assert agg <= orig + 5e-3, row

    def test_variance_decay_slower_than_iid(self, t4):
        # Self-similarity: var(X^(30)) >> var(X)/30 on the busy hosts.
        for host_row in t4.rows:
            if host_row[0] not in ("thing1", "thing2", "beowulf"):
                continue
            orig = float(host_row[2])
            agg = float(host_row[3])
            assert agg > orig / 30.0, host_row


class TestTable5:
    @pytest.fixture(scope="class")
    def t5(self):
        return table5(seed=SEED, duration=HOURS4)

    def test_cells_parse_and_stars_consistent(self, t5):
        pattern = re.compile(r"(\*?)([\d.]+)% \(([\d.]+)%\)")
        star_count = 0
        for row in t5.rows:
            for cell in row[1:]:
                match = pattern.match(cell)
                assert match, cell
                starred = match.group(1) == "*"
                agg_err = float(match.group(2))
                orig_err = float(match.group(3))
                # The star is computed before display rounding, so only
                # check consistency when the rounded values distinguish.
                if agg_err != orig_err:
                    assert starred == (agg_err < orig_err)
                star_count += starred
        # Paper has a handful of starred cells, not all, not none...
        # on short runs at least the consistency must hold.
        assert 0 <= star_count <= 18


class TestTable6:
    @pytest.fixture(scope="class")
    def t6(self):
        return table6(seed=SEED, duration=SHORT_MEDIUM.duration)

    def test_structure(self, t6):
        assert [row[0] for row in t6.rows] == profile_names()

    def test_kongo_hybrid_pathological_medium_term(self, t6):
        hy = cell_percent(t6, "kongo", "NWS Hybrid")
        la = cell_percent(t6, "kongo", "Load Average")
        assert hy > 15.0 and la < 10.0

    def test_conundrum_hybrid_good_medium_term(self, t6):
        assert cell_percent(t6, "conundrum", "NWS Hybrid") < 12.0


class TestTable6TooShort:
    """No hourly 5-minute test after warm-up is a typed error up front."""

    def test_one_hour_names_the_shortest_hours(self):
        with pytest.raises(ValueError, match=r"use --hours 1\.09 or more \(got 1\)"):
            tables.require_table6_test(TestbedConfig(duration=3600.0, seed=SEED))

    def test_boundary_is_the_first_test_end(self):
        # The first test starts at max(3600, warmup) + 5 s and runs 300 s.
        tables.require_table6_test(TestbedConfig(duration=3905.0, seed=SEED))
        with pytest.raises(ValueError, match="5-minute test"):
            tables.require_table6_test(TestbedConfig(duration=3904.0, seed=SEED))

    def test_unscored_cells_read_nan_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t6 = table6(Runner(), TestbedConfig(duration=3600.0, seed=SEED))
        assert all(cell == "nan%" for row in t6.rows for cell in row[1:])

    def test_shortest_hours_scores_every_cell(self):
        t6 = table6(Runner(), TestbedConfig(duration=1.09 * 3600.0, seed=SEED))
        assert all(
            cell.endswith("%") and cell != "nan%" for row in t6.rows for cell in row[1:]
        )


class TestSharedBacktest:
    """Tables 2, 3 and 5 score one backtest per run and method."""

    CONFIG = TestbedConfig(duration=2 * 3600.0, seed=SEED)

    def test_each_series_is_backtested_once(self, monkeypatch):
        calls = []
        forecast_series = tables.forecast_series

        def counting(values):
            calls.append(values)
            return forecast_series(values)

        monkeypatch.setattr(tables, "forecast_series", counting)
        runner = Runner()
        shared = [table(runner, self.CONFIG) for table in (table2, table3, table5)]
        runs = runner.run(None, self.CONFIG)

        for run in runs:
            for method in METHODS:
                raw = sum(values is run.values(method) for values in calls)
                assert raw == 1, (run.host, method)
        aggregates = [
            values for values in calls
            if not any(values is run.values(m) for run in runs for m in METHODS)
        ]
        # Table 5's 5-minute aggregates: one backtest each.
        assert len(aggregates) == len(runs) * len(METHODS)
        assert {values.size for values in aggregates} == {
            run.values(m).size // tables.AGG for run in runs for m in METHODS
        }

        for run in runs:
            # Raw and aggregated, both kept on the run.
            assert len(run._forecasts) == 2 * len(METHODS)
            for forecasts in run._forecasts.values():
                assert not forecasts.flags.writeable
                with pytest.raises(ValueError):
                    forecasts[0] = 0.0

        # The batched backtests score exactly what streaming would.
        monkeypatch.setattr(
            tables,
            "forecast_series",
            lambda values: forecast_series(values, AdaptiveForecaster()),
        )
        fresh = Runner()
        streamed = [table(fresh, self.CONFIG) for table in (table2, table3, table5)]
        assert streamed == shared
