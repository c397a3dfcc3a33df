"""Streaming/batch parity for the vectorized backtesting engine.

The contract under test is *bit-identity*: ``forecast_series(values)``
(the batched default mixture) must return exactly the floats of
``forecast_series(values, AdaptiveForecaster())`` (streaming), and each
member kernel exactly the floats of streaming that member, on every
trace shape the testbed produces.  Comparisons therefore use
``np.array_equal(..., equal_nan=True)``, never ``approx``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import (
    BatchUnsupported,
    member_forecasts,
    mixture_backtest,
    supports_batch,
)
from repro.core.extra_forecasters import AR1Forecaster, extended_battery
from repro.core.forecasters import (
    LastValue,
    SlidingMedian,
    default_battery,
)
from repro.core.mixture import AdaptiveForecaster, ForecasterBank, forecast_series
from repro.obs.metrics import MetricsRegistry, installed

RNG = np.random.default_rng(20260806)


def _traces() -> dict[str, np.ndarray]:
    """Seeded trace shapes: smooth, noisy, bursty, constant, and edges.

    Edge lengths bracket every battery window: 1 and 2 (degenerate), the
    largest sliding window +/- 1 (41 +/- 1), and the adaptive maximum
    +/- 1 (100 +/- 1) plus the mixture scoring window boundary (50, 51).
    """
    out = {
        "uniform": RNG.uniform(0.0, 1.0, 1500),
        "bursty": np.clip(
            np.concatenate(
                [RNG.uniform(0.8, 1.0, 700), RNG.uniform(0.0, 0.3, 800)]
            )
            + RNG.normal(0.0, 0.05, 1500),
            0.0,
            1.0,
        ),
        "smooth": np.clip(
            0.6
            + 0.3 * np.sin(np.linspace(0.0, 20.0, 1500))
            + RNG.normal(0.0, 0.02, 1500),
            0.0,
            1.0,
        ),
        "constant": np.full(400, 0.7),
        "ties": np.tile([0.25, 0.75], 300),
    }
    for n in (1, 2, 4, 5, 6, 40, 41, 42, 49, 50, 51, 99, 100, 101):
        out[f"len{n}"] = RNG.uniform(0.0, 1.0, n)
    # NaN-gapped shapes (sensor dropouts): scattered gaps, gaps at the
    # head and tail, contiguous outage blocks, and a fully-lost trace.
    scattered = RNG.uniform(0.0, 1.0, 600)
    scattered[RNG.random(600) < 0.15] = np.nan
    out["gap_scattered"] = scattered
    lead = RNG.uniform(0.0, 1.0, 200)
    lead[:17] = np.nan
    out["gap_lead"] = lead
    tail = RNG.uniform(0.0, 1.0, 200)
    tail[-23:] = np.nan
    out["gap_tail"] = tail
    blocks = RNG.uniform(0.0, 1.0, 500)
    blocks[60:120] = np.nan
    blocks[300:310] = np.nan
    out["gap_blocks"] = blocks
    out["gap_all"] = np.full(40, np.nan)
    return out


TRACES = _traces()


def _assert_identical(a: np.ndarray, b: np.ndarray, label: str) -> None:
    assert np.array_equal(a, b, equal_nan=True), label


def _member_batch(member, values: np.ndarray) -> np.ndarray:
    """``member_forecasts`` over ``values``, gaps filled hold-last.

    The kernels take all-finite input, so they run on the finite values,
    padded by one when the trace ends in a gap, and each step reads the
    forecast made from the finite values before it: the gap compression
    ``forecast_series`` applies to the default mixture.
    """
    finite = np.isfinite(values)
    comp = values[finite]
    if comp.size == 0:
        return np.full(values.size, np.nan)
    if not finite[-1]:
        comp = np.append(comp, comp[-1])
    return member_forecasts(member, comp)[np.cumsum(finite) - finite]


class TestMemberParity:
    @pytest.mark.parametrize("trace", sorted(TRACES), ids=str)
    def test_every_default_member_bit_identical(self, trace):
        values = TRACES[trace]
        for stream_member, batch_member in zip(default_battery(), default_battery()):
            expected = forecast_series(values, stream_member)
            got = _member_batch(batch_member, values)
            _assert_identical(expected, got, f"{batch_member.name} on {trace}")

    def test_member_forecasts_leaves_instance_untouched(self):
        member = SlidingMedian(5)
        member_forecasts(member, TRACES["uniform"])
        with pytest.raises(ValueError):
            member.forecast()  # still fresh: no measurements absorbed

    def test_supports_batch_covers_default_battery_only(self):
        assert all(supports_batch(m) for m in default_battery())
        assert not supports_batch(AR1Forecaster())
        assert not all(supports_batch(m) for m in extended_battery())


class TestMixtureParity:
    @pytest.mark.parametrize("trace", sorted(TRACES), ids=str)
    def test_mixture_bit_identical(self, trace):
        values = TRACES[trace]
        expected = forecast_series(values, AdaptiveForecaster())
        got = forecast_series(values)
        _assert_identical(expected, got, f"mixture on {trace}")

    def test_winner_sequence_matches_streaming_bank(self):
        values = TRACES["bursty"]
        bank = ForecasterBank()
        winners = [-1]
        bank.update(values[0])
        for v in values[1:]:
            winners.append(bank.names.index(bank.best_name()))
            bank.update(v)
        result = mixture_backtest(values, default_battery())
        assert result.names == tuple(bank.names)
        assert result.winners.tolist() == winners
        assert result.n_switches == bank.n_switches

    def test_auto_defaults_to_batch_for_default_mixture(self):
        values = TRACES["smooth"]
        registry = MetricsRegistry()
        with installed(registry):
            got = forecast_series(values)
        _assert_identical(
            got,
            mixture_backtest(values, default_battery()).forecasts,
            "default vs mixture_backtest",
        )
        engines = registry.counter
        assert engines("repro_forecast_engine_total", engine="batch").value == 1
        assert engines("repro_forecast_engine_total", engine="stream").value == 0

    def test_auto_streams_when_instance_passed(self):
        model = AdaptiveForecaster()
        forecast_series(TRACES["len50"], model)
        # Streaming semantics: the instance absorbed the series.
        assert model.bank.n_updates == TRACES["len50"].size

    def test_custom_error_window_honoured(self):
        values = TRACES["uniform"]
        expected = forecast_series(values, AdaptiveForecaster(error_window=7))
        got = mixture_backtest(values, default_battery(), error_window=7).forecasts
        _assert_identical(expected, got, "error_window=7")


class TestEngineDispatch:
    def test_unknown_engine_rejected(self):
        # The input picks the path: naming an engine is an error now.
        with pytest.raises(TypeError, match="engine"):
            forecast_series([0.1, 0.2], engine="batch")

    def test_batch_rejects_unsupported_forecaster(self):
        with pytest.raises(BatchUnsupported, match="AR1Forecaster"):
            member_forecasts(AR1Forecaster(), TRACES["len5"])

    def test_stream_accepts_anything(self):
        out = forecast_series(TRACES["len5"], AR1Forecaster())
        assert out.size == 5

    def test_validation_precedes_dispatch(self):
        # NaN is a valid gap marker now; infinities are still rejected.
        for bad in ([], [[0.1, 0.2]], [0.1, np.inf], [np.nan, -np.inf]):
            for forecaster in (None, LastValue()):
                with pytest.raises(ValueError):
                    forecast_series(bad, forecaster)

    def test_gap_semantics_hold_last_skip_update(self):
        out = forecast_series([0.5, np.nan, np.nan, 0.7], LastValue())
        # No forecast before the first finite value; gaps hold the last
        # forecast and do not count as measurements.
        assert np.isnan(out[0])
        assert out[1] == out[2] == out[3] == 0.5


class TestResetRoundTrip:
    """reset() must be equivalent to a fresh instance, battery-wide."""

    @pytest.mark.parametrize(
        "battery", [default_battery, extended_battery], ids=["default", "extended"]
    )
    def test_reset_equals_fresh(self, battery):
        values = RNG.uniform(0.0, 1.0, 300)
        probe = RNG.uniform(0.0, 1.0, 120)
        for used, fresh in zip(battery(), battery()):
            for v in values:
                used.update(v)
            used.reset()
            with pytest.raises(ValueError):
                used.forecast()  # nothing absorbed after reset
            for v in probe:
                used.update(v)
                fresh.update(v)
                assert used.forecast() == fresh.forecast(), used.name

    def test_adaptive_forecaster_reset_round_trip(self):
        values = RNG.uniform(0.0, 1.0, 200)
        used = AdaptiveForecaster()
        forecast_series(values, used)
        used.reset()
        _assert_identical(
            forecast_series(values, used),
            forecast_series(values, AdaptiveForecaster()),
            "reset mixture vs fresh mixture",
        )
