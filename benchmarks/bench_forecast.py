"""Forecast path benchmarks: batch speedup and streaming-path overhead.

Two contracts worth numbers (ISSUE 4's acceptance bar):

* the vectorized batch engine (``forecast_series(values)``) must beat
  streaming a fresh mixture (``forecast_series(values,
  AdaptiveForecaster())``) by >= 10x on a day-long trace (86 400 samples,
  the paper's 10-second cadence) while staying bit-identical;
* the gap handling and telemetry added around the streaming loop must
  cost < 5 % versus the bare loop ``forecast_series`` used to be.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.core.mixture import AdaptiveForecaster, forecast_series

#: Ten days of 10-second measurements (one day is 8,640 samples, the
#: period of the trace's sine).
DAY_SAMPLES = 86_400


def _trace(n: int, seed: int = 7) -> np.ndarray:
    """A testbed-like availability trace: diurnal swell plus sensor noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return np.clip(
        0.6
        + 0.3 * np.sin(2.0 * np.pi * t / 8640.0)
        + rng.normal(0.0, 0.02, n),
        0.0,
        1.0,
    )


def _legacy_forecast_series(values: np.ndarray) -> np.ndarray:
    """The pre-engine ``forecast_series`` body: a bare streaming loop.

    This is the reference the streaming path is measured against -- the
    gap handling and telemetry wrapped around it must stay in the noise.
    """
    model = AdaptiveForecaster()
    out = np.empty(values.size)
    out[0] = np.nan
    model.update(values[0])
    for t in range(1, values.size):
        out[t] = model.forecast()
        model.update(values[t])
    return out


def _best_of(fn, rounds: int) -> tuple[float, np.ndarray]:
    result = None
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_batch_speedup(benchmark):
    """Batch >= 10x over streaming on a ten-day trace, bit-identical."""
    values = _trace(DAY_SAMPLES)

    start = time.perf_counter()
    streamed = run_once(
        benchmark, lambda: forecast_series(values, AdaptiveForecaster())
    )
    stream_s = time.perf_counter() - start

    batch_s, batched = _best_of(lambda: forecast_series(values), 3)

    assert np.array_equal(streamed, batched, equal_nan=True)
    speedup = stream_s / batch_s
    print()
    print(f"stream {stream_s:8.3f} s")
    print(f"batch  {batch_s:8.3f} s   speedup {speedup:.1f}x")
    assert speedup >= 10.0, f"batch speedup {speedup:.1f}x < 10x"


#: Rounds of the streaming-overhead gate; each times both legs once.
OVERHEAD_ROUNDS = 7


def test_streaming_overhead(benchmark):
    """Gap handling + telemetry cost < 5 % on the streaming path.

    The two legs alternate round by round, and each keeps its best of
    ``OVERHEAD_ROUNDS``: a machine that slows down for a while slows
    both legs alike instead of the one that happened to run then.
    """
    values = _trace(20_000, seed=11)

    def measured():
        legacy_s = stream_s = float("inf")
        for _ in range(OVERHEAD_ROUNDS):
            seconds, legacy = _best_of(lambda: _legacy_forecast_series(values), 1)
            legacy_s = min(legacy_s, seconds)
            seconds, streamed = _best_of(
                lambda: forecast_series(values, AdaptiveForecaster()), 1
            )
            stream_s = min(stream_s, seconds)
        return legacy_s, legacy, stream_s, streamed

    legacy_s, legacy, stream_s, streamed = run_once(benchmark, measured)
    assert np.array_equal(legacy, streamed, equal_nan=True)
    overhead = stream_s / legacy_s - 1.0
    print()
    print(f"bare loop {legacy_s:8.3f} s")
    print(f"stream    {stream_s:8.3f} s   overhead {100 * overhead:+.1f}%")
    assert overhead < 0.05, f"streaming path {100 * overhead:.1f}% slower than bare loop"
