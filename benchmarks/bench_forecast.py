"""Forecast path benchmarks: batch speedup and streaming-path overhead.

Two contracts worth numbers:

* the vectorized batch engine (``forecast_series(values)``) must beat
  streaming a fresh mixture (``forecast_series(values,
  AdaptiveForecaster())``) by >= 10x on a day-long trace (86 400 samples,
  the paper's 10-second cadence) while staying bit-identical;
* the gap handling and telemetry added around the streaming loop must
  stay a fixed, small number of opcodes per sample (counted with
  ``sys.settrace``), on top of the bare loop ``forecast_series`` used to
  be, with bit-identical output.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from benchmarks.conftest import record, run_once
from repro.core.mixture import AdaptiveForecaster, _stream_gapped, forecast_series

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

    This is the reference the streaming path is compared with: the
    opcodes its gap handling and telemetry add per sample are counted.
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


#: Samples of the opcode-count gate's trace (seed 11).
OPCODE_SAMPLES = 2_000

#: Opcodes per sample allowed in the ``forecast_series`` and
#: ``_stream_gapped`` frames.  They read 32.05 on CPython 3.11 (the bare
#: loop above reads 18.0); one more opcode per sample fails the gate.
MAX_STREAM_OPCODES = 33.0


def _opcodes(fn, codes) -> tuple[int, object]:
    """Opcodes executed in frames of ``codes`` while ``fn()`` runs, and
    its result.  Callees (the forecaster's own ``update``/``forecast``)
    are not counted: both legs run them alike."""
    executed = 0

    def local(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return local

    def enter(frame, event, arg):
        if frame.f_code in codes:
            frame.f_trace_opcodes = True
            return local
        return None

    sys.settrace(enter)
    try:
        result = fn()
    finally:
        sys.settrace(None)
    return executed, result


def test_streaming_path_opcodes(benchmark):
    """Gap handling + telemetry add a fixed number of opcodes per sample.

    Counted, not timed: the count is exact on a given interpreter, where
    a ratio of two wall-clock timings moved by more than its budget from
    run to run on a shared machine.
    """
    values = _trace(OPCODE_SAMPLES, seed=11)
    stream_codes = {forecast_series.__code__, _stream_gapped.__code__}

    executed, streamed = run_once(
        benchmark,
        _opcodes,
        lambda: forecast_series(values, AdaptiveForecaster()),
        stream_codes,
    )
    bare, legacy = _opcodes(
        lambda: _legacy_forecast_series(values), {_legacy_forecast_series.__code__}
    )
    assert np.array_equal(legacy, streamed, equal_nan=True)
    per_sample = executed / OPCODE_SAMPLES
    print()
    print(f"bare loop {bare / OPCODE_SAMPLES:6.2f} opcodes/sample")
    print(f"stream    {per_sample:6.2f} opcodes/sample")
    record(
        "forecast_stream_opcodes_per_sample",
        per_sample,
        metric="opcodes_per_sample",
        unit="opcodes",
        budget=MAX_STREAM_OPCODES,
        direction="lower",
    )
    assert per_sample <= MAX_STREAM_OPCODES, (
        f"streaming path runs {per_sample:.2f} opcodes per sample in its own "
        f"frames, budget {MAX_STREAM_OPCODES}"
    )
