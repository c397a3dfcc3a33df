"""Vectorized forecaster backtesting engine (array-at-a-time, bit-identical).

Every headline artifact of the reproduction -- Tables 2/3/5, the horizon
and aggregation studies -- replays whole day-long traces through
:func:`repro.core.mixture.forecast_series`.  The streaming path drives all
battery members plus the mixture postdiction one Python method call per
sample per member; this module computes the same backtest array-at-a-time:

* sliding means and the running mean via cumulative sums;
* sliding medians and trimmed means via stride-tricks windowing plus
  ``np.partition`` / ``np.sort`` over the window axis;
* last value, exponential smoothing and gradient trackers via tight scalar
  recurrences (sequential by nature -- see below);
* adaptive windows via a compiled-loop fallback: the window length at step
  ``t`` depends on the forecast error at ``t``, so the control flow is
  inherently sequential, but the per-step estimate is O(1) (prefix sums for
  the mean, an incrementally maintained sorted window for the median)
  instead of the streaming path's object-protocol overhead;
* the mixture postdiction (windowed MAE scoring + first-argmin winner
  selection) as one cumulative-sum + ``argmin`` pass over the whole
  ``(n_samples, n_members)`` error matrix.

Parity guarantee
----------------
Outputs are **bit-identical** to the streaming path: every kernel performs
the same float operations in the same order as its streaming counterpart.
Two streaming kernels were reformulated (without changing their math) to
make that possible:

* :class:`repro.core.windows.RingMean` keeps its window sum as a prefix
  difference ``total - base``, matching ``cumsum[t] - cumsum[t-w]``
  (NumPy's ``cumsum`` accumulates strictly left-to-right);
* :class:`repro.core.forecasters.AdaptiveWindowMean` computes its estimate
  from the same prefix sums.

Members whose recurrences cannot be expressed as whole-array NumPy ops
(exponential smoothing, gradient trackers, the adaptive windows) keep the
streaming operation sequence inside a tight local loop here -- same ops,
same order, so the guarantee holds for them too; they simply vectorize
less.  The parity suite (``tests/test_core_batch.py``) asserts exact
equality per battery member and for the mixture winner sequence.

Metrics
-------
:func:`repro.core.mixture.forecast_series` runs this engine for the
default mixture (no forecaster given) and streams any forecaster
instance; it records the path taken and the wall time (not here), under:

* ``repro_forecast_engine_total`` (counter; label ``engine`` in
  ``batch|stream``) -- which engine served each call;
* ``repro_forecast_seconds`` (histogram; label ``engine``) -- wall time
  per ``forecast_series`` call, per engine.

Performance
-----------
On an 86 400-sample trace (ten days of 10-second measurements) with the
default 21-member battery, the batch engine is >= 10x faster than the
streaming path (``benchmarks/bench_forecast.py`` enforces this).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.forecasters import (
    AdaptiveWindowMean,
    AdaptiveWindowMedian,
    ExponentialSmoothing,
    Forecaster,
    GradientTracker,
    LastValue,
    RunningMean,
    SlidingMean,
    SlidingMedian,
    TrimmedMeanWindow,
)

__all__ = [
    "BatchUnsupported",
    "supports_batch",
    "member_forecasts",
    "MixtureBacktest",
    "mixture_backtest",
]


class BatchUnsupported(ValueError):
    """The forecaster has no batch kernel."""


# --------------------------------------------------------------------------
# Per-member kernels
#
# Every kernel takes ``(forecaster, values)`` and returns the full
# one-step-ahead forecast array ``F`` with ``F[0] = NaN`` and ``F[t]`` the
# member's forecast after absorbing ``values[:t]`` -- exactly what the
# streaming update/forecast cadence produces.
# --------------------------------------------------------------------------

def _last_value(f: LastValue, v: np.ndarray) -> np.ndarray:
    out = np.empty(v.size)
    out[0] = np.nan
    out[1:] = v[:-1]
    return out


def _running_mean(f: RunningMean, v: np.ndarray) -> np.ndarray:
    out = np.empty(v.size)
    out[0] = np.nan
    cs = np.cumsum(v)
    out[1:] = cs[:-1] / np.arange(1, v.size)
    return out


def _sliding_mean(f: SlidingMean, v: np.ndarray) -> np.ndarray:
    w, n = f.window, v.size
    out = np.empty(n)
    out[0] = np.nan
    cs = np.cumsum(v)
    num = cs.copy()
    num[w:] = cs[w:] - cs[:-w]
    den = np.minimum(np.arange(1, n + 1), w)
    out[1:] = num[:-1] / den[:-1]
    return out


def _window_medians(v: np.ndarray, w: int, out: np.ndarray) -> None:
    """Fill ``out[t]`` (t >= 1) with the median of ``v[max(0, t-w):t]``.

    The even-length case uses ``0.5 * (a + b)`` over the two middle order
    statistics -- the exact expression of :class:`~repro.core.windows.
    RingMedian.median` (scaling by 0.5 is exact in IEEE754, so any
    equivalent form would match; this one matches textually too).
    """
    n = v.size
    for t in range(1, min(w, n)):
        tail = np.sort(v[:t])
        mid = t // 2
        out[t] = tail[mid] if t % 2 else 0.5 * (tail[mid - 1] + tail[mid])
    if n > w:
        windows = sliding_window_view(v, w)[:-1]
        mid = w // 2
        if w % 2:
            part = np.partition(windows, mid, axis=1)
            out[w:] = part[:, mid]
        else:
            part = np.partition(windows, (mid - 1, mid), axis=1)
            out[w:] = 0.5 * (part[:, mid - 1] + part[:, mid])


def _sliding_median(f: SlidingMedian, v: np.ndarray) -> np.ndarray:
    out = np.empty(v.size)
    out[0] = np.nan
    _window_medians(v, f.window, out)
    return out


def _trimmed_mean(f: TrimmedMeanWindow, v: np.ndarray) -> np.ndarray:
    w, trim, n = f.window, f.trim, v.size
    out = np.empty(n)
    out[0] = np.nan
    for t in range(1, min(w, n)):
        tail = sorted(v[:t].tolist())
        kept = tail[trim : t - trim] if t > 2 * trim else tail
        out[t] = sum(kept) / len(kept)
    if n > w:
        windows = np.sort(sliding_window_view(v, w)[:-1], axis=1)
        # Accumulate kept columns left-to-right: the same addition order as
        # the streaming ``sum(kept)`` over the sorted window.
        acc = windows[:, trim] + 0.0
        for j in range(trim + 1, w - trim):
            acc += windows[:, j]
        out[w:] = acc / (w - 2 * trim)
    return out


def _exp_smooth(f: ExponentialSmoothing, v: np.ndarray) -> np.ndarray:
    gain = f.gain
    values = v.tolist()
    state = values[0]
    out = [0.0]
    append = out.append
    for x in values[1:]:
        append(state)
        state += gain * (x - state)
    result = np.asarray(out)
    result[0] = np.nan
    return result


def _gradient(f: GradientTracker, v: np.ndarray) -> np.ndarray:
    step = f.step
    values = v.tolist()
    state = values[0]
    out = [0.0]
    append = out.append
    # ``x if x < moved else moved`` spells out min()/max() -- same result,
    # no per-step builtin call in the hot loop.
    for x in values[1:]:
        append(state)
        if x > state:
            moved = state + step
            state = x if x < moved else moved
        elif x < state:
            moved = state - step
            state = x if x > moved else moved
    result = np.asarray(out)
    result[0] = np.nan
    return result


def _adaptive_mean(f: AdaptiveWindowMean, v: np.ndarray) -> np.ndarray:
    n = v.size
    lo, hi, tol, shrink = f.min_window, f.max_window, f.tolerance, f.shrink
    # prefix[k] = sum of v[:k], built by the same left-to-right additions
    # as the streaming forecaster's _cum list.
    prefix = [0.0]
    prefix.extend(np.cumsum(v).tolist())
    values = v.tolist()
    out = [0.0] * n
    window = lo
    estimate = values[0]  # after the first update: mean of [v[0]]
    for t in range(1, n):
        out[t] = estimate
        x = values[t]
        if abs(estimate - x) > tol:
            window = max(lo, int(window * shrink))
        elif window < hi:
            window += 1
        length = t + 1
        k = window if window < length else length
        estimate = (prefix[length] - prefix[length - k]) / k
    result = np.asarray(out)
    result[0] = np.nan
    return result


def _adaptive_median(f: AdaptiveWindowMedian, v: np.ndarray) -> np.ndarray:
    n = v.size
    lo, hi, tol, shrink = f.min_window, f.max_window, f.tolerance, f.shrink
    values = v.tolist()
    out = [0.0] * n
    window = lo
    estimate = values[0]
    # Sorted view of the current window, maintained incrementally: the
    # window is always a suffix of the history whose start index only ever
    # moves forward, so eviction is amortized O(1) removals.
    window_sorted = [values[0]]
    start = 0
    for t in range(1, n):
        out[t] = estimate
        x = values[t]
        if abs(estimate - x) > tol:
            window = max(lo, int(window * shrink))
        elif window < hi:
            window += 1
        insort(window_sorted, x)
        length = t + 1
        k = window if window < length else length
        new_start = length - k
        while start < new_start:
            del window_sorted[bisect_left(window_sorted, values[start])]
            start += 1
        mid = k // 2
        if k % 2:
            estimate = window_sorted[mid]
        else:
            estimate = 0.5 * (window_sorted[mid - 1] + window_sorted[mid])
    result = np.asarray(out)
    result[0] = np.nan
    return result


#: Exact-type dispatch: a subclass may override update/forecast, so only
#: the concrete battery classes are batch-eligible.
_KERNELS = {
    LastValue: _last_value,
    RunningMean: _running_mean,
    SlidingMean: _sliding_mean,
    SlidingMedian: _sliding_median,
    TrimmedMeanWindow: _trimmed_mean,
    ExponentialSmoothing: _exp_smooth,
    GradientTracker: _gradient,
    AdaptiveWindowMean: _adaptive_mean,
    AdaptiveWindowMedian: _adaptive_median,
}


def supports_batch(forecaster: Forecaster) -> bool:
    """Whether ``forecaster`` has a batch kernel (state is not checked)."""
    return type(forecaster) in _KERNELS


def member_forecasts(forecaster: Forecaster, values: np.ndarray) -> np.ndarray:
    """One-step-ahead forecasts of a single battery member, vectorized.

    ``values`` must be an all-finite 1-D float64 array.  The forecaster
    instance supplies parameters only; its streaming state is neither
    read nor mutated, so the forecasts are those of a fresh instance.

    Raises
    ------
    BatchUnsupported
        If the forecaster's exact type has no batch kernel.
    """
    kernel = _KERNELS.get(type(forecaster))
    if kernel is None:
        raise BatchUnsupported(
            f"no batch kernel for {type(forecaster).__name__}; stream it "
            "with repro.core.mixture.forecast_series(values, forecaster)"
        )
    return kernel(forecaster, values)


# --------------------------------------------------------------------------
# Mixture postdiction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MixtureBacktest:
    """Whole-series backtest of the NWS adaptive mixture.

    Attributes
    ----------
    forecasts:
        The mixture's one-step-ahead forecast series (``forecasts[0]`` is
        NaN), bit-identical to replaying the streaming
        :class:`~repro.core.mixture.AdaptiveForecaster`.
    winners:
        Index of the member whose forecast was reported at each step
        (``winners[0] = -1``: nothing was forecast for the first sample).
    names:
        Member names, indexing ``winners`` and ``member_forecasts``
        columns.
    member_forecasts:
        Per-member forecast matrix, shape ``(n_samples, n_members)``.
    n_switches:
        How many times the postdiction winner changed -- the same count
        the streaming bank's switch telemetry accumulates.
    """

    forecasts: np.ndarray
    winners: np.ndarray
    names: tuple[str, ...]
    member_forecasts: np.ndarray
    n_switches: int


def mixture_backtest(
    values: np.ndarray,
    forecasters: list[Forecaster],
    *,
    error_window: int = 50,
) -> MixtureBacktest:
    """Vectorized replay of :class:`~repro.core.mixture.ForecasterBank`.

    Scores every member's one-step-ahead error over a sliding
    ``error_window``, selects the winner by first-argmin of the windowed
    MAE (the bank's strict ``<`` scan keeps the earliest member on ties,
    which is exactly what ``np.argmin`` returns), and reports the
    *previous* winner's forecast at each step -- the bank updates its
    winner after scoring the new measurement, so the forecast for sample
    ``t`` comes from the winner as of sample ``t - 1``.

    All members must be batch-supported (:func:`supports_batch`); their
    streaming state is neither read nor mutated.
    """
    if not forecasters:
        raise ValueError("need at least one forecaster")
    n = values.size
    matrix = np.empty((n, len(forecasters)))
    for i, member in enumerate(forecasters):
        matrix[:, i] = member_forecasts(member, values)
    names = tuple(f.name for f in forecasters)

    forecasts = np.empty(n)
    forecasts[0] = np.nan
    winners = np.full(n, -1, dtype=np.int64)
    if n == 1:
        return MixtureBacktest(forecasts, winners, names, matrix, 0)

    errors = matrix[1:] - values[1:, None]
    np.abs(errors, out=errors)
    cum = np.cumsum(errors, axis=0, out=errors)
    windowed = np.empty_like(cum)
    windowed[:error_window] = cum[:error_window]
    np.subtract(cum[error_window:], cum[:-error_window], out=windowed[error_window:])
    counts = np.minimum(np.arange(1, n), error_window)
    np.divide(windowed, counts[:, None], out=windowed)
    # best[r] = winner after scoring sample r+1 (the bank's post-update
    # scan); the forecast for sample t uses the winner after sample t-1,
    # which is member 0 before any scoring.
    best = np.argmin(windowed, axis=1)
    previous = np.empty(n - 1, dtype=np.int64)
    previous[0] = 0
    previous[1:] = best[:-1]
    forecasts[1:] = matrix[np.arange(1, n), previous]
    winners[1:] = previous
    n_switches = int(np.count_nonzero(np.diff(np.concatenate(([0], best)))))
    return MixtureBacktest(forecasts, winners, names, matrix, n_switches)
