"""The NWS adaptive forecaster mixture (dynamic model identification).

Rather than committing to a single model, the NWS runs every forecaster in
its battery on every series and, at each step, *postdicts*: it scores each
forecaster by its error over the recent measurements and reports the
forecast of the current winner.  Wolski '98 showed this dynamic choice is
as accurate as -- or slightly better than -- the best fixed forecaster in
the set, without knowing in advance which that is.  This module implements
that mixture plus a static bank used by the ablation benchmarks.

A forecast service keeps one mixture per series for as long as it serves
the series, so a bank's state is laid out to grow with what it has
scored: every member's recent errors live in one flat ``array('d')`` ring
of error rows (one row per scored measurement, at most ``error_window``
rows), beside two per-member lists of prefix sums, rather than in one
window object per member; and the winner changes are an exact count plus
a bounded list of the most recent events (:data:`SWITCH_HISTORY`).

The streaming mixture is plain Python.  numpy and the batch engine are
imported by :func:`forecast_series` alone, so a forecast server, which
only streams updates, never loads them.
"""

from __future__ import annotations

import time
from array import array
from typing import TYPE_CHECKING

from repro.core.forecasters import Forecaster, default_battery
from repro.obs.metrics import get_registry

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_ERROR_WINDOW",
    "ForecasterBank",
    "AdaptiveForecaster",
    "default_mixture_record",
    "forecast_series",
]

#: Recent errors that define "recently most accurate" when none is given.
DEFAULT_ERROR_WINDOW = 50

#: Winner changes a bank keeps as events (:attr:`ForecasterBank.
#: switch_events`); :attr:`ForecasterBank.n_switches` counts every one.
SWITCH_HISTORY = 32

#: Wall-time buckets for ``repro_forecast_seconds`` -- day-long traces take
#: ~100 ms batched and a few seconds streamed.
_ENGINE_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)


class ForecasterBank:
    """Runs a battery of forecasters in lock-step over one series.

    Tracks, for every member, its running mean absolute error over a
    sliding window of recent one-step-ahead forecasts (one shared ring of
    error rows; see the module docstring).  Subclassed /
    wrapped by :class:`AdaptiveForecaster`; also useful directly for
    head-to-head forecaster comparisons (see
    ``benchmarks/bench_ablation_mixture.py``).

    Parameters
    ----------
    forecasters:
        Battery members; defaults to :func:`repro.core.forecasters.
        default_battery`.
    error_window:
        Number of recent errors that define "recently most accurate"
        (the NWS default horizon is tens of measurements; we use 50).
    """

    def __init__(
        self,
        forecasters: list[Forecaster] | None = None,
        *,
        error_window: int = DEFAULT_ERROR_WINDOW,
    ):
        self._forecasters = list(forecasters) if forecasters is not None else default_battery()
        if not self._forecasters:
            raise ValueError("need at least one forecaster")
        names = [f.name for f in self._forecasters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate forecaster names in battery: {names}")
        if error_window < 1:
            raise ValueError(f"error_window must be >= 1, got {error_window}")
        self._window = int(error_window)
        # One row of the ring holds one error per member; once ``_rows``
        # reaches the window, ``_head`` is the oldest row, overwritten in
        # place.  Each member's window sum is in RingMean's prefix form --
        # ``_total`` sums every error scored, ``_base`` every error
        # evicted -- so the recent MAE ``(_total - _base) / _rows`` takes
        # the same float operations as a RingMean per member would.
        self._ring = array("d")
        self._rows = 0
        self._head = 0
        self._total = [0.0 for _ in self._forecasters]
        self._base = [0.0 for _ in self._forecasters]
        self._pending: list[float] | None = None
        self._count = 0
        # Telemetry: cumulative absolute error and win counts per member,
        # and the winner changes: an exact count plus the most recent
        # SWITCH_HISTORY events.  ``_best`` caches the current winner's
        # index so :meth:`best_name` is O(1) -- the scan happens once per
        # update, where the sums are already hot.
        self._cum_abs = [0.0 for _ in self._forecasters]
        self._n_scored = 0
        self._wins = [0 for _ in self._forecasters]
        self._best = 0
        self._n_switches = 0
        self._switches: list[tuple[int, str, str]] = []
        registry = get_registry()
        self._obs_updates = registry.counter("repro_forecaster_updates_total")
        self._obs_switches = registry.counter("repro_forecaster_switches_total")

    @property
    def forecasters(self) -> list[Forecaster]:
        return list(self._forecasters)

    @property
    def names(self) -> list[str]:
        return [f.name for f in self._forecasters]

    @property
    def n_updates(self) -> int:
        """Number of measurements absorbed so far (gaps excluded)."""
        return self._count

    def update(self, value: float) -> None:
        """Absorb a measurement: score pending forecasts, then refit.

        The scoring happens *before* the forecasters see the new value, so
        each error is an honest out-of-sample one-step-ahead error.

        A NaN value marks a *gap* -- a reading that was lost in flight --
        and is skipped entirely: no member sees it, nothing is scored,
        pending forecasts are held.  The next finite value is forecast
        from the state as of the last finite one (hold-last /
        skip-update; the batch engine mirrors this exactly).
        """
        value = float(value)
        if value != value:
            return
        scored = self._pending is not None
        if scored:
            ring, total, cum_abs = self._ring, self._total, self._cum_abs
            if self._rows < self._window:
                for i, predicted in enumerate(self._pending):
                    err = abs(predicted - value)
                    ring.append(err)
                    total[i] += err
                    cum_abs[i] += err
                self._rows += 1
            else:
                base = self._base
                j = self._head * len(total)
                for i, predicted in enumerate(self._pending):
                    err = abs(predicted - value)
                    total[i] += err
                    # Replaying the prefix sum keeps _base on the exact
                    # float trajectory _total took when the evicted error
                    # was scored.
                    base[i] += ring[j]
                    ring[j] = err
                    cum_abs[i] += err
                    j += 1
                self._head = self._head + 1 if self._head + 1 < self._window else 0
            self._n_scored += 1
        for forecaster in self._forecasters:
            forecaster.update(value)
        self._pending = [f.forecast() for f in self._forecasters]
        self._count += 1
        self._obs_updates.inc()
        if scored:
            rows = self._rows
            best = 0
            best_error = float("inf")
            for i, (summed, evicted) in enumerate(zip(self._total, self._base)):
                error = (summed - evicted) / rows
                if error < best_error:
                    best_error = error
                    best = i
            self._wins[best] += 1
            if best != self._best:
                self._n_switches += 1
                self._switches.append(
                    (
                        self._count,
                        self._forecasters[self._best].name,
                        self._forecasters[best].name,
                    )
                )
                if len(self._switches) > SWITCH_HISTORY:
                    del self._switches[0]
                self._best = best
                self._obs_switches.inc()

    def forecasts(self) -> dict[str, float]:
        """Current one-step-ahead forecast of every battery member."""
        if self._pending is None:
            raise ValueError("no measurements yet")
        return dict(zip(self.names, self._pending))

    def recent_errors(self) -> dict[str, float]:
        """Recent MAE of every member (NaN until a member has been scored)."""
        rows = self._rows
        out = {}
        for forecaster, summed, evicted in zip(self._forecasters, self._total, self._base):
            out[forecaster.name] = (summed - evicted) / rows if rows else float("nan")
        return out

    def best_name(self) -> str:
        """Name of the member with the lowest recent MAE.

        Before any member has been scored (fewer than two measurements),
        returns the first member -- matching the NWS behaviour of defaulting
        to the head of its battery.
        """
        if self._pending is None:
            raise ValueError("no measurements yet")
        return self._forecasters[self._best].name

    @property
    def n_switches(self) -> int:
        """Winner changes so far (exact, however many there were)."""
        return self._n_switches

    @property
    def switch_events(self) -> list[tuple[int, str, str]]:
        """The most recent winner changes, oldest first.

        ``(update_index, old, new)`` tuples, at most
        :data:`SWITCH_HISTORY` of them: a long-lived series changes
        winner hundreds of times a day, so older events are dropped and
        only :attr:`n_switches` counts them all.
        """
        return list(self._switches)

    def telemetry(self) -> dict[str, dict[str, float]]:
        """Per-member accuracy standings.

        Returns ``{member: {"cumulative_mae", "recent_mae", "wins",
        "n_scored"}}``.  ``cumulative_mae`` averages *every* scored
        one-step-ahead error since construction (NaN before any scoring);
        ``recent_mae`` is the sliding-window view :meth:`best_name` ranks
        by; ``wins`` counts how many updates each member finished on top.
        """
        recent = self.recent_errors()
        out: dict[str, dict[str, float]] = {}
        for i, forecaster in enumerate(self._forecasters):
            out[forecaster.name] = {
                "cumulative_mae": (
                    self._cum_abs[i] / self._n_scored
                    if self._n_scored
                    else float("nan")
                ),
                "recent_mae": recent[forecaster.name],
                "wins": self._wins[i],
                "n_scored": self._n_scored,
            }
        return out


class AdaptiveForecaster(Forecaster):
    """The NWS mixture: forecast with the recently-most-accurate member.

    Implements the :class:`~repro.core.forecasters.Forecaster` interface so
    it can be used anywhere an individual forecaster can -- including inside
    comparisons against its own members.

    Parameters
    ----------
    forecasters, error_window:
        Passed to :class:`ForecasterBank`.
    """

    name = "nws_adaptive"

    __slots__ = ("_bank", "_error_window")

    def __init__(
        self,
        forecasters: list[Forecaster] | None = None,
        *,
        error_window: int = DEFAULT_ERROR_WINDOW,
    ):
        self._bank = ForecasterBank(forecasters, error_window=error_window)
        self._error_window = error_window

    @property
    def bank(self) -> ForecasterBank:
        return self._bank

    def update(self, value: float) -> None:
        self._bank.update(value)

    def forecast(self) -> float:
        winner = self._bank.best_name()
        return self._bank.forecasts()[winner]

    def chosen_name(self) -> str:
        """Which member the next :meth:`forecast` will come from."""
        return self._bank.best_name()

    def telemetry(self) -> dict[str, dict[str, float]]:
        """Per-member standings; see :meth:`ForecasterBank.telemetry`."""
        return self._bank.telemetry()

    @property
    def n_switches(self) -> int:
        """Winner changes; see :attr:`ForecasterBank.n_switches`."""
        return self._bank.n_switches

    @property
    def switch_events(self) -> list[tuple[int, str, str]]:
        """Recent winner changes; see :attr:`ForecasterBank.switch_events`."""
        return self._bank.switch_events

    def forecast_with_error(self) -> tuple[float, float]:
        """Forecast plus an empirical error bar.

        The error bar is the winning member's mean absolute error over the
        recent scoring window -- the same quantity the NWS ships alongside
        each prediction so schedulers can weigh forecasts by reliability.
        Returns ``(forecast, error)``; the error is NaN until the winner
        has been scored at least once.
        """
        winner = self._bank.best_name()
        return self._bank.forecasts()[winner], self._bank.recent_errors()[winner]

    def reset(self) -> None:
        for f in self._bank.forecasters:
            f.reset()
        self._bank = ForecasterBank(
            self._bank.forecasters, error_window=self._error_window
        )


def _stream_gapped(model: Forecaster, arr: np.ndarray) -> np.ndarray:
    """Streaming engine over a NaN-gapped series (hold-last / skip-update).

    ``out[t]`` is the forecast made from the *finite prefix* of
    ``values[:t]``; NaN updates are skipped, and the output stays NaN
    until the model has absorbed at least one finite measurement.
    """
    import numpy as np

    out = np.full(arr.size, np.nan)
    seen = 0
    for t in range(arr.size):
        if t and seen:
            out[t] = model.forecast()
        v = arr[t]
        if v == v:
            model.update(v)
            seen += 1
    return out


def _batch_gapped(arr: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """The default mixture, batched, over a NaN-gapped series.

    Bit-identical to streaming a fresh :class:`AdaptiveForecaster`.  Gap
    compression: run the kernel over the finite subsequence ``comp``,
    then scatter ``out[t] = F[k_t]`` where ``k_t`` counts finite values
    before ``t`` -- the forecast state at ``t`` is exactly the finite
    prefix, which *is* the hold-last / skip-update semantics of the
    streaming path.  A trailing NaN needs ``F[m]`` (the forecast after
    *all* finite values), and kernels only emit forecasts made before
    their last input, so one dummy value is appended; ``F[m]`` provably
    never depends on it (``F[j]`` is a function of ``values[:j]`` alone).
    """
    import numpy as np

    from repro.core.batch import mixture_backtest

    comp = arr[finite]
    if comp.size == 0:
        return np.full(arr.size, np.nan)
    run = comp if finite[-1] else np.append(comp, comp[-1])
    result = mixture_backtest(
        run, default_battery(), error_window=DEFAULT_ERROR_WINDOW
    )
    registry = get_registry()
    registry.counter("repro_forecaster_updates_total").inc(run.size)
    registry.counter("repro_forecaster_switches_total").inc(result.n_switches)
    k = np.cumsum(finite) - finite
    return result.forecasts[k]


def default_mixture_record() -> dict:
    """What a default :func:`forecast_series` depends on besides its input.

    The member names of the default battery and the scoring window, as
    plain JSON: a stored forecast whose record differs from this one was
    made by another mixture and must be recomputed.
    """
    return {
        "error_window": DEFAULT_ERROR_WINDOW,
        "members": [member.name for member in default_battery()],
    }


def forecast_series(values, forecaster: Forecaster | None = None) -> np.ndarray:
    """One-step-ahead forecasts over a whole series.

    ``result[t]`` is the forecast for ``values[t]`` made after seeing
    ``values[:t]``; ``result[0]`` is NaN (nothing to forecast from), so
    error metrics should be computed over ``result[1:]`` vs ``values[1:]``.

    NaN entries mark *gaps* (readings lost in flight -- see
    :mod:`repro.faults`): the forecaster skips them without updating, so
    ``result[t]`` is the forecast from the finite prefix of
    ``values[:t]``, NaN until the first finite value has been seen.
    Infinite entries are rejected.

    Parameters
    ----------
    values:
        1-D array-like of measurements (NaN = gap).
    forecaster:
        ``None`` (default) backtests the default mixture with the
        vectorized engine (:mod:`repro.core.batch`), bit-identical to
        streaming a fresh :class:`AdaptiveForecaster` and >= 10x faster
        on day-long traces.  Any :class:`Forecaster` instance is streamed
        one update at a time instead, so it absorbs the series and its
        telemetry can be inspected afterwards.

    Returns
    -------
    numpy.ndarray
        Same length as ``values``.
    """
    import numpy as np

    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("values must be a non-empty 1-D array")
    finite = np.isfinite(arr)
    gapped = not finite.all()
    if gapped and np.isinf(arr).any():
        raise ValueError("values contains infinite entries")
    engine = "batch" if forecaster is None else "stream"
    registry = get_registry()
    registry.counter("repro_forecast_engine_total", engine=engine).inc()
    if gapped:
        registry.counter("repro_forecast_gap_steps_total").inc(
            int(arr.size - np.count_nonzero(finite))
        )
    start = time.perf_counter()
    if forecaster is None:
        out = _batch_gapped(arr, finite)
    else:
        out = _stream_gapped(forecaster, arr)
    elapsed = time.perf_counter() - start
    registry.histogram(
        "repro_forecast_seconds", buckets=_ENGINE_BUCKETS, engine=engine
    ).observe(elapsed)
    return out
