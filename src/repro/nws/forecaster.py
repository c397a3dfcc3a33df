"""NWS forecaster service: prediction queries over memory-held histories.

A forecaster fetches a series' history from a memory, runs the adaptive
mixture over it, and answers queries with the prediction, an empirical
error bar (the winning method's recent MAE -- exactly what the real NWS
attaches to every forecast), and the name of the method that produced it.
Forecast state is cached per series and advanced incrementally, so
repeated queries cost only the new measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.mixture import AdaptiveForecaster
from repro.nws.errors import SeriesUnavailable
from repro.nws.memory import MemoryStore
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer

__all__ = ["ForecasterService", "ForecastReport"]

#: Error bars stop widening at this factor -- beyond it the forecast is
#: advertising "stale" as loudly as it usefully can.
MAX_ERROR_WIDENING = 32.0


@dataclass(frozen=True)
class ForecastReport:
    """Answer to one prediction query.

    Attributes
    ----------
    series:
        Series name the forecast is for.
    forecast:
        Predicted next measurement (clamped to [0, 1] by the caller if the
        series is an availability).
    error:
        Empirical error bar: the chosen method's MAE over its recent
        scoring window (NaN until scored).
    method:
        Name of the battery member that produced the forecast.
    n_measurements:
        History length the forecast is based on.
    as_of:
        Timestamp of the newest measurement consumed.
    horizon:
        Measurement steps ahead the forecast targets (default 1).  The
        NWS battery predicts the next measurement; for longer horizons
        the one-step estimate is held unless the mixture implements
        ``forecast_horizon`` (e.g. the aggregated
        :class:`~repro.core.predictor.NWSPredictor` surface).
    stale:
        True when the report is served degraded: either the series' data
        is older than the service's staleness horizon, or the series
        became unavailable and this is the last-known-good forecast.
        Either way the error bar has been widened (doubling per lapsed
        staleness period, capped at :data:`MAX_ERROR_WIDENING`).
    """

    series: str
    forecast: float
    error: float
    method: str
    n_measurements: int
    as_of: float
    stale: bool = False
    horizon: int = 1


class ForecasterService:
    """Serves NWS-mixture forecasts for every series in a memory.

    Parameters
    ----------
    memory:
        The measurement store to read from.
    forecaster_factory:
        Callable producing a fresh mixture per series (default:
        :class:`~repro.core.mixture.AdaptiveForecaster`).
    clock / stale_after:
        Optional staleness detection: when both are set and a queried
        series' newest measurement is older than ``stale_after`` seconds
        of ``clock()``, the report is marked stale and its error bar is
        widened (doubling per lapsed period, capped).  The forecast value
        itself is held at last-known-good -- a sensor going quiet is
        exactly when schedulers still need *an* answer, with honest
        uncertainty attached.
    """

    def __init__(
        self,
        memory: MemoryStore,
        forecaster_factory=None,
        *,
        clock=None,
        stale_after: float | None = None,
    ):
        if stale_after is not None and stale_after <= 0.0:
            raise ValueError(f"stale_after must be positive, got {stale_after}")
        self.memory = memory
        self._factory = (
            forecaster_factory if forecaster_factory is not None else AdaptiveForecaster
        )
        self._clock = clock
        self._stale_after = stale_after
        self._mixtures: dict[str, AdaptiveForecaster] = {}
        self._consumed: dict[str, int] = {}
        self._last_time: dict[str, float] = {}
        self._last_good: dict[str, ForecastReport] = {}
        self._degraded_streak: dict[str, int] = {}
        registry = get_registry()
        self._obs_queries = registry.counter("repro_forecaster_queries_total")
        self._obs_degraded = registry.counter("repro_forecaster_degraded_total")
        # One collect-style callback for the whole service: per-series,
        # per-member standings are pulled from the persistent mixtures at
        # snapshot time, so the update path pays nothing for them.
        registry.register_callback(self._collect_telemetry)

    def _collect_telemetry(self, registry) -> None:
        for series in sorted(self._mixtures):
            mixture = self._mixtures[series]
            report = getattr(mixture, "telemetry", None)
            if not callable(report):
                continue
            for member, stats in report().items():
                labels = {"series": series, "member": member}
                registry.gauge("repro_forecaster_wins", **labels).set(stats["wins"])
                for stat, metric in (
                    ("cumulative_mae", "repro_forecaster_cumulative_mae"),
                    ("recent_mae", "repro_forecaster_recent_mae"),
                ):
                    value = stats[stat]
                    if value == value:  # skip NaN (nothing scored yet)
                        registry.gauge(metric, **labels).set(value)
            switches = getattr(mixture, "n_switches", None)
            if switches is not None:
                registry.gauge("repro_forecaster_switches", series=series).set(
                    switches
                )

    def _advance(self, series: str) -> None:
        # Read only the unconsumed tail: a query costs O(new samples),
        # however much history the memory retains.
        count, newest, fresh = self.memory.tail(
            series, self._consumed.get(series, 0)
        )
        mixture = self._mixtures.get(series)
        if mixture is None:
            mixture = self._mixtures[series] = self._factory()
        for v in fresh:
            mixture.update(v)
        # Known issue: once the memory is full, every publish evicts one
        # sample, so ``count`` stays at capacity, the tail past
        # ``consumed`` is empty and new samples never reach the mixture.
        self._consumed[series] = count
        if count:
            self._last_time[series] = newest

    def invalidate(self, series: str) -> bool:
        """Drop all per-series forecaster state; rebuilt on next query.

        Retention compaction calls this after rewriting a series'
        history: the next :meth:`query` replays the *retained* samples
        through a fresh mixture, making the forecast a pure function of
        retained history.  That is what lets a crash-restored server
        (journal replay through fresh mixtures) produce byte-identical
        forecasts to an uninterrupted one even across compactions.
        Returns whether any state existed.
        """
        existed = series in self._mixtures
        self._mixtures.pop(series, None)
        self._consumed.pop(series, None)
        self._last_time.pop(series, None)
        self._last_good.pop(series, None)
        self._degraded_streak.pop(series, None)
        return existed

    def query(self, series: str, *, horizon: int = 1) -> ForecastReport:
        """Forecast for ``series``, ``horizon`` measurement steps ahead.

        The keyword name matches :meth:`repro.nws.client.NWSClient.query`
        exactly -- one query signature across the whole stack.  The NWS
        battery is a one-step predictor, so for ``horizon > 1`` the
        one-step estimate is held unless the mixture implements a
        ``forecast_horizon(h)`` method (the aggregated predictor surface
        used by :class:`~repro.schedapp.grid.SimGrid` does).

        Degrades instead of failing wherever it honestly can: if the
        series has vanished from the memory but was forecast before, the
        last-known-good report is served with a widened error bar and
        ``stale=True``; if the series' data is merely old (see
        ``stale_after``), the fresh forecast is served stale-marked with
        the error widened by the elapsed staleness periods.

        Raises
        ------
        SeriesUnavailable
            Unknown series with no last-known-good forecast to fall back
            on.
        ValueError
            Series exists but holds no (finite) measurements yet, or
            ``horizon`` is not a positive integer.
        """
        horizon = int(horizon)
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        with get_tracer().span("nws.query", series=series):
            try:
                self._advance(series)
            except SeriesUnavailable:
                base = self._last_good.get(series)
                if base is None:
                    raise
                self._obs_queries.inc()
                return self._degrade(series, replace(base, horizon=horizon))
            self._obs_queries.inc()
            mixture = self._mixtures[series]
            forecast, error = mixture.forecast_with_error()
            if horizon > 1:
                forecast_horizon = getattr(mixture, "forecast_horizon", None)
                if callable(forecast_horizon):
                    forecast = float(forecast_horizon(horizon))
            report = ForecastReport(
                series=series,
                forecast=forecast,
                error=error,
                method=mixture.chosen_name(),
                n_measurements=self._consumed[series],
                as_of=self._last_time.get(series, float("nan")),
                horizon=horizon,
            )
            self._last_good[series] = report
            self._degraded_streak.pop(series, None)
            return self._maybe_stale(report)

    def _degrade(self, series: str, base: ForecastReport) -> ForecastReport:
        """Serve last-known-good with an error bar that widens per miss."""
        streak = self._degraded_streak.get(series, 0) + 1
        self._degraded_streak[series] = streak
        self._obs_degraded.inc()
        factor = min(2.0**streak, MAX_ERROR_WIDENING)
        return replace(base, error=base.error * factor, stale=True)

    def _maybe_stale(self, report: ForecastReport) -> ForecastReport:
        """Widen a fresh report when its data is past the staleness horizon."""
        if self._clock is None or self._stale_after is None:
            return report
        if report.as_of != report.as_of:  # NaN: no timestamp to age
            return report
        age = self._clock() - report.as_of
        if age <= self._stale_after:
            return report
        self._obs_degraded.inc()
        factor = min(2.0 ** int(age // self._stale_after), MAX_ERROR_WIDENING)
        return replace(report, error=report.error * factor, stale=True)

    def query_all(self) -> dict[str, ForecastReport]:
        """Forecasts for every non-empty series in the memory."""
        out = {}
        for series in self.memory.series_names():
            if self.memory.count(series) > 0:
                out[series] = self.query(series)
        return out
