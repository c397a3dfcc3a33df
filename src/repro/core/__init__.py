"""The NWS forecasting subsystem (the paper's primary contribution vehicle).

The Network Weather Service treats each measurement history as a time
series and runs a *battery* of cheap one-step-ahead forecasters over it,
dynamically reporting the prediction of whichever forecaster has been most
accurate over the recent past (Section 3 of the paper; Wolski '98).  This
subpackage reimplements that design:

* :mod:`repro.core.windows` -- O(1)/O(log w) sliding-window accumulators.
* :mod:`repro.core.forecasters` -- the individual forecasting methods
  (last value, running mean, sliding mean/median/trimmed mean, adaptive
  windows, exponential smoothing family, stochastic-gradient tracker).
* :mod:`repro.core.mixture` -- the adaptive "best recent forecaster"
  mixture, plus a static bank for head-to-head comparisons.
* :mod:`repro.core.batch` -- the vectorized whole-series backtesting
  engine behind ``forecast_series(values)`` with no forecaster given
  (bit-identical to streaming, >= 10x faster on day-long traces); a
  forecaster instance is streamed instead.
* :mod:`repro.core.errors` -- the error metrics of paper Equations 3-5.
* :mod:`repro.core.predictor` -- a high-level facade tying sensing,
  aggregation and forecasting together.
"""

from repro._exports import lazy_exports

__all__ = [
    "AR1Forecaster",
    "BatchUnsupported",
    "MixtureBacktest",
    "AdaptiveForecaster",
    "AdaptiveWindowMean",
    "AdaptiveWindowMedian",
    "ErrorSummary",
    "ExponentialSmoothing",
    "Forecaster",
    "ForecasterBank",
    "GradientTracker",
    "HorizonError",
    "MedianOfMeans",
    "LastValue",
    "NWSPredictor",
    "TimeOfDayForecaster",
    "TrendForecaster",
    "RunningMean",
    "SlidingMean",
    "SlidingMedian",
    "TrimmedMeanWindow",
    "default_battery",
    "extended_battery",
    "future_averages",
    "horizon_error_profile",
    "forecast_series",
    "mean_absolute_error",
    "member_forecasts",
    "mixture_backtest",
    "supports_batch",
    "mean_squared_error",
    "measurement_errors",
    "one_step_prediction_errors",
    "root_mean_squared_error",
    "true_forecasting_errors",
]

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.core.batch": (
            "BatchUnsupported",
            "MixtureBacktest",
            "member_forecasts",
            "mixture_backtest",
            "supports_batch",
        ),
        "repro.core.errors": (
            "ErrorSummary",
            "mean_absolute_error",
            "mean_squared_error",
            "measurement_errors",
            "one_step_prediction_errors",
            "root_mean_squared_error",
            "true_forecasting_errors",
        ),
        "repro.core.extra_forecasters": (
            "AR1Forecaster",
            "MedianOfMeans",
            "TimeOfDayForecaster",
            "TrendForecaster",
            "extended_battery",
        ),
        "repro.core.forecasters": (
            "AdaptiveWindowMean",
            "AdaptiveWindowMedian",
            "ExponentialSmoothing",
            "Forecaster",
            "GradientTracker",
            "LastValue",
            "RunningMean",
            "SlidingMean",
            "SlidingMedian",
            "TrimmedMeanWindow",
            "default_battery",
        ),
        "repro.core.horizon": ("HorizonError", "future_averages", "horizon_error_profile"),
        "repro.core.mixture": ("AdaptiveForecaster", "ForecasterBank", "forecast_series"),
        "repro.core.predictor": ("NWSPredictor",),
    },
)
