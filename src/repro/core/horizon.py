"""Multi-horizon forecasting (the paper's "long-term predictions" future
work, Section 4).

A scheduler placing an hour-long job cares about the *average* availability
over the next hour, not the next 10 seconds.  Two natural strategies:

* **direct**: aggregate the measurement series at level ``m = horizon``
  and run the NWS mixture one *block* ahead (what the paper's Section 3.2
  does for m = 30);
* **persistent**: predict the next-step value and hold it for the whole
  horizon (the baseline any smarter method must beat).

:func:`horizon_error_profile` measures the true error of both strategies
against the realized future average, for a spread of horizons -- the
"error versus horizon" curve the paper gestures at.  Self-similarity
predicts graceful (power-law-ish) degradation rather than a cliff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.aggregate import aggregate_series
from repro.core.mixture import forecast_series

__all__ = ["HorizonError", "horizon_error_profile", "future_averages"]


@dataclass(frozen=True)
class HorizonError:
    """True forecasting error at one aggregation horizon.

    Attributes
    ----------
    horizon:
        Number of base measurement frames averaged (e.g. 30 = 5 minutes of
        10 s frames).
    direct_mae:
        MAE of the one-block-ahead forecast on the aggregated series.
    persistent_mae:
        MAE of holding the last *block average* as the prediction for the
        next block (the no-forecaster baseline).
    n:
        Number of scored blocks.
    """

    horizon: int
    direct_mae: float
    persistent_mae: float
    n: int

    @property
    def skill(self) -> float:
        """Relative improvement of direct forecasting over persistence
        (positive = the forecaster helps)."""
        if self.persistent_mae == 0.0:
            return 0.0
        return 1.0 - self.direct_mae / self.persistent_mae


def future_averages(values, horizon: int) -> np.ndarray:
    """Realized forward averages: ``out[k] = mean(values[k*h:(k+1)*h])``.

    Identical to non-overlapping aggregation; named separately for intent.
    """
    return aggregate_series(values, horizon)


def horizon_error_profile(values, horizons=(1, 6, 30, 90, 180)) -> list[HorizonError]:
    """Error-versus-horizon curve for one availability series.

    Parameters
    ----------
    values:
        1-D series of base-period measurements (e.g. 10 s frames).
    horizons:
        Aggregation levels to evaluate; each needs at least 8 blocks.

    Returns
    -------
    list[HorizonError]
        One entry per usable horizon (undersized ones are skipped).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 16:
        raise ValueError("values must be a 1-D series of at least 16 samples")
    out: list[HorizonError] = []
    for h in horizons:
        h = int(h)
        if h < 1 or arr.size // h < 8:
            continue
        blocks = aggregate_series(arr, h)
        forecasts = forecast_series(blocks)
        direct = float(np.abs(forecasts[1:] - blocks[1:]).mean())
        persistent = float(np.abs(blocks[:-1] - blocks[1:]).mean())
        out.append(
            HorizonError(
                horizon=h,
                direct_mae=direct,
                persistent_mae=persistent,
                n=blocks.size - 1,
            )
        )
    if not out:
        raise ValueError("no horizon left at least 8 blocks; series too short")
    return out
