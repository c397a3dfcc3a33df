"""High-level prediction facade: the NWS "forecasting API" surface.

:class:`NWSPredictor` is what a dynamic scheduler embeds: feed it timestamped
availability measurements, ask it for short-term (next measurement frame) or
medium-term (average over the next k frames / next aggregation block)
predictions, and for the expansion factor used to stretch execution-time
estimates (paper Section 2: "the availability percentage is used as an
expansion factor").
"""

from __future__ import annotations

import numpy as np

from repro.contracts import ensure_fraction
from repro.core.forecasters import Forecaster
from repro.core.mixture import AdaptiveForecaster

__all__ = ["NWSPredictor", "PredictorMixture"]


class NWSPredictor:
    """Streaming CPU-availability predictor with aggregation support.

    Maintains two forecasting mixtures:

    * a *short-term* mixture over the raw measurement series (one-step-ahead
      at the measurement period, e.g. 10 s);
    * a *medium-term* mixture over the aggregated series ``X^(m)`` (one
      block ahead, e.g. 5 min for ``aggregation=30``), fed a new value every
      time a block of ``m`` raw measurements completes -- exactly the
      construction of paper Section 3.2.

    Parameters
    ----------
    aggregation:
        Block length ``m`` for the medium-term series (default 30, i.e.
        5 minutes of 10-second measurements).
    forecaster_factory:
        Callable returning a fresh :class:`Forecaster` for each horizon;
        defaults to the NWS adaptive mixture.
    clamp:
        If true (default), clamp forecasts into [0, 1] -- availability is a
        fraction and every individual NWS forecaster can overshoot slightly
        at series edges.
    """

    def __init__(
        self,
        *,
        aggregation: int = 30,
        forecaster_factory=None,
        clamp: bool = True,
    ):
        if aggregation < 1:
            raise ValueError(f"aggregation must be >= 1, got {aggregation}")
        factory = forecaster_factory if forecaster_factory is not None else AdaptiveForecaster
        self._short: Forecaster = factory()
        self._medium: Forecaster = factory()
        self._aggregation = int(aggregation)
        self._clamp = bool(clamp)
        self._block: list[float] = []
        self._n_measurements = 0
        self._n_blocks = 0

    @property
    def aggregation(self) -> int:
        return self._aggregation

    @property
    def n_measurements(self) -> int:
        return self._n_measurements

    @property
    def n_blocks(self) -> int:
        """Completed aggregation blocks fed to the medium-term mixture."""
        return self._n_blocks

    def _clip(self, value: float) -> float:
        return float(np.clip(value, 0.0, 1.0)) if self._clamp else float(value)

    def observe(self, availability: float) -> None:
        """Absorb one availability measurement (fraction in [0, 1]).

        Values outside [0, 1] are rejected (via
        :func:`~repro.contracts.ensure_fraction`, a :class:`ValueError`
        subclass): they indicate a broken sensor, and silently clamping
        inputs would hide that.
        """
        value = ensure_fraction(float(availability))
        self._short.update(value)
        self._n_measurements += 1
        self._block.append(value)
        if len(self._block) == self._aggregation:
            self._medium.update(sum(self._block) / len(self._block))
            self._block.clear()
            self._n_blocks += 1

    def forecast_next(self) -> float:
        """Short-term forecast: availability over the next measurement frame."""
        return self._clip(self._short.forecast())

    def forecast_block(self) -> float:
        """Medium-term forecast: average availability over the next block.

        Raises
        ------
        ValueError
            Until at least one full aggregation block has been observed.
        """
        return self._clip(self._medium.forecast())

    def forecast(self, horizon_frames: int = 1) -> float:
        """Forecast average availability over the next ``horizon_frames``.

        Uses the short-term mixture for horizons under one block and the
        medium-term mixture otherwise.  For self-similar series the
        medium-term average is the right target for long-running processes
        (paper Section 3.2: "it is an estimate of average CPU availability
        ... that is most useful to a scheduler").
        """
        if horizon_frames < 1:
            raise ValueError(f"horizon_frames must be >= 1, got {horizon_frames}")
        if horizon_frames < self._aggregation or self._n_blocks == 0:
            return self.forecast_next()
        return self.forecast_block()

    def forecast_with_error(self) -> tuple[float, float]:
        """Short-term forecast plus the winning method's error bar.

        Delegates to the short-term mixture's ``forecast_with_error``
        (forecast clamped like :meth:`forecast_next`); requires the
        mixture to expose that method, which the default
        :class:`~repro.core.mixture.AdaptiveForecaster` does.
        """
        forecast, error = self._short.forecast_with_error()
        return self._clip(forecast), float(error)

    def chosen_name(self) -> str:
        """Name of the short-term member the next forecast comes from."""
        chosen = getattr(self._short, "chosen_name", None)
        if callable(chosen):
            return chosen()
        return type(self._short).__name__

    def telemetry(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per-horizon, per-member forecaster standings.

        Returns ``{"short": {...}, "medium": {...}}`` with the inner dicts
        from :meth:`~repro.core.mixture.ForecasterBank.telemetry`.  Horizons
        whose forecaster does not expose telemetry (a custom
        ``forecaster_factory``) are omitted.
        """
        out: dict[str, dict[str, dict[str, float]]] = {}
        for horizon, forecaster in (("short", self._short), ("medium", self._medium)):
            report = getattr(forecaster, "telemetry", None)
            if callable(report):
                out[horizon] = report()
        return out

    def forecast_horizon(self, horizon_frames: int) -> float:
        """:meth:`forecast`, under the mixture-protocol method name.

        :class:`~repro.nws.forecaster.ForecasterService` dispatches
        multi-step queries to ``forecast_horizon(h)`` when the mixture
        provides it; this alias makes the aggregated predictor speak
        that protocol (see :class:`PredictorMixture`).
        """
        return self.forecast(horizon_frames)

    def expansion_factor(self, horizon_frames: int = 1) -> float:
        """Predicted execution-time multiplier for a CPU-bound process.

        A process that would take ``T`` seconds on an idle CPU is predicted
        to take ``T * expansion_factor()`` here (paper Section 2).  Returns
        ``inf`` when predicted availability is ~0.
        """
        availability = self.forecast(horizon_frames)
        if availability <= 1e-9:
            return float("inf")
        return 1.0 / availability


class PredictorMixture:
    """:class:`NWSPredictor` behind the forecaster-service mixture protocol.

    :class:`~repro.nws.forecaster.ForecasterService` drives whatever its
    factory builds through ``update`` / ``forecast_with_error`` /
    ``chosen_name`` (plus ``forecast_horizon`` for multi-step queries).
    This adapter exposes exactly that surface over an aggregated
    predictor -- and deliberately nothing more: the predictor's
    ``telemetry`` is per-horizon *nested*, which the service's flat
    per-member collector must never be handed, so it is not forwarded.

    NaN updates are skipped (the mixture-layer convention for dropped
    sensor readings) before they reach the predictor's strict
    fraction validation.
    """

    def __init__(self, *, aggregation: int = 30, clamp: bool = True):
        self.predictor = NWSPredictor(aggregation=aggregation, clamp=clamp)

    def update(self, value: float) -> None:
        value = float(value)
        if value != value:
            return
        self.predictor.observe(value)

    def forecast_with_error(self) -> tuple[float, float]:
        return self.predictor.forecast_with_error()

    def chosen_name(self) -> str:
        return self.predictor.chosen_name()

    def forecast_horizon(self, horizon_frames: int) -> float:
        return self.predictor.forecast_horizon(horizon_frames)
