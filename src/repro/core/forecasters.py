"""The NWS one-step-ahead forecaster battery.

Each forecaster is a streaming estimator with two operations:

* ``update(value)`` -- absorb the measurement for the time frame that just
  ended;
* ``forecast()`` -- predict the measurement for the *next* time frame.

All methods are "relatively cheap to compute" (paper Section 3): constant or
small-window state, no model fitting.  They fall into two families, exactly
as the paper summarizes -- estimates of the *mean* and estimates of the
*median* of a sliding window over previous measurements -- plus the
exponential-smoothing and gradient trackers borrowed from digital signal
processing (Haddad & Parsons, ref [19] of the paper).

:func:`default_battery` builds the set used by all experiments in this
reproduction; its composition mirrors the published NWS configuration
(Wolski '98): last value, running mean, sliding means and medians over a
spread of window sizes, adaptive-window variants, trimmed means, and
exponential smoothers over a spread of gains.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.windows import RingMean, RingMedian, RingTrimmedMean

__all__ = [
    "Forecaster",
    "LastValue",
    "RunningMean",
    "SlidingMean",
    "SlidingMedian",
    "MedianWindow",
    "TrimmedMeanWindow",
    "AdaptiveWindowMean",
    "AdaptiveWindowMedian",
    "ExponentialSmoothing",
    "GradientTracker",
    "default_battery",
]


class Forecaster(ABC):
    """Streaming one-step-ahead forecaster.

    Subclasses must be cheap: ``update`` and ``forecast`` are called once
    per measurement for every forecaster in the battery.

    Notes
    -----
    ``forecast()`` before any ``update()`` raises :class:`ValueError`; the
    NWS likewise reports no prediction until it has one measurement.

    Subclasses declare ``__slots__`` (``tests/test_invariants.py`` checks
    each one): batteries hold dozens of live instances on the
    per-measurement hot path, and slotted instances keep that footprint
    flat.
    """

    __slots__ = ()

    #: Short machine-readable identifier; subclasses override.
    name: str = "base"

    @abstractmethod
    def update(self, value: float) -> None:
        """Absorb one measurement."""

    @abstractmethod
    def forecast(self) -> float:
        """Predict the next measurement."""

    @abstractmethod
    def reset(self) -> None:
        """Forget all measurement state, keeping constructor parameters.

        After ``reset()`` the instance must be indistinguishable from a
        freshly constructed one: the same ``update``/``forecast`` sequence
        produces bit-identical outputs (the round-trip contract the batch
        engine and the runner's memoization both rely on).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class LastValue(Forecaster):
    """Predict the next value to equal the last observed value.

    The optimal predictor for a random walk; surprisingly strong on CPU
    availability traces because of their long-range positive correlation.
    """

    name = "last_value"

    __slots__ = ("_last",)

    def __init__(self):
        self._last: float | None = None

    def update(self, value: float) -> None:
        self._last = float(value)

    def forecast(self) -> float:
        if self._last is None:
            raise ValueError("no measurements yet")
        return self._last

    def reset(self) -> None:
        self._last = None


class RunningMean(Forecaster):
    """Predict the mean of *all* measurements seen so far."""

    name = "running_mean"

    __slots__ = ("_sum", "_count")

    def __init__(self):
        self._sum = 0.0
        self._count = 0

    def update(self, value: float) -> None:
        self._sum += float(value)
        self._count += 1

    def forecast(self) -> float:
        if self._count == 0:
            raise ValueError("no measurements yet")
        return self._sum / self._count

    def reset(self) -> None:
        self._sum = 0.0
        self._count = 0


class SlidingMean(Forecaster):
    """Predict the mean of the last ``window`` measurements."""

    __slots__ = ("_ring", "name")

    def __init__(self, window: int):
        self._ring = RingMean(window)
        self.name = f"sliding_mean_{window}"

    @property
    def window(self) -> int:
        return self._ring.capacity

    def update(self, value: float) -> None:
        self._ring.push(float(value))

    def forecast(self) -> float:
        if len(self._ring) == 0:
            raise ValueError("no measurements yet")
        return self._ring.mean

    def reset(self) -> None:
        self._ring = RingMean(self._ring.capacity)


class SlidingMedian(Forecaster):
    """Predict the median of the last ``window`` measurements."""

    __slots__ = ("_ring", "name")

    def __init__(self, window: int):
        self._ring = RingMedian(window)
        self.name = f"sliding_median_{window}"

    @property
    def window(self) -> int:
        return self._ring.capacity

    def update(self, value: float) -> None:
        self._ring.push(float(value))

    def forecast(self) -> float:
        if len(self._ring) == 0:
            raise ValueError("no measurements yet")
        return self._ring.median

    def reset(self) -> None:
        self._ring = RingMedian(self._ring.capacity)


#: Backwards-compatible alias; the NWS literature calls this MEDIAN(w).
MedianWindow = SlidingMedian


class TrimmedMeanWindow(Forecaster):
    """Predict the symmetric alpha-trimmed mean of a sliding window.

    Parameters
    ----------
    window:
        Window capacity.
    trim:
        Samples trimmed from each end (see
        :class:`repro.core.windows.RingTrimmedMean`).
    """

    __slots__ = ("_ring", "_trim", "name")

    def __init__(self, window: int, trim: int):
        self._ring = RingTrimmedMean(window, trim)
        self._trim = trim
        self.name = f"trimmed_mean_{window}_{trim}"

    @property
    def window(self) -> int:
        return self._ring.capacity

    @property
    def trim(self) -> int:
        return self._trim

    def update(self, value: float) -> None:
        self._ring.push(float(value))

    def forecast(self) -> float:
        if len(self._ring) == 0:
            raise ValueError("no measurements yet")
        return self._ring.trimmed_mean

    def reset(self) -> None:
        self._ring = RingTrimmedMean(self._ring.capacity, self._trim)


class _AdaptiveWindowBase(Forecaster):
    """Shared machinery for the adaptive-window forecasters.

    The NWS adaptive window grows while the forecaster is accurate
    (longer memory smooths noise) and shrinks multiplicatively when a
    forecast misses badly (short memory tracks level shifts).  "Badly" means
    an absolute error above ``tolerance`` (availability is in [0, 1], so the
    default 0.1 mirrors the paper's 10 %-is-useful threshold).

    The estimate computed by :meth:`forecast` is cached until the next
    :meth:`update`, which reuses it for the error check (the window state
    is unchanged in between, so the value is identical); the battery's
    update-then-forecast cadence therefore pays for one estimate per
    measurement instead of two.
    """

    __slots__ = ("_min", "_max", "_tolerance", "_shrink", "_window", "_history", "_cached")

    def __init__(
        self,
        *,
        min_window: int = 5,
        max_window: int = 100,
        tolerance: float = 0.1,
        shrink: float = 0.5,
    ):
        if not 1 <= min_window <= max_window:
            raise ValueError("need 1 <= min_window <= max_window")
        if not 0.0 < shrink < 1.0:
            raise ValueError(f"shrink must be in (0, 1), got {shrink}")
        if tolerance <= 0.0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        self._min = int(min_window)
        self._max = int(max_window)
        self._tolerance = float(tolerance)
        self._shrink = float(shrink)
        self._window = self._min
        self._history: list[float] = []
        self._cached: float | None = None

    @property
    def min_window(self) -> int:
        return self._min

    @property
    def max_window(self) -> int:
        return self._max

    @property
    def tolerance(self) -> float:
        return self._tolerance

    @property
    def shrink(self) -> float:
        return self._shrink

    def update(self, value: float) -> None:
        value = float(value)
        if self._history:
            estimate = self._cached
            if estimate is None:
                estimate = self._estimate()
            error = abs(estimate - value)
            if error > self._tolerance:
                self._window = max(self._min, int(self._window * self._shrink))
            elif self._window < self._max:
                self._window += 1
        self._history.append(value)
        self._on_append(value)
        # Bound memory: never keep more than max_window samples.
        if len(self._history) > self._max:
            drop = len(self._history) - self._max
            del self._history[:drop]
            self._on_trim(drop)
        self._cached = None

    def forecast(self) -> float:
        if not self._history:
            raise ValueError("no measurements yet")
        if self._cached is None:
            self._cached = self._estimate()
        return self._cached

    def reset(self) -> None:
        self._window = self._min
        self._history.clear()
        self._cached = None
        self._on_reset()

    def _tail(self) -> list[float]:
        return self._history[-self._window :]

    def _estimate(self) -> float:
        raise NotImplementedError

    def _on_append(self, value: float) -> None:
        """Subclass hook: a value was appended to the history."""

    def _on_trim(self, dropped: int) -> None:
        """Subclass hook: ``dropped`` oldest history entries were removed."""

    def _on_reset(self) -> None:
        """Subclass hook: all history was discarded."""


class AdaptiveWindowMean(_AdaptiveWindowBase):
    """Mean over a window whose length adapts to recent forecast error.

    The window mean is computed from running prefix sums (``_cum[k]`` is
    the left-to-right sum of the first ``k`` retained-or-evicted samples),
    so each estimate is O(1) and bit-identical to the
    ``(cumsum[t] - cumsum[t - w]) / w`` form the batch engine vectorizes.
    """

    __slots__ = ("name", "_cum")

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._cum: list[float] = [0.0]
        self.name = f"adaptive_mean_{self._min}_{self._max}"

    def _on_append(self, value: float) -> None:
        self._cum.append(self._cum[-1] + value)

    def _on_trim(self, dropped: int) -> None:
        del self._cum[:dropped]

    def _on_reset(self) -> None:
        self._cum = [0.0]

    def _estimate(self) -> float:
        n = len(self._history)
        k = self._window if self._window < n else n
        return (self._cum[-1] - self._cum[-1 - k]) / k


class AdaptiveWindowMedian(_AdaptiveWindowBase):
    """Median over a window whose length adapts to recent forecast error."""

    __slots__ = ("name",)

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.name = f"adaptive_median_{self._min}_{self._max}"

    def _estimate(self) -> float:
        tail = sorted(self._tail())
        n = len(tail)
        mid = n // 2
        if n % 2:
            return tail[mid]
        return 0.5 * (tail[mid - 1] + tail[mid])


class ExponentialSmoothing(Forecaster):
    """First-order exponential smoothing with fixed gain.

    ``s <- gain * x + (1 - gain) * s``; the forecast is ``s``.  The NWS runs
    a spread of gains in parallel and lets the mixture pick.

    Parameters
    ----------
    gain:
        Smoothing gain in (0, 1].  Gain 1.0 degenerates to
        :class:`LastValue`.
    """

    __slots__ = ("_gain", "_state", "name")

    def __init__(self, gain: float):
        if not 0.0 < gain <= 1.0:
            raise ValueError(f"gain must be in (0, 1], got {gain}")
        self._gain = float(gain)
        self._state: float | None = None
        self.name = f"exp_smooth_{gain:g}"

    @property
    def gain(self) -> float:
        return self._gain

    def update(self, value: float) -> None:
        value = float(value)
        if self._state is None:
            self._state = value
        else:
            self._state += self._gain * (value - self._state)

    def forecast(self) -> float:
        if self._state is None:
            raise ValueError("no measurements yet")
        return self._state

    def reset(self) -> None:
        self._state = None


class GradientTracker(Forecaster):
    """Stochastic-gradient (sign-LMS) level tracker.

    Nudges the prediction toward each new measurement by a fixed step,
    ``p <- p + step * sign(x - p)`` -- robust to outliers because the move
    is bounded regardless of the error magnitude.  This is the NWS
    "adaptive low-pass" style filter from the DSP toolbox.

    Parameters
    ----------
    step:
        Fixed step size (> 0); availability lives in [0, 1], so steps of
        0.01-0.1 are sensible.
    """

    __slots__ = ("_step", "_state", "name")

    def __init__(self, step: float = 0.05):
        if step <= 0.0:
            raise ValueError(f"step must be positive, got {step}")
        self._step = float(step)
        self._state: float | None = None
        self.name = f"gradient_{step:g}"

    @property
    def step(self) -> float:
        return self._step

    def update(self, value: float) -> None:
        value = float(value)
        if self._state is None:
            self._state = value
        elif value > self._state:
            self._state = min(value, self._state + self._step)
        elif value < self._state:
            self._state = max(value, self._state - self._step)

    def forecast(self) -> float:
        if self._state is None:
            raise ValueError("no measurements yet")
        return self._state

    def reset(self) -> None:
        self._state = None


def default_battery() -> list[Forecaster]:
    """The forecaster set used throughout this reproduction.

    Mirrors the published NWS battery: mean- and median-based sliding
    windows over a spread of sizes, adaptive windows, trimmed means,
    exponential smoothers over a spread of gains, plus the trivial
    last-value and running-mean baselines.

    Returns
    -------
    list[Forecaster]
        Fresh (stateless) instances; safe to mutate.
    """
    battery: list[Forecaster] = [
        LastValue(),
        RunningMean(),
        SlidingMean(5),
        SlidingMean(10),
        SlidingMean(20),
        SlidingMean(40),
        SlidingMedian(5),
        SlidingMedian(11),
        SlidingMedian(21),
        SlidingMedian(41),
        TrimmedMeanWindow(11, 2),
        TrimmedMeanWindow(31, 7),
        AdaptiveWindowMean(),
        AdaptiveWindowMedian(),
        ExponentialSmoothing(0.05),
        ExponentialSmoothing(0.1),
        ExponentialSmoothing(0.25),
        ExponentialSmoothing(0.5),
        ExponentialSmoothing(0.75),
        GradientTracker(0.02),
        GradientTracker(0.1),
    ]
    return battery
